"""The product carries no code that only tests use, no handler that does
nothing, and no except clause that names a class twice over."""

import ast
import builtins
import collections
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(node: ast.AST) -> collections.Counter:
    """Names used under node: loaded or stored names, attribute names and import aliases."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
    return names


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods and properties of the classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def unreferenced_definitions(root: Path) -> list[str]:
    """Every definition in src/subsetlearn whose name appears nowhere in src/
    or perfbench/ outside the definition itself."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for pattern in ("src/**/*.py", "perfbench/**/*.py")
        for path in sorted(root.glob(pattern))
    }
    used = collections.Counter()
    for tree in trees.values():
        used += _referenced_names(tree)
    missing = []
    for path, tree in trees.items():
        if path.parent != root / "src" / "subsetlearn":
            continue
        for qualname, node in _definitions(tree):
            if used[node.name] - _referenced_names(node)[node.name] <= 0:
                missing.append(f"{path.stem}.{qualname}")
    return missing


def test_every_product_definition_has_a_caller():
    assert unreferenced_definitions(ROOT) == []


def _caught(module, node) -> tuple[type, ...]:
    """The exception classes an except clause's type expression names, looked
    up in the module's namespace, or in builtins when the module does not
    define them."""
    if node is None:
        return (BaseException,)
    if isinstance(node, ast.Tuple):
        return tuple(cls for elt in node.elts for cls in _caught(module, elt))
    if isinstance(node, ast.Name):
        return (vars(module)[node.id] if node.id in vars(module) else getattr(builtins, node.id),)
    if isinstance(node, ast.Attribute):
        return (getattr(_caught(module, node.value)[0], node.attr),)
    raise AssertionError(f"cannot resolve {ast.unparse(node)}")


def _product_nodes(root: Path):
    """(file path, imported module, node) for every AST node in src/subsetlearn."""
    for path in sorted((root / "src" / "subsetlearn").glob("*.py")):
        module = importlib.import_module(f"subsetlearn.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, module, node


def dead_reraise_handlers(root: Path) -> list[str]:
    """Every handler in src/subsetlearn whose whole body is a bare ``raise``
    although no later handler of its try would catch what it names: such a
    clause only re-raises what would propagate anyway."""
    dead = []
    for path, module, node in _product_nodes(root):
        if not isinstance(node, ast.Try):
            continue
        for i, handler in enumerate(node.handlers):
            body = handler.body
            if not (len(body) == 1 and isinstance(body[0], ast.Raise) and body[0].exc is None):
                continue
            later = tuple(cls for h in node.handlers[i + 1 :] for cls in _caught(module, h.type))
            if not all(issubclass(cls, later) for cls in _caught(module, handler.type)):
                dead.append(f"{path.name}:{handler.lineno}")
    return dead


def test_no_handler_only_reraises_what_would_propagate():
    assert dead_reraise_handlers(ROOT) == []


def redundant_except_classes(root: Path) -> list[str]:
    """Every except tuple in src/subsetlearn that names a class which another
    class of the same tuple already covers."""
    redundant = []
    for path, module, node in _product_nodes(root):
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            caught = _caught(module, node.type)
            if any(issubclass(a, b) for i, a in enumerate(caught) for j, b in enumerate(caught) if i != j):
                redundant.append(f"{path.name}:{node.lineno}")
    return redundant


def test_no_except_tuple_names_a_class_it_already_covers():
    assert redundant_except_classes(ROOT) == []
