"""The product carries no code that only tests use."""

import ast
import collections
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
