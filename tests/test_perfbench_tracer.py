"""perfbench/tracer.py patches package functions by name and reads some of
their arguments by name.  A rename that breaks it would show only in a traced
benchmark run, so this checks the names against the package."""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The arguments that the tracer's per-call attributes read, by function.
READ_ARGUMENTS = {
    "convnet.train": ("spec", "params", "cfg", "images", "labels"),
    "convnet.forward": ("batch",),
    "pipeline.evaluate": ("dataset", "split"),
    "container.read_container": ("path",),
    "container.write_container": ("path",),
}


def package_function(qualified: str):
    module_name, name = qualified.split(".")
    return getattr(importlib.import_module(f"subsetlearn.{module_name}"), name, None)


def test_traced_functions_and_read_arguments_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert set(tracer._ATTRS) == set(READ_ARGUMENTS)
    for qualified in tracer.FUNCTIONS:
        assert callable(package_function(qualified)), qualified
    for qualified, arguments in READ_ARGUMENTS.items():
        parameters = inspect.signature(package_function(qualified)).parameters
        assert [a for a in arguments if a not in parameters] == [], qualified
