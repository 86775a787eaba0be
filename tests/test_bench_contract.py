"""The benchmark's contract with the package: every function the benchmark
requires to run, and every method its tracer wraps, exists where it looks.

`perfbench/workloads.py` and `perfbench/tracing.py` import only the standard
library, so they are loaded here by file path; a rename or deletion of a
traced function then fails this fast test instead of a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import pytest

from congested_ns.freeboundary import _march

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")

TRACED = sorted({name for w in workloads.WORKLOADS.values() for name in w.must_run}
                | {".".join(entry) for entry in tracing.METHODS})


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    layer, *path = name.split(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"congested_ns.{layer}")
    if len(path) == 1:
        # the tracer wraps the functions defined at module level in their layer
        obj = vars(module).get(path[0])
        assert isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
    else:
        # and a class's method only when tracing.METHODS lists it
        assert (layer, *path) in tracing.METHODS
        cls_name, meth = path
        assert isinstance(vars(getattr(module, cls_name)).get(meth), types.FunctionType)


def test_march_takes_ydot_third():
    # the tracer counts the steps of a march from its third argument
    assert list(inspect.signature(_march).parameters)[2] == "ydot"
