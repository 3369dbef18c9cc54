"""The benchmark harness names library functions by string; these tests see
a renamed or deleted one before a `--trace 1` run crashes on it.

`perfbench/tracer.py` and `perfbench/workloads.py` are loaded by file path
and only read.
"""
import importlib
import importlib.util
import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up while the file runs
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
        sys.dont_write_bytecode = write_bytecode
    return mod


tracer = _load("tracer")
workloads = _load("workloads")


def _library(mname: str):
    return importlib.import_module(f"hyperalg.{mname}")


def _own_function(dotted: str):
    """The public function `module.name` that the tracer wraps: defined in
    that module, not imported into it."""
    mname, _, fname = dotted.partition(".")
    assert mname in tracer.TRACED_MODULES, dotted
    fn = getattr(_library(mname), fname, None)
    assert inspect.isfunction(fn) and fn.__module__ == f"hyperalg.{mname}", dotted
    return fn


@pytest.mark.parametrize("key", sorted(tracer.NORMALIZERS))
def test_normalizers_and_their_parts_helpers_exist(key):
    _own_function(key)
    spec = tracer.NORMALIZERS[key]
    if spec is not None:
        assert callable(getattr(_library(spec[0]), spec[1], None)), spec


@pytest.mark.parametrize("name", sorted(tracer.BRANCH_FNS))
def test_branch_functions_exist_and_take_a_tolerance(name):
    owners = [m for m in tracer.TRACED_MODULES if inspect.isfunction(getattr(_library(m), name, None))]
    assert owners, name
    fn = getattr(_library(owners[0]), name)
    assert "tol" in inspect.signature(fn).parameters  # the branch hook reads its default


def test_cancel_kinds_are_value_set_classes():
    classes = {
        name
        for m in tracer.TRACED_MODULES
        for name, obj in vars(_library(m)).items()
        if inspect.isclass(obj)
    }
    assert set(tracer._CANCELS) <= classes


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_uses_name_library_modules_and_functions(workload):
    w = workloads.WORKLOADS[workload]
    for name in (*w.uses, *w.bypasses):
        if "." in name:
            _own_function(name)
        else:
            assert name in tracer.TRACED_MODULES, name
