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


def _branch_fn(name: str):
    owners = [m for m in tracer.TRACED_MODULES if inspect.isfunction(getattr(_library(m), name, None))]
    assert owners, name
    return getattr(_library(owners[0]), name)


@pytest.mark.parametrize("name", sorted(tracer.BRANCH_FNS))
def test_branch_functions_exist_and_take_a_tolerance(name):
    fn = _branch_fn(name)
    assert "tol" in inspect.signature(fn).parameters  # the branch hook reads its default


# each cancel kind: the traced addition and the carrier whose 1 + (-1) makes it
CANCEL_SUMS = {
    "CDisk": ("ct_add", "TC"),
    "CUnion": ("phase_add", "Phi"),
    "QBall": ("quat_add", "quat"),
    "MCone": ("mono_add", "mono"),
    "PCone": ("padic_add", "padic:5:8"),
}


def test_cancel_kinds_are_value_set_classes():
    """Each cancel kind names the type that the cancel branch of a traced
    addition returns, so no class is kept only for its name."""
    from hyperalg.structures import get_structure

    assert sorted(tracer._CANCELS) == sorted(CANCEL_SUMS)
    for kind, (fn_name, carrier) in CANCEL_SUMS.items():
        X = get_structure(carrier)
        a, b = X.one, X.neg(X.one)
        out = _branch_fn(fn_name)(a, b)
        assert type(out).__name__ == kind, (fn_name, out)
        assert tracer.classify(fn_name, a, b, out, 1e-9) == "cancel"


def _branch_operands():
    """Per traced addition: its operand k (0 or 1) of size s, or 0 when s is
    None, and the size gaps to try.  Two operands of one size neither cancel
    nor coincide; a phase unit has modulus 1 within eps, and a p-adic size is
    an integer exponent."""
    from hyperalg.csets import CZERO, ComplexElem
    from hyperalg.exotic import MZERO, MonomialElem, PadicElem, padic_zero
    from hyperalg.qsets import QZERO, QuatElem

    eps = _library("tolerance").DEFAULT_TOL.eps
    gaps = (0.0, eps / 2, 2 * eps)
    return {
        "ct_add": (lambda s, k: CZERO if s is None else ComplexElem(s, k), gaps),
        "phase_add": (lambda s, k: CZERO if s is None else ComplexElem(s, k), gaps[:2]),
        "rt_add": (lambda s, k: 0.0 if s is None else s, gaps),
        "quat_add": (lambda s, k: QZERO if s is None else QuatElem(*(s if i == k else 0.0 for i in range(4))), gaps),
        "trop_add": (lambda s, k: tracer.NEG_INF if s is None else s, gaps),
        "mono_add": (lambda s, k: MZERO if s is None else MonomialElem(1 + k, s), gaps),
        "padic_add": (lambda s, k: padic_zero(5) if s is None else PadicElem(5, s, 1 + k, 8), (0, 1)),
    }


@pytest.mark.parametrize("name", sorted(tracer.BRANCH_FNS))
def test_classify_calls_dominant_what_the_library_orders(name):
    """`classify` re-derives the branch from the operand sizes, so it must
    call a pair `dominant` exactly when `Tolerance.order`, the library's one
    tie rule, orders the two sizes: near size 1 at gaps 0, eps/2 and 2 eps,
    and against an exactly zero operand.  A change of the rule there fails
    here until `classify` follows it.  The zero floor, an operand within eps
    of 0 against an exact zero, is not checked: `classify` sizes the zero
    as -inf and says `dominant`, while the library gives the point 0."""
    make, gaps = _branch_operands()[name]
    tol = _library("tolerance").DEFAULT_TOL
    size = tracer.BRANCH_FNS[name]
    fn = _branch_fn(name)
    for gap in (*gaps, None):
        a, b = make(1, 0), make(None if gap is None else 1 + gap, 1)
        for x, y in ((a, b), (b, a)):
            branch = tracer.classify(name, x, y, fn(x, y), tol.eps)
            assert branch != "cancel", (gap, x, y)
            assert (branch == "dominant") == (tol.order(size(x), size(y)) != 0), (gap, x, y)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_uses_name_library_modules_and_functions(workload):
    w = workloads.WORKLOADS[workload]
    for name in (*w.uses, *w.bypasses):
        if "." in name:
            _own_function(name)
        else:
            assert name in tracer.TRACED_MODULES, name
