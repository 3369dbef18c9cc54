"""The tolerance contract of the public API.

Operations compute under the one library tolerance, DEFAULT_TOL, and take no
tolerance argument.  The comparison predicates keep a `tol` parameter, so a
checker may compare with a wider tolerance.  The seven binary additions keep
`tol` as their third parameter: perfbench/tracer.py reads it by name and by
position to classify each call's branch.
"""
import inspect

from hyperalg import axioms, csets, ctrop, deq, exotic, homs, qsets, realhf, rsets, tolerance
from hyperalg.tolerance import DEFAULT_TOL

MODULES = [tolerance, csets, rsets, qsets, ctrop, realhf, exotic, deq, homs, axioms]

ADDITIONS = [
    ctrop.ct_add, ctrop.rt_add, ctrop.phase_add, ctrop.quat_add,
    realhf.trop_add, exotic.mono_add, exotic.padic_add,
]

PREDICATES = {
    "csets.member", "csets.set_eq", "csets.subset",
    "csets.ComplexElem.eq", "csets.CArc.contains_angle",
    "rsets.rmember", "rsets.rset_eq", "rsets.rsubset",
    "qsets.qmember", "qsets.qset_eq", "qsets.qsubset", "qsets.in_cone", "qsets.QuatElem.eq",
    "exotic.member", "exotic.set_eq", "exotic.subset", "exotic.MonomialElem.eq",
}


def _public_callables():
    """(qualified name, function) for every public function of MODULES and
    every public method of their public classes."""
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{short}.{name}.{attr}", fn


def test_tolerance_contract():
    for fn in ADDITIONS:
        params = list(inspect.signature(fn).parameters.values())
        assert params[2].name == "tol" and params[2].default is DEFAULT_TOL, fn.__name__
    keep = PREDICATES | {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}" for fn in ADDITIONS}
    takers = {
        name
        for name, fn in _public_callables()
        if {"tol", "eps"} & set(inspect.signature(fn).parameters)
    }
    assert sorted(takers - keep) == []
    assert takers == keep
