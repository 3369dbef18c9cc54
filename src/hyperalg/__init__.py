"""hyperalg: exact set-valued arithmetic for tropical hyperfields.

Multivalued additions over C, R, R+, H, monomials and p-adic numbers, with
generic multigroup/multiring/hyperfield axiom checking, finite quotient
constructions, homomorphism verification, and dequantization traces.

Importing the package imports no submodule.  A public name below, or a
submodule read as `hyperalg.<module>`, is imported at its first use (PEP 562),
so a command pays only for the modules it calls.  Those imports go through
the builtin `__import__`, which `python -X importtime` logs.
"""

import sys

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("axioms", "cli", "csets", "ctrop", "deq", "exotic", "finite", "homs", "qsets",
     "realhf", "rsets", "structures", "tolerance")
)

# public name -> the submodule defining it
_EXPORTS = {
    name: module
    for module, names in (
        ("tolerance", "DEFAULT_TOL NEG_INF Tolerance InvalidSetError RepresentationClosureError"),
        ("csets", "CArc CDisk CPoint CSet CUnion ComplexElem CZERO CONE member set_eq subset"),
        ("rsets", "RSet rinterval rmember rpoint rset rset_eq"),
        ("qsets", "QArc QBall QCone QPoint QSet QuatElem"),
        ("realhf", "amoeba_add tri_add tri_sum_n trop_add ultra_add"),
        ("ctrop", "ct_add ct_add_sets ct_mul_sets ct_sum_n phase_add quat_add rt_add"),
        ("axioms", "AxiomReport CharResult HomReport c_characteristic characteristic "
                   "check_double_distributivity check_hom check_multigroup check_multiring"),
        ("finite", "FiniteMultistructure"),
        ("structures", "Structure get_structure"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def _submodule(name: str):
    """Import `hyperalg.<name>` through `__import__`, so that `-X importtime`
    logs it (Python 3.11 does not log `importlib.import_module`)."""
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)


class _Deferred:
    """A submodule bound in an importing module's globals before it is
    imported.  The first attribute read imports it through the import system
    and rebinds that global to the module itself, so every later read is a
    plain module-global lookup."""

    def __init__(self, namespace: dict, name: str):
        self._namespace = namespace
        self._name = name

    def __getattr__(self, attr: str):
        module = _submodule(self._name)
        self._namespace[self._name] = module
        return getattr(module, attr)
