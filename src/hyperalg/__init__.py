"""hyperalg: exact set-valued arithmetic for tropical hyperfields.

Multivalued additions over C, R, R+, H, monomials and p-adic numbers, with
generic multigroup/multiring/hyperfield axiom checking, finite quotient
constructions, homomorphism verification, and dequantization traces.
"""

from .tolerance import DEFAULT_TOL, NEG_INF, Tolerance
from .csets import (
    CArc,
    CDisk,
    CPoint,
    CSet,
    CUnion,
    ComplexElem,
    CZERO,
    CONE,
    InvalidSetError,
    RepresentationClosureError,
    member,
    set_eq,
    subset,
)
from .rsets import RSet, rinterval, rmember, rpoint, rset, rset_eq
from .qsets import QArc, QBall, QCone, QPoint, QSet, QuatElem
from .realhf import amoeba_add, tri_add, tri_sum_n, trop_add, ultra_add
from .ctrop import (
    ct_add,
    ct_add_sets,
    ct_mul_sets,
    ct_sum_n,
    phase_add,
    quat_add,
    rt_add,
)
from .axioms import (
    AxiomReport,
    CharResult,
    HomReport,
    Structure,
    c_characteristic,
    characteristic,
    check_double_distributivity,
    check_hom,
    check_multigroup,
    check_multiring,
)
from .finite import FiniteMultistructure
from .structures import get_structure

__version__ = "0.1.0"
