"""The four hyperfield additions on nonnegative / extended real carriers.

* triangle:       a ∔ b = [|a-b|, a+b] on R+, usual multiplication
* ultratriangle:  max for distinct arguments, the down-set [0, a] on a tie
* tropical:       ultratriangle transported along log to R ∪ {-inf},
                  multiplication becomes ordinary addition
* amoeba:         triangle transported along log

The max additions tie by DEFAULT_TOL.order.  The log transfers are computed
cancellation-safely and need no tie tolerance (log|e^x - e^y| is continuous
into -inf); -inf stands for log 0 and all arithmetic involving it is cased
explicitly.
"""
from __future__ import annotations

import itertools
import math
import operator

from . import _Deferred
from .rsets import RSet, rinterval, rmember, rpoint
from .tolerance import DEFAULT_TOL, NEG_INF, Tolerance, beyond_floats

axioms = _Deferred(globals(), "axioms")


def _require_nonneg(*vals: float) -> None:
    for v in vals:
        if v < 0.0 or math.isnan(v):
            raise ValueError(f"carrier is the nonnegative reals, got {v}")


def tri_add(a: float, b: float) -> RSet:
    """Side lengths c completing a (possibly degenerate) triangle with a, b."""
    _require_nonneg(a, b)
    hi = a + b
    if math.isinf(hi):
        raise beyond_floats(f"triangle sum {a:g} + {b:g}")
    return rinterval(abs(a - b), hi)


def tri_sum_n(values: list[float]) -> RSet:
    """Closed form of the iterated triangle sum: the polygon inequality."""
    if not values:
        raise ValueError("empty sum")
    _require_nonneg(*values)
    total = sum(values)
    lo = max(0.0, 2.0 * max(values) - total)
    return rinterval(lo, total)


def tri_add_sets(s1: RSet, s2: RSet) -> RSet:
    (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
    hi = hi1 + hi2
    if math.isinf(hi):
        raise beyond_floats(f"triangle set sum with upper end {hi1:g} + {hi2:g}")
    return RSet(((max(0.0, lo1 - hi2, lo2 - hi1), hi),))


def ultra_add(a: float, b: float) -> RSet:
    _require_nonneg(a, b)
    if DEFAULT_TOL.order(a, b):
        return rpoint(max(a, b))
    return rinterval(0.0, max(a, b))


def _max_add_sets(s1: RSet, s2: RSet, floor: float) -> RSet:
    """Set sum for a max addition whose tie gives the down-set to `floor`."""
    (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
    m = max(hi1, hi2)
    # a point or a down-set each: apart, the larger dominates; touching, a
    # tie produces the down-set below the larger top
    if DEFAULT_TOL.order(lo1, hi2) > 0 or DEFAULT_TOL.order(lo2, hi1) > 0:
        return RSet(((m, m),))
    return RSet(((floor, m),))


def ultra_add_sets(s1: RSet, s2: RSet) -> RSet:
    return _max_add_sets(s1, s2, 0.0)


def trop_add(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> RSet:
    """Tropical sum on R ∪ {-inf}: max, or the down-set {x <= a} on a tie."""
    if a == NEG_INF and b == NEG_INF:
        return rpoint(NEG_INF)
    if a == NEG_INF:
        return rpoint(b)
    if b == NEG_INF:
        return rpoint(a)
    if tol.order(a, b):
        return rpoint(max(a, b))
    return rinterval(NEG_INF, max(a, b))


def trop_mul(a: float, b: float) -> float:
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    s = a + b
    if math.isinf(s):
        raise beyond_floats(f"tropical product {a:g} + {b:g}")
    return s


def trop_add_sets(s1: RSet, s2: RSet) -> RSet:
    return _max_add_sets(s1, s2, NEG_INF)


def _log_exp_diff(a: float, b: float) -> float:
    """log(e^a - e^b) for a > b, computed as a + log(1 - e^(b-a))."""
    return a + math.log(-math.expm1(b - a))


def _log_exp_sum(a: float, b: float) -> float:
    """log(e^a + e^b), safe for -inf arguments."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    m = max(a, b)
    return m + math.log1p(math.exp(-abs(a - b)))


def amoeba_add(a: float, b: float) -> RSet:
    """Triangle addition in log scale: [log|e^a - e^b|, log(e^a + e^b)]."""
    if a == NEG_INF and b == NEG_INF:
        return rpoint(NEG_INF)
    if a == NEG_INF:
        return rpoint(b)
    if b == NEG_INF:
        return rpoint(a)
    hi = _log_exp_sum(a, b)
    if a == b:  # log 0
        return rinterval(NEG_INF, hi)
    lo = _log_exp_diff(max(a, b), min(a, b))
    return rinterval(lo, hi)


def amoeba_add_sets(s1: RSet, s2: RSet) -> RSet:
    (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
    # the gap between the exp-images decides the lower endpoint
    if lo1 > hi2:
        lo = _log_exp_diff(lo1, hi2)
    elif lo2 > hi1:
        lo = _log_exp_diff(lo2, hi1)
    else:
        lo = NEG_INF
    return RSet(((lo, _log_exp_sum(hi1, hi2)),))


def check_seminorm(
    norm,
    sample: list,
    kind: str = "archimedean",
    add=operator.add,
    mul=operator.mul,
) -> axioms.AxiomReport:
    """Verify |x+y| lands in the triangle (resp. ultratriangle) sum of |x|, |y|
    and that |xy| = |x||y|, over all pairs from `sample`.

    For the non-archimedean kind the log-composed map is also checked as a
    containment into the tropical sum (the valuation check).  Each failing
    check carries the first pair that broke it.
    """
    if kind not in ("archimedean", "non-archimedean"):
        raise ValueError(f"unknown seminorm kind {kind!r}")
    target = tri_add if kind == "archimedean" else ultra_add
    checks = ("triangle", "multiplicative") + (("valuation",) if kind == "non-archimedean" else ())
    failed: dict = {}  # check -> its first failing pair
    for x, y in itertools.product(sample, repeat=2):
        nx, ny, nxy = norm(x), norm(y), norm(add(x, y))
        # comparisons scale with the operands, so widen the tolerance
        wide = Tolerance(max(DEFAULT_TOL.eps, DEFAULT_TOL.eps * max(nx, ny, 1.0) * 8))
        if not rmember(nxy, target(nx, ny), wide):
            failed.setdefault("triangle", (x, y))
        if not abs(norm(mul(x, y)) - nx * ny) <= wide.eps * max(1.0, nx * ny):
            failed.setdefault("multiplicative", (x, y))
        if kind == "non-archimedean" and not rmember(_log(nxy), trop_add(_log(nx), _log(ny)), wide):
            failed.setdefault("valuation", (x, y))
    rep = axioms.AxiomReport(structure=kind, tuples_checked=len(sample) ** 2)
    for check in checks:
        pair = failed.get(check)
        rep.add(check, pair is None, pair, "" if pair is None else repr(pair))
    return rep


def _log(x: float) -> float:
    return NEG_INF if x == 0.0 else math.log(x)
