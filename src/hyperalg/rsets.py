"""One closed real interval (a point is a degenerate interval).

Used for every R-like carrier: nonnegative reals, the real line, and the
tropical line R ∪ {-inf} where a down-set {x <= a} is the interval [-inf, a].
Every addition of these carriers gives a point or one interval, and set sums
and products of intervals stay one interval, so a value set is one component.

Canonical form is a contract: every operation builds its set under the library
tolerance DEFAULT_TOL and returns a fixed point of rset, which the predicates
(rset_eq, rsubset) take as is; a predicate may compare wider.
"""
from __future__ import annotations

from dataclasses import dataclass

from .tolerance import DEFAULT_TOL, NEG_INF, InvalidSetError, Tolerance, fmt_num


@dataclass(frozen=True, slots=True, init=False)
class RSet:
    """One closed interval (lo, hi), held as a one-pair tuple; lo may be -inf."""

    intervals: tuple[tuple[float, float]]

    def __init__(self, intervals: tuple[tuple[float, float]]) -> None:
        if len(intervals) != 1:
            raise InvalidSetError(f"real value set is one interval, got {len(intervals)}")
        object.__setattr__(self, "intervals", intervals)

    @property
    def lo(self) -> float:
        return self.intervals[0][0]

    @property
    def hi(self) -> float:
        return self.intervals[0][1]


def rpoint(x: float) -> RSet:
    return RSet(((x, x),))


def rinterval(lo: float, hi: float) -> RSet:
    return rset([(lo, hi)])


def rset(pairs: list[tuple[float, float]]) -> RSet:
    """The set of one (lo, hi) pair with lo <= hi: every closed form of an
    interval sum or product rounds monotonically, so none inverts a pair."""
    if len(pairs) != 1:
        raise InvalidSetError(f"real value set is one interval, got {len(pairs)}")
    lo, hi = pairs[0]
    if not lo <= hi:  # also rejects NaN
        raise InvalidSetError(f"inverted or NaN interval [{lo}, {hi}]")
    return RSet(((lo, hi),))


def rmember(x: float, s: RSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    lo, hi = s.intervals[0]
    return lo - tol.eps <= x <= hi + tol.eps


def rset_eq(s1: RSet, s2: RSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
    return tol.close(lo1, lo2) and tol.close(hi1, hi2)


def rsubset(s1: RSet, s2: RSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
    return lo1 >= lo2 - tol.eps and hi1 <= hi2 + tol.eps


_PICK_FLOOR = -40.0  # lowest finite sample of an unbounded-below interval


def rpick(s: RSet, rng, count: int = 4) -> list[float]:
    """Sample points of the interval; an unbounded-below interval samples down
    to _PICK_FLOOR plus the -inf endpoint itself."""
    lo, hi = s.intervals[0]
    if lo == NEG_INF:
        base = min(hi, 0.0)
        pts = [NEG_INF, hi, base - 1.0, base - 5.0]
        pts.extend(hi - abs(rng.uniform(0.0, base - _PICK_FLOOR)) for _ in range(count))
    else:
        pts = [lo, hi, 0.5 * (lo + hi)]
        pts.extend(rng.uniform(lo, hi) for _ in range(count))
    return pts


def format_rset(s: RSet) -> str:
    lo, hi = s.intervals[0]
    if lo == hi:
        return f"point {fmt_num(lo)}"
    return f"interval [{fmt_num(lo)},{fmt_num(hi)}]"
