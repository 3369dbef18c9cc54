"""Finite unions of closed real intervals (points are degenerate intervals).

Used for every R-like carrier: nonnegative reals, the real line, and the
tropical line R ∪ {-inf} where a down-set {x <= a} is the interval [-inf, a].

Canonical form is a contract: every operation builds its set under the library
tolerance DEFAULT_TOL and returns a fixed point of rset, which the predicates
(rset_eq, rsubset) take as is; a predicate may compare wider.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .tolerance import DEFAULT_TOL, NEG_INF, InvalidSetError, Tolerance, fmt_num


@dataclass(frozen=True, slots=True, init=False)
class RSet:
    """Sorted, pairwise-separated closed intervals (lo, hi); lo may be -inf."""

    intervals: tuple[tuple[float, float], ...]

    def __init__(self, intervals: tuple[tuple[float, float], ...]) -> None:
        if not intervals:
            raise InvalidSetError("real value set must be nonempty")
        object.__setattr__(self, "intervals", intervals)

    @property
    def lo(self) -> float:
        return self.intervals[0][0]

    @property
    def hi(self) -> float:
        return self.intervals[-1][1]


def rpoint(x: float) -> RSet:
    return RSet(((x, x),))


def rinterval(lo: float, hi: float) -> RSet:
    return rset([(lo, hi)])


def rset(pairs: list[tuple[float, float]]) -> RSet:
    eps = DEFAULT_TOL.eps
    if len(pairs) == 1:
        lo, hi = pairs[0]
        if lo <= hi:  # an inverted or NaN pair takes the full path
            return RSet(((lo, hi),))
    cleaned = []
    for lo, hi in pairs:
        if math.isnan(lo) or math.isnan(hi):
            raise InvalidSetError("interval endpoint is NaN")
        if lo > hi:
            if lo - hi <= eps:
                lo = hi = 0.5 * (lo + hi)
            else:
                raise InvalidSetError(f"inverted interval [{lo}, {hi}]")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[list[float]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1] + eps:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return RSet(tuple((lo, hi) for lo, hi in merged))


def rmember(x: float, s: RSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    for lo, hi in s.intervals:
        if (x >= lo - tol.eps or x == lo) and (x <= hi + tol.eps or x == hi):
            return True
    return False


def rset_eq(s1: RSet, s2: RSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    if len(s1.intervals) != len(s2.intervals):
        return False
    return all(
        tol.close(i[0], j[0]) and tol.close(i[1], j[1])
        for i, j in zip(s1.intervals, s2.intervals)
    )


def rsubset(s1: RSet, s2: RSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    for lo, hi in s1.intervals:
        if not any(
            (lo >= lo2 - tol.eps or lo == lo2) and (hi <= hi2 + tol.eps or hi == hi2)
            for lo2, hi2 in s2.intervals
        ):
            return False
    return True


_PICK_FLOOR = -40.0  # lowest finite sample of an unbounded-below interval


def rpick(s: RSet, rng, count: int = 4) -> list[float]:
    """Sample points from each interval; unbounded-below intervals sample down
    to _PICK_FLOOR plus the -inf endpoint itself."""
    pts: list[float] = []
    for lo, hi in s.intervals:
        if lo == NEG_INF:
            pts.append(NEG_INF)
            base = min(hi, 0.0)
            pts.extend([hi, base - 1.0, base - 5.0])
            for _ in range(count):
                pts.append(hi - abs(rng.uniform(0.0, base - _PICK_FLOOR)))
        else:
            pts.extend([lo, hi, 0.5 * (lo + hi)])
            for _ in range(count):
                pts.append(rng.uniform(lo, hi))
    return pts


def format_rset(s: RSet) -> str:
    out = []
    for lo, hi in s.intervals:
        if lo == hi:
            out.append(f"point {fmt_num(lo)}")
        else:
            out.append(f"interval [{fmt_num(lo)},{fmt_num(hi)}]")
    return " | ".join(out)
