"""Comparison policy for floating-point carriers.

Every operation compares moduli, angles and interval endpoints against the one
absolute library tolerance DEFAULT_TOL, so that the branch structure of the
multivalued additions (dominant / tie / antipodal) is deterministic.  The
membership and equality predicates take a Tolerance argument, so a checker may
compare with a wider one.

The module also holds the small numeric helpers that several carrier modules
share, so that none of them imports another carrier's module for one of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Absolute comparison width used for moduli, angles and endpoints."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if self.eps < 0.0 or math.isnan(self.eps):
            raise ValueError(f"tolerance must be nonnegative, got {self.eps}")

    def close(self, x: float, y: float) -> bool:
        if x == y:  # covers matching infinities
            return True
        d = x - y
        return abs(d) <= self.eps if d == d else False

    def angle_close(self, a: float, b: float) -> bool:
        return circ_dist(a, b) <= self.eps


DEFAULT_TOL = Tolerance()


def wrap_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    th = math.fmod(theta, TWO_PI)
    if th < 0.0:
        th += TWO_PI
    if th >= TWO_PI:  # fmod rounding at the seam
        th -= TWO_PI
    return th


def circ_dist(a: float, b: float) -> float:
    """Shortest angular distance between two angles, in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)


def fmt_num(x: float) -> str:
    """Canonical text for a real number, stable for golden-file tests."""
    if x == NEG_INF:
        return "-inf"
    if x == math.inf:
        return "inf"
    s = f"{x:.10f}".rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


def is_prime(p: int) -> bool:
    """Primality by trial division; the p-adic carriers and the powers
    quotients take small primes only."""
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))
