"""Comparison policy for floating-point carriers.

Every operation compares moduli, angles and interval endpoints against the one
absolute library tolerance DEFAULT_TOL, so that the branch structure of the
multivalued additions (dominant / tie / antipodal) is deterministic; every
addition decides dominant or tie by Tolerance.order alone.  The membership and
equality predicates take a Tolerance argument, so a checker may compare with a
wider one.

The module also holds what the value-set families (csets, rsets, qsets and
exotic) share: the errors they raise and small numeric helpers.  So no
family imports another family's module, and a command on one carrier
compiles only that family.
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

    def order(self, x, y) -> int:
        """The sign of x - y, 0 within eps: the one dominant-or-tie decision
        of two sizes.  Exact for int and Fraction; equal infinities tie."""
        d = x - y
        if d > self.eps:
            return 1
        if d < -self.eps:
            return -1
        return 0 if d == 0 or isinstance(d, float) else (d > 0) - (d < 0)

    def close(self, x: float, y: float) -> bool:
        if x == y:  # covers matching infinities
            return True
        d = x - y
        return abs(d) <= self.eps if d == d else False

    def angle_close(self, a: float, b: float) -> bool:
        return circ_dist(a, b) <= self.eps


DEFAULT_TOL = Tolerance()


class InvalidSetError(ValueError):
    """A value-set component is malformed (e.g. an arc of zero radius)."""


def beyond_floats(what: str) -> InvalidSetError:
    """The error for `what`, a sum or product of finite operands that is
    infinite (math.isinf) because it left the float range."""
    return InvalidSetError(f"{what} leaves the float range")


class RepresentationClosureError(RuntimeError):
    """A set-extended operation produced a set outside the symbolic vocabulary."""


def point_last(s1, s2, point: type) -> tuple:
    """The operands of a set sum with a point second; a set sum adds a point,
    as in (a + b) + c, so two non-point sets have no closed form."""
    if not isinstance(s2, point):
        s1, s2 = s2, s1
        if not isinstance(s2, point):
            raise RepresentationClosureError(
                f"set sum {type(s2).__name__} + {type(s1).__name__} adds no point"
            )
    return s1, s2


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
    """Canonical text for a real number, stable for golden-file tests.

    A number of magnitude 1e15 or more prints with 10 significant digits in
    exponent form (`1e+154`, and `inf` or `-inf` for an infinity); any other
    prints with 10 decimals, trailing zeros dropped, so float noise such as
    6e-17 prints as 0."""
    if abs(x) >= 1e15:
        return f"{x:.10g}"
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
