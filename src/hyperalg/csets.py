"""Symbolic subsets of the complex plane used as multivalued sums.

Every set that arises from the tropical additions over C is one component: a
single point, an arc of a circle centred at the origin (traversed
counterclockwise; a sum's arc is shorter than pi, a product's shorter than
2*pi), a closed disk centred at the origin, or the whole carrier of the phase
hyperfield, the unit circle with 0: the field-less CUnion, built once as
PHASE_ALL.

Canonical form is a contract: every operation builds its set under the library
tolerance DEFAULT_TOL and returns a fixed point of normalize_parts, which the
predicates and set-extended sums take as is; a predicate may compare wider.

A component is canonical from its constructor on.  ComplexElem, CArc and
CDisk validate their fields, rejecting NaN and infinity, and set each one
once: a modulus or radius as a float, the argument of 0 as 0, and an argument
or arc start in [0, 2*pi), wrapped only when it lies outside.  So a point, an
arc or a disk of radius above eps is already a fixed point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .tolerance import (
    DEFAULT_TOL, TWO_PI, InvalidSetError, RepresentationClosureError, Tolerance, circ_dist, fmt_num,
    wrap_angle,
)


class CarrierMismatchError(TypeError):
    """Operands belong to different carriers."""


# ---------------------------------------------------------------------------
# carrier elements


def _wrap_finite(theta: float, what: str) -> float:
    """wrap_angle(theta), or InvalidSetError for a NaN or an infinity.  The
    constructors call it only on an angle outside [0, 2*pi), where those fall."""
    if not math.isfinite(theta):
        raise InvalidSetError(f"{what} must be finite, got {theta}")
    return wrap_angle(theta)


@dataclass(frozen=True, slots=True, init=False)
class ComplexElem:
    """A complex number in polar form; zero is canonically 0∠0."""

    modulus: float
    argument: float

    def __init__(self, modulus: float, argument: float) -> None:
        m = float(modulus)
        if not 0.0 <= m < math.inf:  # also rejects NaN
            raise InvalidSetError(f"modulus must be finite and nonnegative, got {m}")
        if m == 0.0:
            a = 0.0
        else:
            a = float(argument)
            if not 0.0 <= a < TWO_PI:  # wrap_angle returns such an angle as is
                a = _wrap_finite(a, "argument")
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "argument", a)

    @classmethod
    def from_xy(cls, x: float, y: float) -> "ComplexElem":
        return cls(math.hypot(x, y), math.atan2(y, x))

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexElem":
        return cls.from_xy(z.real, z.imag)

    @property
    def re(self) -> float:
        return self.modulus * math.cos(self.argument)

    @property
    def im(self) -> float:
        return self.modulus * math.sin(self.argument)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def __neg__(self) -> "ComplexElem":
        return ComplexElem(self.modulus, self.argument + math.pi)

    def times(self, other: "ComplexElem") -> "ComplexElem":
        return ComplexElem(self.modulus * other.modulus, self.argument + other.argument)

    def inv(self) -> "ComplexElem":
        if self.modulus == 0.0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return ComplexElem(1.0 / self.modulus, -self.argument)

    def eq(self, other: "ComplexElem", tol: Tolerance = DEFAULT_TOL) -> bool:
        if not tol.close(self.modulus, other.modulus):
            return False
        if min(self.modulus, other.modulus) <= tol.eps:
            return True
        return tol.angle_close(self.argument, other.argument)


CZERO = ComplexElem(0.0, 0.0)
CONE = ComplexElem(1.0, 0.0)


# ---------------------------------------------------------------------------
# set components


@dataclass(frozen=True, slots=True)
class CPoint:
    elem: ComplexElem


@dataclass(frozen=True, slots=True, init=False)
class CArc:
    """Arc of the circle |z| = radius from `start`, counterclockwise by `sweep`."""

    radius: float
    start: float
    sweep: float

    def __init__(self, radius: float, start: float, sweep: float) -> None:
        r = float(radius)
        if not 0.0 < r < math.inf:  # also rejects NaN
            raise InvalidSetError(f"arc radius must be finite and positive, got {r}")
        sw = float(sweep)
        if not 0.0 < sw < TWO_PI:
            raise InvalidSetError(f"arc sweep must lie in (0, 2*pi), got {sw}")
        start = float(start)
        if not 0.0 <= start < TWO_PI:
            start = _wrap_finite(start, "arc start")
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "sweep", sw)

    def contains_angle(self, theta: float, eps: float) -> bool:
        off = wrap_angle(theta - self.start)
        return off <= self.sweep + eps or off >= TWO_PI - eps


@dataclass(frozen=True, slots=True)
class CDisk:
    """Closed disk |z| <= radius centred at the origin."""

    radius: float

    def __post_init__(self) -> None:
        r = float(self.radius)
        if not 0.0 <= r < math.inf:  # also rejects NaN
            raise InvalidSetError(f"disk radius must be finite and nonnegative, got {r}")
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True, slots=True)
class CUnion:
    """The unit circle with 0, the whole carrier of the phase hyperfield."""


CSet = CPoint | CArc | CDisk | CUnion


PHASE_ALL = CUnion()


# the parts helper of normalize_parts that perfbench/tracer.py reads
def parts_of(s: CSet) -> list:
    return [s]


# ---------------------------------------------------------------------------
# normalization


def normalize_parts(parts: list) -> CSet:
    """The one component of `parts`, where a disk of radius at most eps is the
    point 0: every complex sum is one point, arc or disk."""
    if len(parts) != 1:
        raise RepresentationClosureError(f"a complex value set is one component, not {len(parts)}")
    c = parts[0]
    if isinstance(c, CDisk) and c.radius <= DEFAULT_TOL.eps:
        return CPoint(CZERO)
    return c


# ---------------------------------------------------------------------------
# membership / equality / containment


def member(x: ComplexElem, s: CSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    if not isinstance(x, ComplexElem):
        raise CarrierMismatchError(f"expected ComplexElem, got {type(x).__name__}")
    if isinstance(s, CPoint):
        return x.eq(s.elem, tol)
    if isinstance(s, CDisk):
        return x.modulus <= s.radius + tol.eps
    if isinstance(s, CUnion):
        return x.modulus <= tol.eps or abs(x.modulus - 1.0) <= tol.eps
    return abs(x.modulus - s.radius) <= tol.eps and s.contains_angle(x.argument, tol.eps)


def set_eq(s1: CSet, s2: CSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    if isinstance(s1, CDisk) and isinstance(s2, CDisk):
        return tol.close(s1.radius, s2.radius)
    if isinstance(s1, CArc) and isinstance(s2, CArc):
        if not tol.close(s1.radius, s2.radius):
            return False
        return circ_dist(s1.start, s2.start) <= tol.eps and abs(s1.sweep - s2.sweep) <= 2 * tol.eps
    if isinstance(s1, CPoint) and isinstance(s2, CPoint):
        return s1.elem.eq(s2.elem, tol)
    return isinstance(s1, CUnion) and isinstance(s2, CUnion)


def subset(s1: CSet, s2: CSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Containment of canonical symbolic sets."""
    eps = tol.eps
    if isinstance(s1, CUnion):
        return isinstance(s2, CUnion) or isinstance(s2, CDisk) and 1.0 <= s2.radius + eps
    if isinstance(s2, CDisk):
        top = s1.elem.modulus if isinstance(s1, CPoint) else s1.radius
        return top <= s2.radius + eps
    if isinstance(s1, CPoint):
        return member(s1.elem, s2, tol)
    if isinstance(s2, CUnion):
        return isinstance(s1, CArc) and tol.close(s1.radius, 1.0)
    if not (isinstance(s1, CArc) and isinstance(s2, CArc) and tol.close(s1.radius, s2.radius)):
        return False
    off = wrap_angle(s1.start - s2.start)
    if off >= TWO_PI - eps:  # starts within eps before s2
        off = 0.0
    return s2.contains_angle(s1.start, eps) and off + s1.sweep <= s2.sweep + 2 * eps


def pick(s: CSet, rng, count: int = 4) -> list[ComplexElem]:
    """Deterministic-in-rng sample of carrier points from a value set.

    Includes the distinguished points of the set (endpoints, centre) so that
    boundary cases are always exercised.
    """
    if isinstance(s, CPoint):
        return [s.elem]
    if isinstance(s, CUnion):
        return [CONE, ComplexElem(1.0, math.pi)] + [
            ComplexElem(1.0, rng.uniform(0.0, TWO_PI)) for _ in range(count)
        ] + [CZERO]
    if isinstance(s, CDisk):
        return [CZERO, ComplexElem(s.radius, rng.uniform(0.0, TWO_PI))] + [
            ComplexElem(s.radius * rng.random(), rng.uniform(0.0, TWO_PI)) for _ in range(count)
        ]
    return [
        ComplexElem(s.radius, s.start),
        ComplexElem(s.radius, s.start + s.sweep),
        ComplexElem(s.radius, s.start + 0.5 * s.sweep),
    ] + [ComplexElem(s.radius, s.start + rng.uniform(0.0, s.sweep)) for _ in range(count)]


# ---------------------------------------------------------------------------
# text forms


def format_celem(e: ComplexElem) -> str:
    return f"{fmt_num(e.modulus)}∠{fmt_num(e.argument)}"


def format_cset(s: CSet) -> str:
    if isinstance(s, CPoint):
        return f"point {format_celem(s.elem)}"
    if isinstance(s, CDisk):
        return f"disk r={fmt_num(s.radius)}"
    if isinstance(s, CUnion):
        return "circle r=1 | point 0∠0"
    return f"arc r={fmt_num(s.radius)} from={fmt_num(s.start)} sweep={fmt_num(s.sweep)}"


def parse_celem(text: str) -> ComplexElem:
    """Parse `m∠θ`, ASCII `m@θ`, cartesian `x+yi` or plain real forms; the
    modulus and the argument must be finite."""
    t = text.strip()
    try:
        for sep in ("∠", "@"):
            if sep in t:
                m_s, a_s = t.split(sep, 1)
                m, a = float(m_s), float(a_s)
                break
        else:
            z = complex(t.replace(" ", "").replace("i", "j")) if "i" in t or "j" in t else float(t)
            m, a = math.hypot(z.real, z.imag), math.atan2(z.imag, z.real)
    except ValueError as exc:
        raise InvalidSetError(f"cannot parse complex literal {text!r}") from exc
    if not (math.isfinite(m) and math.isfinite(a)):
        raise InvalidSetError(f"complex literal {text!r} is not finite")
    return ComplexElem(m, a)
