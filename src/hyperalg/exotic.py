"""Tropical additions on monomials and on truncated p-adic numbers.

Both carriers come from a field with a non-Archimedean valuation, so they share
one cone value-set algebra, keyed on each element's value: a monomial's
exponent, or minus a p-adic number's leading exponent.  The larger value
dominates a sum, and a cancellation gives the open cone of every element of
strictly smaller value, together with 0.  Monomials a*t^r add coefficients on a
tie; exponents may be restricted to rationals or integers.  A p-adic number
p^e * unit keeps its unit modulo p^L for a fixed digit depth L, and two add
their units on a tie unless the leading digits sum to p; any classical
operation whose answer depends on digits beyond the truncation returns the
Indeterminate marker rather than a wrong value.

A value set is one component: a point (VPoint) or the cone of one family
(MCone, PCone).  A set sum adds a point to a component, and a product
multiplies two components; either gives one component, and mnormalize and
pnormalize, which every set sum and product goes through, reject anything
else.  Every operation builds its set under the library tolerance
DEFAULT_TOL, and every comparison of two values goes through its order; a
predicate may compare real-exponent monomials wider, while int and rational
exponents and p-adic values compare exactly under any tolerance.
"""
from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .tolerance import (
    DEFAULT_TOL, InvalidSetError, RepresentationClosureError, Tolerance, fmt_num,
    point_last,
)


# ---------------------------------------------------------------------------
# the shared cone algebra: an element has a `value` (None for 0, which lies
# below every value) and `eq`; a cone (MCone, PCone) has a `value` and `times`


@dataclass(frozen=True, slots=True)
class VPoint:
    elem: MonomialElem | PadicElem


def parts_of(s) -> list:
    return [s]


# the per-family names of parts_of that perfbench/tracer.py reads
mparts_of = pparts_of = parts_of


def _below(value, bound, tol: Tolerance) -> bool:
    """Does an element of this value lie in the open cone below `bound`?"""
    return value is None or tol.order(value, bound) < 0


def _same(x, y, tol: Tolerance) -> bool:
    """Monomials compare within tol; p-adic numbers are exact."""
    return x.eq(y, tol) if isinstance(x, MonomialElem) else x.eq(y)


def _only(parts: list):
    """The one component of a valued set sum or product."""
    if len(parts) != 1:
        raise RepresentationClosureError(f"valued set of {len(parts)} components")
    return parts[0]


def member(x, s, tol: Tolerance = DEFAULT_TOL) -> bool:
    if isinstance(s, VPoint):
        return _same(x, s.elem, tol)
    return _below(x.value, s.value, tol)


def subset(s1, s2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """A point of s1 is a member of s2; a cone of s1 lies in a cone of s2 of
    no smaller value."""
    if isinstance(s1, VPoint):
        return member(s1.elem, s2, tol)
    return not isinstance(s2, VPoint) and tol.order(s1.value, s2.value) <= 0


def set_eq(s1, s2, tol: Tolerance = DEFAULT_TOL) -> bool:
    if isinstance(s1, VPoint):
        return isinstance(s2, VPoint) and _same(s1.elem, s2.elem, tol)
    return not isinstance(s2, VPoint) and tol.order(s1.value, s2.value) == 0


def _add_comps(c1, c2, add):
    """A component plus a point, on either side, given the family's addition
    of two elements."""
    c1, c2 = point_last(c1, c2, VPoint)
    if isinstance(c1, VPoint):
        return add(c1.elem, c2.elem)
    # the cone absorbs a point below it; a point at or above it dominates
    return c1 if _below(c2.elem.value, c1.value, DEFAULT_TOL) else c2


def _mul_comps(c1, c2, mul, step):
    """The product of two components, given the family's product of two
    elements; two cones multiply to the cone `step` below the sum of their
    values."""
    if isinstance(c1, VPoint) and not isinstance(c2, VPoint):  # commutative
        c1, c2 = c2, c1
    if isinstance(c1, VPoint):
        return VPoint(mul(c1.elem, c2.elem))
    if not isinstance(c2, VPoint):
        return c1.times(c2, step)
    if c2.elem.value is None:  # 0 times a cone
        return c2
    return c1.times(c2.elem)


def format_set(s, format_elem) -> str:
    return f"point {format_elem(s.elem)}" if isinstance(s, VPoint) else str(s)


# ---------------------------------------------------------------------------
# monomials


@dataclass(frozen=True, slots=True)
class MonomialElem:
    """Monomial coeff*t^exponent; the zero element is flagged."""

    coeff: complex
    exponent: float | Fraction | int
    zero: bool = False

    def __post_init__(self) -> None:
        if self.zero:
            object.__setattr__(self, "coeff", 0j)
            object.__setattr__(self, "exponent", 0)
        elif self.coeff == 0:
            raise InvalidSetError("nonzero monomial needs a nonzero coefficient")
        elif not cmath.isfinite(self.coeff):
            raise InvalidSetError(f"monomial coefficient {self.coeff} is not finite")

    @property
    def value(self) -> float | Fraction | int | None:
        return None if self.zero else self.exponent

    def eq(self, other: "MonomialElem", tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.zero or other.zero:
            return self.zero and other.zero
        return (
            tol.order(self.exponent, other.exponent) == 0
            and abs(self.coeff - other.coeff) <= tol.eps * max(1.0, abs(self.coeff))
        )


MZERO = MonomialElem(0j, 0, zero=True)
MONE = MonomialElem(1 + 0j, 0)


@dataclass(frozen=True, slots=True)
class MCone:
    """All monomials with exponent strictly below `bound`, together with 0."""

    bound: float | Fraction | int

    @property
    def value(self) -> float | Fraction | int:
        return self.bound

    def times(self, other: MonomialElem | MCone, step=0) -> MCone:
        """The product with a nonzero monomial, or with a cone lowered by `step`."""
        e = other.bound if isinstance(other, MCone) else other.exponent
        return MCone(self.bound + e - step)

    def __str__(self) -> str:
        return f"below t^{_format_exponent(self.bound)}"


MSet = VPoint | MCone


def mnormalize(parts: list) -> MSet:
    """The one component of a monomial set sum or product."""
    return _only(parts)


def random_coeff(rng) -> complex:
    """A random nonzero monomial coefficient."""
    return complex(rng.gauss(0.0, 1.0) or 1.0, rng.gauss(0.0, 1.0))


def mpick(s: MSet, rng, domain: str = "real") -> list:
    """Sample points of s: the point, or for a cone 0 plus monomials at three
    exponents of the domain strictly below its bound."""
    if isinstance(s, VPoint):
        return [s.elem]
    pts = [MZERO]
    for step in (1, 2, 4):
        if domain == "int":
            e: float | Fraction | int = math.floor(s.bound) - step
        elif domain == "rational":
            e = Fraction(s.bound) - Fraction(step, 2)
        else:
            e = float(s.bound) - 0.5 * step
        pts.append(MonomialElem(random_coeff(rng), e))
    return pts


def mono_add(a: MonomialElem, b: MonomialElem, tol: Tolerance = DEFAULT_TOL) -> MSet:
    if a.zero:
        return VPoint(b)
    if b.zero:
        return VPoint(a)
    order = tol.order(a.exponent, b.exponent)
    if order:
        return VPoint(a if order > 0 else b)
    c = a.coeff + b.coeff
    if abs(c) <= tol.eps * max(abs(a.coeff), abs(b.coeff)):
        return MCone(a.exponent)
    return VPoint(MonomialElem(c, a.exponent))


def mono_mul(a: MonomialElem, b: MonomialElem) -> MonomialElem:
    if a.zero or b.zero:
        return MZERO
    e = a.exponent + b.exponent
    if not abs(e) <= sys.float_info.max:  # also rejects a float overflow to inf
        raise InvalidSetError(f"monomial product exponent {e} leaves the float range")
    return MonomialElem(a.coeff * b.coeff, e)


def mono_inv(a: MonomialElem) -> MonomialElem:
    if a.zero:
        raise ZeroDivisionError("zero monomial has no inverse")
    return MonomialElem(1.0 / a.coeff, -a.exponent)


def mono_neg(a: MonomialElem) -> MonomialElem:
    if a.zero:
        return a
    return MonomialElem(-a.coeff, a.exponent)


def mono_add_sets(s1: MSet, s2: MSet) -> MSet:
    return mnormalize([_add_comps(s1, s2, mono_add)])


def mono_mul_sets(s1: MSet, s2: MSet, domain: str = "real") -> MSet:
    """Pointwise product.  Two int-domain cones multiply to `below t^(b1+b2-1)`:
    their exponents are at most b1-1 and b2-1."""
    return mnormalize([_mul_comps(s1, s2, mono_mul, 1 if domain == "int" else 0)])


def format_monomial(a: MonomialElem) -> str:
    if a.zero:
        return "0"
    c = a.coeff
    if c.imag == 0:
        cs = fmt_num(c.real)
    else:
        cs = f"({fmt_num(c.real)}{'+' if c.imag >= 0 else '-'}{fmt_num(abs(c.imag))}i)"
    return f"{cs}t^{_format_exponent(a.exponent)}"


def _format_exponent(e) -> str:
    """An int or Fraction exponent prints exactly, as `n` or `n/d` (which
    parse_monomial reads back); a float exponent prints by fmt_num."""
    return fmt_num(e) if isinstance(e, float) else str(e)


_MONO_RE = re.compile(r"^\s*(?P<coeff>.*?)\s*t\^(?P<exp>[-+0-9./eE]+)\s*$")


def parse_monomial(text: str, domain: str = "real") -> MonomialElem:
    t = text.strip()
    if t == "0":
        return MZERO
    m = _MONO_RE.match(t)
    if not m:
        raise InvalidSetError(f"cannot parse monomial {text!r}")
    cs = m.group("coeff").strip() or "1"
    if cs.startswith("(") and cs.endswith(")"):
        cs = cs[1:-1]
    try:
        coeff = complex(cs.replace(" ", "").replace("i", "j"))
    except ValueError:
        from .csets import parse_celem

        coeff = parse_celem(cs).as_complex()
    es = m.group("exp")
    try:
        if domain == "int":
            exp: float | Fraction | int = int(es)
        elif domain == "rational":
            exp = Fraction(es)
        else:
            exp = float(es)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidSetError(f"cannot parse {domain} exponent {es!r} in {text!r}") from exc
    try:
        finite = math.isfinite(exp)
    except OverflowError:  # an int or Fraction beyond the float range
        finite = False
    if not finite:
        raise InvalidSetError(f"{domain} exponent {es!r} in {text!r} is not finite")
    return MonomialElem(coeff, exp)


# ---------------------------------------------------------------------------
# p-adic numbers (truncated)


class Indeterminate:
    """Marker: the answer depends on digits beyond the truncation depth."""


INDETERMINATE = Indeterminate()


@dataclass(frozen=True, slots=True, init=False)
class PadicElem:
    """Truncated p-adic number p**e * unit, the unit known modulo p**depth:
    p does not divide it and 0 < unit < p**depth.

    The norm is p**(-e): smaller leading exponents mean larger norm.  The zero
    element has unit 0, exponent 0 and depth 0.
    """

    p: int
    e: int
    unit: int
    depth: int

    def __init__(self, p: int, e: int, unit: int, depth: int) -> None:
        if p < 2:
            raise InvalidSetError(f"prime must be >= 2, got {p}")
        if unit:
            if unit % p == 0:
                raise InvalidSetError("leading p-adic digit must be nonzero")
            if not 0 < unit < p**depth:
                raise InvalidSetError(f"p-adic unit {unit} out of range for depth {depth}")
        else:
            e = depth = 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "depth", depth)

    @property
    def is_zero(self) -> bool:
        return not self.unit

    @property
    def digits(self) -> tuple[int, ...]:
        """The `depth` base-p digits of the unit, least significant first."""
        n, digits = self.unit, []
        for _ in range(self.depth):
            n, d = divmod(n, self.p)
            digits.append(d)
        return tuple(digits)

    @property
    def value(self) -> int | None:
        return None if self.is_zero else -self.e

    def norm(self) -> float:
        if self.is_zero:
            return 0.0
        return float(self.p) ** (-self.e)

    def eq(self, other: "PadicElem") -> bool:
        return self == other


def padic_zero(p: int) -> PadicElem:
    return PadicElem(p, 0, 0, 0)


def padic_one(p: int, depth: int) -> PadicElem:
    return PadicElem(p, 0, 1, depth)


def padic_from_digits(p: int, e: int, digits: list[int], depth: int) -> PadicElem:
    """The number sum(d * p**(e+k)) of base-p digits, least significant first,
    kept to `depth` digits from its leading nonzero one."""
    n = sum(d * p**k for k, d in enumerate(digits))
    if not n:
        return padic_zero(p)
    n, k = _strip_p(n, p, math.inf)
    return PadicElem(p, e + k, n % p**depth, depth)


def padic_neg(a: PadicElem) -> PadicElem:
    if a.is_zero:
        return a
    return PadicElem(a.p, a.e, -a.unit % a.p**a.depth, a.depth)


def padic_classical_add(a: PadicElem, b: PadicElem):
    """Ordinary p-adic addition of truncated series.

    Returns Indeterminate when every representable digit cancels, since the
    true leading term then lies beyond the truncation.
    """
    if a.p != b.p:
        raise ValueError("p-adic operands over different primes")
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    p = a.p
    e0 = min(a.e, b.e)
    size = min(a.e + a.depth, b.e + b.depth) - e0  # digits are exact below e0 + size
    window = p**size
    n = (a.unit * pow(p, a.e - e0, window) + b.unit * pow(p, b.e - e0, window)) % window
    if not n:
        return INDETERMINATE
    n, k = _strip_p(n, p, size)
    return PadicElem(p, e0 + k, n, max(a.depth, b.depth))


@dataclass(frozen=True, slots=True)
class PCone:
    """All p-adic numbers of norm strictly below p**(-e), together with 0."""

    p: int
    e: int

    @property
    def value(self) -> int:
        return -self.e

    def times(self, other: PadicElem | PCone, step=0) -> PCone:
        """The product with a nonzero number, or with a cone lowered by `step`."""
        return PCone(self.p, self.e + other.e + step)

    def __str__(self) -> str:
        return f"below {self.p}^{-self.e}"


PSet = VPoint | PCone


def pnormalize(parts: list) -> PSet:
    """The one component of a p-adic set sum or product."""
    return _only(parts)


def random_unit(p: int, depth: int, rng) -> int:
    """A uniform random unit of `depth` base-p digits, from one draw: k below
    (p - 1)·p^(depth - 1) gives the unit digit 1 + k % (p - 1) and the higher
    digits k // (p - 1), a bijection onto the units below p^depth."""
    k = rng.randrange((p - 1) * p ** (depth - 1))
    return 1 + k % (p - 1) + p * (k // (p - 1))


def ppick(s: PSet, rng, depth: int) -> list:
    """Sample points of s: the point, or for a cone 0 plus two elements of
    strictly smaller norm with `depth` digits."""
    if isinstance(s, VPoint):
        return [s.elem]
    return [padic_zero(s.p)] + [
        PadicElem(s.p, s.e + delta, random_unit(s.p, depth, rng), depth) for delta in (1, 2)
    ]


def padic_add(a: PadicElem, b: PadicElem, tol: Tolerance = DEFAULT_TOL) -> PSet:
    if a.p != b.p:
        raise ValueError("p-adic operands over different primes")
    if a.is_zero:
        return VPoint(b)
    if b.is_zero:
        return VPoint(a)
    if a.e != b.e:
        return VPoint(a if a.e < b.e else b)  # smaller exponent = larger norm
    if (a.unit + b.unit) % a.p == 0:  # the leading digits sum to p
        return PCone(a.p, a.e)
    res = padic_classical_add(a, b)
    if res is INDETERMINATE:
        # leading digits do not cancel, so this cannot happen
        raise RepresentationClosureError("unexpected full cancellation")
    return VPoint(res)


def padic_mul(a: PadicElem, b: PadicElem) -> PadicElem:
    """Multiply the units modulo p**depth.  The leading digit is the nonzero
    product of the two leading digits modulo p."""
    if a.p != b.p:
        raise ValueError("p-adic operands over different primes")
    if a.is_zero or b.is_zero:
        return padic_zero(a.p)
    depth = max(a.depth, b.depth)
    return PadicElem(a.p, a.e + b.e, a.unit * b.unit % a.p**depth, depth)


def padic_inv(a: PadicElem) -> PadicElem:
    """Invert the unit modulo p**depth."""
    if a.is_zero:
        raise ZeroDivisionError("zero has no p-adic inverse")
    return PadicElem(a.p, -a.e, pow(a.unit, -1, a.p**a.depth), a.depth)


def padic_add_sets(s1: PSet, s2: PSet) -> PSet:
    return pnormalize([_add_comps(s1, s2, padic_add)])


def padic_mul_sets(s1: PSet, s2: PSet) -> PSet:
    """Pointwise product.  Two cones multiply to the cone one exponent deeper
    than the sum of theirs: their elements have exponents at least e1+1 and e2+1."""
    return pnormalize([_mul_comps(s1, s2, padic_mul, 1)])


def format_padic(a: PadicElem) -> str:
    if a.is_zero:
        return "0"
    terms = []
    for k, d in enumerate(a.digits):
        if d == 0:
            continue
        exp = a.e + k
        if exp == 0:
            terms.append(str(d))
        elif exp == 1:
            terms.append(f"{d}*{a.p}" if d != 1 else f"{a.p}")
        else:
            base = f"{a.p}^{exp}"
            terms.append(f"{d}*{base}" if d != 1 else base)
    return " + ".join(terms) if terms else "0"


_PADIC_TERM = re.compile(r"^\s*(?:(?P<d>\d+)\s*\*\s*)?(?P<p>\d+)(?:\^(?P<e>-?\d+))?\s*$")


def _strip_p(n: int, p: int, limit) -> tuple[int, int]:
    """(n // p**k, k) for the largest k <= limit with p**k dividing n, found in
    O(log k) divisions by p**(2**i) rather than k divisions by p; n = 0 gives
    k = limit."""
    if not n:
        return 0, limit
    powers = [p]  # p**(2**i), up to n and to the limit
    while powers[-1] ** 2 <= n and 1 << len(powers) <= limit:
        powers.append(powers[-1] ** 2)
    k = 0
    for i in reversed(range(len(powers))):
        q, r = divmod(n, powers[i])
        if not r and k + (1 << i) <= limit:
            n, k = q, k + (1 << i)
    return n, k


def parse_padic(text: str, p: int, depth: int) -> PadicElem:
    """Parse literals like `2 + 3*5 + 1*5^2` or `5^-1 * (1 + 2*5)`."""
    t = text.strip()
    if t in ("0", ""):
        return padic_zero(p)
    shift = 0
    m = re.match(r"^\s*(\d+)\^(-?\d+)\s*\*\s*\((.*)\)\s*$", t)
    if m:
        if int(m.group(1)) != p:
            raise InvalidSetError(f"literal base {m.group(1)} != structure prime {p}")
        shift = int(m.group(2))
        t = m.group(3)
    coeffs: dict[int, int] = {}
    for term in t.split("+"):
        tm = _PADIC_TERM.match(term)
        if not tm:
            raise InvalidSetError(f"cannot parse p-adic term {term!r}")
        base = int(tm.group("p"))
        e = int(tm.group("e") or 1)
        d = int(tm.group("d") or 1)
        if base != p:
            # a literal like `9` or `3^2` over a different base: fold its value
            if e < 0:
                raise InvalidSetError(f"cannot fold negative power of {base} into base {p}")
            coeffs[0] = coeffs.get(0, 0) + d * base**e
            continue
        coeffs[e] = coeffs.get(e, 0) + d
    # fold the terms into base-p digits, least significant first, keeping the
    # whole carry; stop after `depth` digits from the leading nonzero one
    terms = sorted(coeffs.items())
    digits: list[int] = []
    carry, e = 0, terms[0][0]
    while len(digits) < depth and (carry or terms):
        if terms and terms[0][0] == e:
            carry += terms.pop(0)[1]
        if not digits:  # skip the zero digits below the leading one, up to the next term
            gap = terms[0][0] - e if terms else math.inf
            carry, k = _strip_p(carry, p, gap)
            e += k
            if k == gap:
                continue
        carry, d = divmod(carry, p)
        if d or digits:
            digits.append(d)
        e += 1
    return padic_from_digits(p, e - len(digits) + shift, digits, depth)
