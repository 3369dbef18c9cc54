"""Tropical additions on monomials and on truncated p-adic numbers.

Monomials a*t^r carry a nonzero complex coefficient and a real exponent; the
sum is dominated by the larger exponent, adds coefficients on a tie, and
degenerates to the open cone of strictly smaller exponents (plus 0) on a
cancellation.  Exponents may be restricted to rationals or integers.

p-adic numbers are truncated to a fixed digit depth L; the multivalued sum is
dominated by the larger norm, is ordinary digit addition when the leading
digits do not sum to p, and is the open ball of strictly smaller norms when
they do.  Any classical operation whose answer depends on digits beyond the
truncation returns the Indeterminate marker rather than a wrong value.

Canonical form is a contract: every operation builds its set under the library
tolerance DEFAULT_TOL and returns a fixed point of mnormalize or pnormalize,
which the predicates and set-extended sums take as is; a monomial predicate may
compare wider, and p-adic arithmetic is exact.
"""
from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .csets import InvalidSetError, RepresentationClosureError, match_parts
from .tolerance import DEFAULT_TOL, Tolerance, fmt_num


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

    def eq(self, other: "MonomialElem", tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.zero or other.zero:
            return self.zero and other.zero
        return (
            abs(float(self.exponent) - float(other.exponent)) <= tol.eps
            and abs(self.coeff - other.coeff) <= tol.eps * max(1.0, abs(self.coeff))
        )


MZERO = MonomialElem(0j, 0, zero=True)
MONE = MonomialElem(1 + 0j, 0)


@dataclass(frozen=True, slots=True)
class MPoint:
    elem: MonomialElem


@dataclass(frozen=True, slots=True)
class MCone:
    """All monomials with exponent strictly below `bound`, together with 0."""

    bound: float | Fraction | int


@dataclass(frozen=True, slots=True)
class MUnion:
    parts: tuple


MSet = MPoint | MCone | MUnion


def mparts_of(s: MSet) -> list:
    return list(s.parts) if isinstance(s, MUnion) else [s]


def mnormalize(parts: list) -> MSet:
    flat: list = []
    for p in parts:
        flat.extend(mparts_of(p))
    if not flat:
        raise InvalidSetError("monomial value set must be nonempty")
    cones = [c for c in flat if isinstance(c, MCone)]
    bound = max((float(c.bound) for c in cones), default=None)
    out: list = []
    if cones:
        top = max(cones, key=lambda c: float(c.bound))
        out.append(top)
    kept: list[MonomialElem] = []
    for c in flat:
        if not isinstance(c, MPoint):
            continue
        e = c.elem
        if bound is not None and (e.zero or float(e.exponent) <= bound - DEFAULT_TOL.eps):
            continue
        if any(e.eq(k) for k in kept):
            continue
        kept.append(e)
    out.extend(
        MPoint(e)
        for e in sorted(kept, key=lambda e: (float(e.exponent), e.coeff.real, e.coeff.imag))
    )
    if len(out) == 1:
        return out[0]
    return MUnion(tuple(out))


def mmember(x: MonomialElem, s: MSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    for c in mparts_of(s):
        if isinstance(c, MPoint):
            if x.eq(c.elem, tol):
                return True
        else:
            if x.zero or float(x.exponent) < float(c.bound) + tol.eps:
                return True
    return False


def msubset(s1: MSet, s2: MSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    for c in mparts_of(s1):
        if isinstance(c, MPoint):
            if not mmember(c.elem, s2, tol):
                return False
        else:
            ok = any(
                isinstance(d, MCone) and float(c.bound) <= float(d.bound) + tol.eps
                for d in mparts_of(s2)
            )
            if not ok:
                return False
    return True


def random_coeff(rng) -> complex:
    """A random nonzero monomial coefficient."""
    return complex(rng.gauss(0.0, 1.0) or 1.0, rng.gauss(0.0, 1.0))


def mpick(s: MSet, rng, domain: str = "real") -> list:
    """Sample points of s: each point, and for a cone 0 plus monomials at three
    exponents of the domain strictly below its bound."""
    pts = []
    for c in mparts_of(s):
        if isinstance(c, MPoint):
            pts.append(c.elem)
            continue
        pts.append(MZERO)
        for step in (1, 2, 4):
            if domain == "int":
                e: float | Fraction | int = math.floor(float(c.bound)) - step
            elif domain == "rational":
                e = Fraction(c.bound) - Fraction(step, 2)
            else:
                e = float(c.bound) - 0.5 * step
            pts.append(MonomialElem(random_coeff(rng), e))
    return pts


def _mcomp_eq(c, d, tol: Tolerance) -> bool:
    if isinstance(c, MCone) and isinstance(d, MCone):
        return abs(float(c.bound) - float(d.bound)) <= tol.eps
    return isinstance(c, MPoint) and isinstance(d, MPoint) and c.elem.eq(d.elem, tol)


def mset_eq(s1: MSet, s2: MSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    return match_parts(mparts_of(s1), mparts_of(s2), _mcomp_eq, tol)


def mono_add(a: MonomialElem, b: MonomialElem, tol: Tolerance = DEFAULT_TOL) -> MSet:
    if a.zero:
        return MPoint(b)
    if b.zero:
        return MPoint(a)
    ra, rb = float(a.exponent), float(b.exponent)
    if abs(ra - rb) > tol.eps:
        return MPoint(a if ra > rb else b)
    c = a.coeff + b.coeff
    if abs(c) <= tol.eps * max(abs(a.coeff), abs(b.coeff)):
        return MCone(a.exponent)
    return MPoint(MonomialElem(c, a.exponent))


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


def _mcone_point(c: MCone, p: MonomialElem) -> list:
    if p.zero:
        return [c]
    e = float(p.exponent)
    b = float(c.bound)
    if e < b - DEFAULT_TOL.eps:
        return [c]
    return [MPoint(p)]


def mono_add_sets(s1: MSet, s2: MSet) -> MSet:
    out: list = []
    for c1 in mparts_of(s1):
        for c2 in mparts_of(s2):
            if isinstance(c1, MPoint) and isinstance(c2, MCone):  # commutative
                c1, c2 = c2, c1
            if isinstance(c1, MPoint):
                out.extend(mparts_of(mono_add(c1.elem, c2.elem)))
            elif isinstance(c2, MPoint):
                out.extend(_mcone_point(c1, c2.elem))
            else:
                out.append(MCone(max(c1.bound, c2.bound, key=float)))
    return mnormalize(out)


def mono_mul_sets(s1: MSet, s2: MSet, domain: str = "real") -> MSet:
    """Pointwise product.  Two int-domain cones multiply to `below t^(b1+b2-1)`:
    their exponents are at most b1-1 and b2-1."""
    out: list = []
    for c1 in mparts_of(s1):
        for c2 in mparts_of(s2):
            if isinstance(c1, MPoint) and isinstance(c2, MCone):  # commutative
                c1, c2 = c2, c1
            if isinstance(c1, MPoint):
                out.append(MPoint(mono_mul(c1.elem, c2.elem)))
            elif isinstance(c2, MPoint):
                if c2.elem.zero:
                    out.append(MPoint(MZERO))
                else:
                    out.append(MCone(c1.bound + c2.elem.exponent))
            else:
                bound = c1.bound + c2.bound
                out.append(MCone(bound - 1 if domain == "int" else bound))
    return mnormalize(out)


def format_monomial(a: MonomialElem) -> str:
    if a.zero:
        return "0"
    c = a.coeff
    if c.imag == 0:
        cs = fmt_num(c.real)
    else:
        cs = f"({fmt_num(c.real)}{'+' if c.imag >= 0 else '-'}{fmt_num(abs(c.imag))}i)"
    return f"{cs}t^{fmt_num(float(a.exponent))}"


def format_mset(s: MSet) -> str:
    out = []
    for c in mparts_of(s):
        if isinstance(c, MPoint):
            out.append(f"point {format_monomial(c.elem)}")
        else:
            out.append(f"below t^{fmt_num(float(c.bound))}")
    return " | ".join(out)


_MONO_RE = re.compile(r"^\s*(?P<coeff>.*?)\s*t\^(?P<exp>[-+0-9./]+)\s*$")


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
    if not cmath.isfinite(coeff):
        raise InvalidSetError(f"monomial coefficient must be finite: {text!r}")
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

    def __repr__(self) -> str:  # pragma: no cover
        return "Indeterminate"


INDETERMINATE = Indeterminate()


@dataclass(frozen=True, slots=True)
class PadicElem:
    """Truncated p-adic number: digits[k] multiplies p**(e+k); digits[0] != 0.

    The norm is p**(-e): smaller leading exponents mean larger norm.  The zero
    element has empty digits.
    """

    p: int
    e: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise InvalidSetError(f"prime must be >= 2, got {self.p}")
        if self.digits:
            if self.digits[0] == 0:
                raise InvalidSetError("leading p-adic digit must be nonzero")
            if any(not 0 <= d < self.p for d in self.digits):
                raise InvalidSetError("digit out of range")
        else:
            object.__setattr__(self, "e", 0)

    @property
    def is_zero(self) -> bool:
        return not self.digits

    @property
    def depth(self) -> int:
        return len(self.digits)

    def norm(self) -> float:
        if self.is_zero:
            return 0.0
        return float(self.p) ** (-self.e)

    def eq(self, other: "PadicElem") -> bool:
        return self.p == other.p and self.e == other.e and self.digits == other.digits


def padic_zero(p: int) -> PadicElem:
    return PadicElem(p, 0, ())


def padic_one(p: int, depth: int) -> PadicElem:
    return PadicElem(p, 0, (1,) + (0,) * (depth - 1))


def padic_from_digits(p: int, e: int, digits: list[int], depth: int) -> PadicElem:
    """Canonicalize raw digits: strip leading zeros, pad/cut to depth."""
    ds = list(digits)
    lead = 0
    while lead < len(ds) and ds[lead] == 0:
        lead += 1
    if lead == len(ds):
        return padic_zero(p)
    ds = ds[lead:]
    e = e + lead
    ds = (ds + [0] * depth)[:depth]
    return PadicElem(p, e, tuple(ds))


def padic_neg(a: PadicElem) -> PadicElem:
    if a.is_zero:
        return a
    p = a.p
    ds = [p - a.digits[0]] + [p - 1 - d for d in a.digits[1:]]
    return PadicElem(p, a.e, tuple(ds))


def _carry(acc: list[int], p: int) -> None:
    """Reduce digit sums to base-p digits in place, least significant first;
    the carry out of the last digit is dropped."""
    carry = 0
    for i, v in enumerate(acc):
        carry, acc[i] = divmod(v + carry, p)


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
    depth = max(a.depth, b.depth)
    e0 = min(a.e, b.e)
    top = min(a.e + a.depth, b.e + b.depth)  # digits are exact below this exponent
    size = top - e0
    acc = [0] * size
    for k, d in enumerate(a.digits):
        if a.e + k < top:
            acc[a.e + k - e0] += d
    for k, d in enumerate(b.digits):
        if b.e + k < top:
            acc[b.e + k - e0] += d
    _carry(acc, p)
    if all(d == 0 for d in acc):
        return INDETERMINATE
    return padic_from_digits(p, e0, acc, depth)


@dataclass(frozen=True, slots=True)
class PPoint:
    elem: PadicElem


@dataclass(frozen=True, slots=True)
class PCone:
    """All p-adic numbers of norm strictly below p**(-e), together with 0."""

    p: int
    e: int


@dataclass(frozen=True, slots=True)
class PUnion:
    parts: tuple


PSet = PPoint | PCone | PUnion


def pparts_of(s: PSet) -> list:
    return list(s.parts) if isinstance(s, PUnion) else [s]


def pnormalize(parts: list) -> PSet:
    flat: list = []
    for p in parts:
        flat.extend(pparts_of(p))
    if not flat:
        raise InvalidSetError("p-adic value set must be nonempty")
    cones = [c for c in flat if isinstance(c, PCone)]
    bound = min((c.e for c in cones), default=None)
    out: list = []
    if cones:
        out.append(PCone(cones[0].p, bound))
    kept: list[PadicElem] = []
    for c in flat:
        if not isinstance(c, PPoint):
            continue
        x = c.elem
        if bound is not None and (x.is_zero or x.e > bound):
            continue
        if any(x.eq(k) for k in kept):
            continue
        kept.append(x)
    out.extend(PPoint(x) for x in sorted(kept, key=lambda x: (x.e, x.digits)))
    if len(out) == 1:
        return out[0]
    return PUnion(tuple(out))


def pmember(x: PadicElem, s: PSet) -> bool:
    for c in pparts_of(s):
        if isinstance(c, PPoint):
            if x.eq(c.elem):
                return True
        else:
            if x.is_zero or x.e > c.e:
                return True
    return False


def psubset(s1: PSet, s2: PSet) -> bool:
    for c in pparts_of(s1):
        if isinstance(c, PPoint):
            if not pmember(c.elem, s2):
                return False
        else:
            if not any(isinstance(d, PCone) and d.e <= c.e for d in pparts_of(s2)):
                return False
    return True


def random_digits(p: int, depth: int, rng) -> tuple[int, ...]:
    """`depth` random base-p digits with a nonzero leading digit."""
    return (rng.randint(1, p - 1),) + tuple(rng.randint(0, p - 1) for _ in range(depth - 1))


def ppick(s: PSet, rng, depth: int) -> list:
    """Sample points of s: each point, and for a cone 0 plus two elements of
    strictly smaller norm with `depth` digits."""
    pts = []
    for c in pparts_of(s):
        if isinstance(c, PPoint):
            pts.append(c.elem)
            continue
        pts.append(padic_zero(c.p))
        for delta in (1, 2):
            pts.append(PadicElem(c.p, c.e + delta, random_digits(c.p, depth, rng)))
    return pts


def pset_eq(s1: PSet, s2: PSet) -> bool:
    """p-adic arithmetic is exact, so canonical sets are equal iff identical."""
    return s1 == s2


def padic_add(a: PadicElem, b: PadicElem, tol: Tolerance = DEFAULT_TOL) -> PSet:
    if a.p != b.p:
        raise ValueError("p-adic operands over different primes")
    if a.is_zero:
        return PPoint(b)
    if b.is_zero:
        return PPoint(a)
    if a.e != b.e:
        return PPoint(a if a.e < b.e else b)  # smaller exponent = larger norm
    if a.digits[0] + b.digits[0] == a.p:
        return PCone(a.p, a.e)
    res = padic_classical_add(a, b)
    if res is INDETERMINATE:
        # leading digits do not cancel, so this cannot happen
        raise RepresentationClosureError("unexpected full cancellation")
    return PPoint(res)


def padic_mul(a: PadicElem, b: PadicElem) -> PadicElem:
    if a.p != b.p:
        raise ValueError("p-adic operands over different primes")
    if a.is_zero or b.is_zero:
        return padic_zero(a.p)
    p = a.p
    depth = max(a.depth, b.depth)
    acc = [0] * depth
    for i, da in enumerate(a.digits):
        if da == 0:
            continue
        for j, db in enumerate(b.digits):
            if i + j < depth:
                acc[i + j] += da * db
    _carry(acc, p)
    return padic_from_digits(p, a.e + b.e, acc, depth)


def padic_inv(a: PadicElem) -> PadicElem:
    """Invert the unit part as an integer modulo p**depth."""
    if a.is_zero:
        raise ZeroDivisionError("zero has no p-adic inverse")
    p, depth = a.p, a.depth
    unit = sum(d * p**k for k, d in enumerate(a.digits))
    inv = pow(unit, -1, p**depth)
    digits = []
    for _ in range(depth):
        digits.append(inv % p)
        inv //= p
    return padic_from_digits(p, -a.e, digits, depth)


def padic_add_sets(s1: PSet, s2: PSet) -> PSet:
    out: list = []
    for c1 in pparts_of(s1):
        for c2 in pparts_of(s2):
            if isinstance(c1, PPoint) and isinstance(c2, PCone):  # commutative
                c1, c2 = c2, c1
            if isinstance(c1, PPoint):
                out.extend(pparts_of(padic_add(c1.elem, c2.elem)))
            elif isinstance(c2, PPoint):
                out.extend(_pcone_point(c1, c2.elem))
            else:
                out.append(PCone(c1.p, min(c1.e, c2.e)))
    return pnormalize(out)


def _pcone_point(c: PCone, x: PadicElem) -> list:
    if x.is_zero or x.e > c.e:
        return [c]
    return [PPoint(x)]


def padic_mul_sets(s1: PSet, s2: PSet) -> PSet:
    out: list = []
    for c1 in pparts_of(s1):
        for c2 in pparts_of(s2):
            if isinstance(c1, PPoint) and isinstance(c2, PCone):  # commutative
                c1, c2 = c2, c1
            if isinstance(c1, PPoint):
                out.append(PPoint(padic_mul(c1.elem, c2.elem)))
            elif isinstance(c2, PPoint):
                if c2.elem.is_zero:
                    out.append(PPoint(padic_zero(c1.p)))
                else:
                    out.append(PCone(c1.p, c1.e + c2.elem.e))
            else:
                out.append(PCone(c1.p, c1.e + c2.e + 1))
    return pnormalize(out)


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


def format_pset(s: PSet) -> str:
    out = []
    for c in pparts_of(s):
        if isinstance(c, PPoint):
            out.append(f"point {format_padic(c.elem)}")
        else:
            out.append(f"below {c.p}^{-c.e}")
    return " | ".join(out)


_PADIC_TERM = re.compile(
    r"^\s*(?:(?P<d>\d+)\s*\*\s*)?(?P<p>\d+)(?:\^(?P<e>-?\d+))?\s*$|^\s*(?P<const>\d+)\s*$"
)


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
        if tm.group("const") is not None:
            coeffs[0] = coeffs.get(0, 0) + int(tm.group("const"))
            continue
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
        if not (carry or digits):  # skip the zero digits below the next term
            e = terms[0][0]
        if terms and terms[0][0] == e:
            carry += terms.pop(0)[1]
        carry, d = divmod(carry, p)
        if d or digits:
            digits.append(d)
        e += 1
    return padic_from_digits(p, e - len(digits) + shift, digits, depth)
