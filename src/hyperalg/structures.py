"""The Structure interface, its concrete handles and the CLI's name registry.

Each class binds one carrier's operations, samplers and text forms to the
uniform Structure interface consumed by the axiom checkers.  It forwards to
the family modules (csets, rsets, qsets, exotic), which hold every set
algorithm: membership, containment, sampling and normal forms.

Carriers of one value-set family share a base binding the set algebra, the
text forms, the classical multiplication and its set product once:
ComplexCarrier (csets, for TC, Phi and C), IntervalCarrier (rsets, for TR,
tri, ultra, trop, amoeba, R and maxplus) and ValuedCarrier (the exotic cone
algebra, for mono and padic).  A subclass states its addition and only what
else differs.

A finite value set is a frozenset of labels; FiniteStructure builds the
zero and each singleton once, with the adapter.

A family module is imported at its first use, so a command that touches one
carrier imports only that carrier's modules.  A carrier whose zero and one
live in its family module sets them at construction.
"""
from __future__ import annotations

import math

from . import _Deferred
from .tolerance import DEFAULT_TOL, NEG_INF, TWO_PI, RepresentationClosureError, beyond_floats, fmt_num, is_prime

csets, ctrop, exotic, finite, qsets, realhf, rsets = (
    _Deferred(globals(), name)
    for name in ("csets", "ctrop", "exotic", "finite", "qsets", "realhf", "rsets")
)


class Structure:
    """Uniform interface over finite and continuous hyperfield-like carriers.

    Subclasses fill in the carrier-specific operations; the axiom checkers
    only ever talk to this interface.  `scale` has a default, the product of
    the singleton {a} with the set on the side given, which a carrier with
    a symbolic `mul_sets` need not override.
    """

    name = "structure"
    is_finite = False
    has_mul = True
    has_one = True
    has_neg = True

    # carrier: a subclass sets `zero` and `one` as class attributes, as
    # instance attributes at construction, or as properties
    zero: object
    one: object

    def elements(self) -> list:
        raise NotImplementedError(f"{self.name} has no finite element list")

    def random_elem(self, rng: random.Random):
        raise NotImplementedError

    def peer(self, a, rng: random.Random):
        """An element tied with `a` for the dominance order of the addition."""
        return a

    # operations
    def add(self, a, b):
        raise NotImplementedError

    def add_sets(self, s1, s2):
        """A value set plus a singleton, on either side, as in (a + b) + c.
        The finite tables and the closed forms of tri, ultra, trop, amoeba,
        R and maxplus also add two sets; the other carriers raise
        RepresentationClosureError."""
        raise NotImplementedError

    def singleton(self, a):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def scale(self, a, s, side: str = "left"):
        """Pointwise multiplication of the set `s` by the element `a`, with
        `a` on the given side: the product of {a} and `s` by `mul_sets`."""
        if side == "left":
            return self.mul_sets(self.singleton(a), s)
        return self.mul_sets(s, self.singleton(a))

    def mul_sets(self, s1, s2):
        """Pointwise product of two sets, or None when not representable."""
        return None

    # predicates
    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def member(self, x, s) -> bool:
        raise NotImplementedError

    def set_eq(self, s1, s2) -> bool:
        raise NotImplementedError

    def subset(self, s1, s2) -> bool:
        raise NotImplementedError

    def pick(self, s, rng: random.Random, count: int = 4) -> list:
        raise NotImplementedError

    # text forms
    def format_elem(self, a) -> str:
        return str(a)

    def parse_elem(self, text: str):
        raise NotImplementedError

    def format_set(self, s) -> str:
        return str(s)

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)


class FiniteStructure(Structure):
    """Adapter exposing a FiniteMultistructure through the checker interface.

    A sum of two singletons is the table's own cell.  Each table operation
    is looked up on the table at call time, never bound on the adapter, so
    a patch of FiniteMultistructure.add or .mul made later (as a call tracer
    makes it) applies to every adapter already built.
    """

    is_finite = True

    def __init__(self, table: finite.FiniteMultistructure):
        self.table = table
        self.name = table.name or "finite"
        self.has_mul = table.mul_table is not None
        self.has_one = table.one_idx is not None
        self.zero = table.zero
        self._singletons = {e: frozenset([e]) for e in table.elements}

    @property
    def one(self):
        return self.table.one

    def elements(self) -> list:
        return list(self.table.elements)

    def add(self, a, b):
        return self.table.add(a, b)

    def add_sets(self, s1, s2):
        add = self.table.add
        if len(s1) == 1 and len(s2) == 1:
            (a,) = s1
            (b,) = s2
            return add(a, b)
        out = set()
        for a in s1:
            for b in s2:
                out |= add(a, b)
        return frozenset(out)

    def singleton(self, a):
        try:
            return self._singletons[a]
        except KeyError:
            return frozenset([a])

    def neg(self, a):
        return self.table.neg(a)

    def mul(self, a, b):
        return self.table.mul(a, b)

    def inv(self, a):
        return self.table.inv(a)

    def scale(self, a, s, side="left"):
        # the default's singleton and nested loop slow the exhaustive checker ~2%
        mul = self.table.mul
        if side == "left":
            return frozenset([mul(a, x) for x in s])
        return frozenset([mul(x, a) for x in s])

    def mul_sets(self, s1, s2):
        mul = self.table.mul
        return frozenset([mul(a, b) for a in s1 for b in s2])

    def eq(self, a, b):
        return a == b

    def member(self, x, s):
        return x in s

    def set_eq(self, s1, s2):
        return frozenset(s1) == frozenset(s2)

    def subset(self, s1, s2):
        return frozenset(s1) <= frozenset(s2)

    def _in_table_order(self, s) -> list:
        # labels may mix types that do not compare, so no sorted()
        return [e for e in self.table.elements if e in s]

    def pick(self, s, rng, count=4):
        return self._in_table_order(s)

    def parse_elem(self, text):
        t = text.strip()
        try:
            return self.table._by_text[t]
        except KeyError:
            raise ValueError(f"{t!r} is not an element of {self.name}") from None

    def format_set(self, s):
        return "{" + ",".join(str(e) for e in self._in_table_order(s)) + "}"


class ComplexCarrier(Structure):
    """C with its usual multiplication and the csets value-set algebra."""

    def __init__(self):
        self.zero = csets.CZERO
        self.one = csets.CONE

    def random_elem(self, rng):
        if rng.random() < 0.05:
            return self.zero
        m = math.exp(rng.uniform(-1.5, 1.5))
        return csets.ComplexElem(m, rng.uniform(0.0, TWO_PI))

    def peer(self, a, rng):
        if a.modulus == 0.0:
            return self.zero
        return csets.ComplexElem(a.modulus, rng.uniform(0.0, TWO_PI))

    def singleton(self, a):
        return csets.CPoint(a)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a.times(b)

    def inv(self, a):
        return a.inv()

    def mul_sets(self, s1, s2):
        return ctrop.ct_mul_sets(s1, s2)

    def eq(self, a, b):
        return a.eq(b)

    def member(self, x, s):
        return csets.member(x, s)

    def set_eq(self, s1, s2):
        return csets.set_eq(s1, s2)

    def subset(self, s1, s2):
        return csets.subset(s1, s2)

    def pick(self, s, rng, count=4):
        return csets.pick(s, rng, count)

    def format_elem(self, a):
        return csets.format_celem(a)

    def parse_elem(self, text):
        return csets.parse_celem(text)

    def format_set(self, s):
        return csets.format_cset(s)


class ComplexTropical(ComplexCarrier):
    """C with dominant-modulus / shortest-arc / disk addition."""

    name = "TC"

    def add(self, a, b):
        return ctrop.ct_add(a, b)

    def add_sets(self, s1, s2):
        return ctrop.ct_add_sets(s1, s2)


class PhaseStructure(ComplexTropical):
    """Unit circle plus 0, with the addition clipped from the complex sum."""

    name = "Phi"

    def random_elem(self, rng):
        if rng.random() < 0.08:
            return self.zero
        return csets.ComplexElem(1.0, rng.uniform(0.0, TWO_PI))

    def add(self, a, b):
        return ctrop.phase_add(a, b)

    def add_sets(self, s1, s2):
        return ctrop.phase_add_sets(s1, s2)

    def mul_sets(self, s1, s2):
        return ctrop.phase_mul_sets(s1, s2)

    def parse_elem(self, text):
        a = super().parse_elem(text)
        ctrop.check_phase_elem(a)
        return a


class IntervalCarrier(Structure):
    """An R-like carrier: one rsets interval, the real zero, one, negation
    and product by default, and finite literals only, besides the carrier's
    zero (-inf on trop)."""

    nonnegative = False  # an R+ carrier also rejects negative literals
    zero = 0.0
    one = 1.0

    def singleton(self, a):
        return rsets.rpoint(a)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        p = a * b
        if math.isinf(p):
            raise beyond_floats(f"product {a:g} * {b:g}")
        return p

    def mul_sets(self, s1, s2):
        """The real interval product: the hull of the endpoint products."""
        (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
        prods = (lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2)
        lo, hi = min(prods), max(prods)
        if math.isinf(lo) or math.isinf(hi):
            raise beyond_floats(f"interval product [{lo1:g},{hi1:g}] * [{lo2:g},{hi2:g}]")
        return rsets.RSet(((lo, hi),))

    def inv(self, a):
        if a == 0.0:
            raise ZeroDivisionError("0 has no inverse")
        return 1.0 / a

    def _endpointwise(self, s1, s2, f):
        """The interval [f(lo1, lo2), f(hi1, hi2)], for an f monotone in both
        arguments."""
        (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
        return rsets.rset([(f(lo1, lo2), f(hi1, hi2))])

    def eq(self, a, b):
        return DEFAULT_TOL.close(a, b)

    def member(self, x, s):
        return rsets.rmember(x, s)

    def set_eq(self, s1, s2):
        return rsets.rset_eq(s1, s2)

    def subset(self, s1, s2):
        return rsets.rsubset(s1, s2)

    def pick(self, s, rng, count=4):
        return rsets.rpick(s, rng, count)

    def format_elem(self, a):
        return fmt_num(a)

    def parse_elem(self, text):
        v = float(text)
        if not math.isfinite(v) and v != self.zero:
            raise ValueError(f"{text.strip()!r} is not a finite real")
        if self.nonnegative and v < 0:
            raise ValueError("carrier is the nonnegative reals")
        return v

    def format_set(self, s):
        return rsets.format_rset(s)


class RealTropical(IntervalCarrier):
    """R with the four-case tropical addition induced from C."""

    name = "TR"

    def random_elem(self, rng):
        if rng.random() < 0.05:
            return 0.0
        m = math.exp(rng.uniform(-1.5, 1.5))
        return m if rng.random() < 0.5 else -m

    def peer(self, a, rng):
        return a if rng.random() < 0.5 else -a

    def add(self, a, b):
        return ctrop.rt_add(a, b)

    def add_sets(self, s1, s2):
        return ctrop.rt_add_sets(s1, s2)


class TriangleStructure(IntervalCarrier):
    """Nonnegative reals with the triangle-inequality addition."""

    name = "tri"
    nonnegative = True

    def random_elem(self, rng):
        if rng.random() < 0.05:
            return 0.0
        return math.exp(rng.uniform(-1.5, 1.5))

    def add(self, a, b):
        return realhf.tri_add(a, b)

    def add_sets(self, s1, s2):
        return realhf.tri_add_sets(s1, s2)

    def neg(self, a):
        return a


class UltraStructure(TriangleStructure):
    """Nonnegative reals with the ultrametric (max / down-set) addition."""

    name = "ultra"

    def add(self, a, b):
        return realhf.ultra_add(a, b)

    def add_sets(self, s1, s2):
        return realhf.ultra_add_sets(s1, s2)


class TropStructure(IntervalCarrier):
    """R ∪ {-inf} with max/down-set addition; multiplication is +."""

    name = "trop"
    zero = NEG_INF
    one = 0.0

    def random_elem(self, rng):
        if rng.random() < 0.05:
            return NEG_INF
        return rng.uniform(-3.0, 3.0)

    def add(self, a, b):
        return realhf.trop_add(a, b)

    def add_sets(self, s1, s2):
        return realhf.trop_add_sets(s1, s2)

    def neg(self, a):
        return a

    def mul(self, a, b):
        return realhf.trop_mul(a, b)

    def inv(self, a):
        if a == NEG_INF:
            raise ZeroDivisionError("-inf has no inverse")
        return -a

    def mul_sets(self, s1, s2):
        return self._endpointwise(s1, s2, realhf.trop_mul)


class AmoebaStructure(TropStructure):
    """R ∪ {-inf} with the triangle addition transported along log."""

    name = "amoeba"

    def add(self, a, b):
        return realhf.amoeba_add(a, b)

    def add_sets(self, s1, s2):
        return realhf.amoeba_add_sets(s1, s2)


class QuaternionTropical(Structure):
    """H with dominant-norm / geodesic-arc / ball addition (a skew carrier).

    It keeps the default `mul_sets` (None): products of arcs are not
    symbolically representable.
    """

    name = "quat"

    def __init__(self):
        self.zero = qsets.QZERO
        self.one = qsets.QONE

    @staticmethod
    def _on_sphere(radius, rng):
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in v)) or 1.0
        return qsets.QuatElem(*(x * radius / n for x in v))

    def random_elem(self, rng):
        if rng.random() < 0.05:
            return self.zero
        return self._on_sphere(math.exp(rng.uniform(-1.0, 1.0)), rng)

    def peer(self, a, rng):
        if a.norm == 0.0:
            return self.zero
        return self._on_sphere(a.norm, rng)

    def add(self, a, b):
        return ctrop.quat_add(a, b)

    def add_sets(self, s1, s2):
        return ctrop.quat_add_sets(s1, s2)

    def singleton(self, a):
        return qsets.QPoint(a)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        p = a.times(b)
        if math.isinf(p.norm):
            raise beyond_floats(f"quaternion product of norms {a.norm:g} * {b.norm:g}")
        return p

    def inv(self, a):
        return a.inv()

    def scale(self, a, s, side="left"):
        return ctrop.quat_scale(s, a, side)

    def eq(self, a, b):
        return a.eq(b)

    def member(self, x, s):
        return qsets.qmember(x, s)

    def set_eq(self, s1, s2):
        return qsets.qset_eq(s1, s2)

    def subset(self, s1, s2):
        return qsets.qsubset(s1, s2)

    def pick(self, s, rng, count=4):
        return qsets.qpick(s, rng, count)

    def format_elem(self, a):
        return qsets.format_qelem(a)

    def parse_elem(self, text):
        return qsets.parse_qelem(text)

    def format_set(self, s):
        return qsets.format_qset(s)


class ValuedCarrier(Structure):
    """A carrier dominated by a valuation, with the exotic cone value-set
    algebra: the monomials and the truncated p-adic numbers."""

    def singleton(self, a):
        return exotic.VPoint(a)

    def eq(self, a, b):
        return a.eq(b)

    def member(self, x, s):
        return exotic.member(x, s)

    def set_eq(self, s1, s2):
        return exotic.set_eq(s1, s2)

    def subset(self, s1, s2):
        return exotic.subset(s1, s2)

    def format_set(self, s):
        return exotic.format_set(s, self.format_elem)


class MonomialStructure(ValuedCarrier):
    """Monomials coeff*t^exp with dominance by exponent.

    The exponent domain is `real`, `rational`, or `int`.
    """

    def __init__(self, domain: str = "real"):
        if domain not in ("real", "rational", "int"):
            raise ValueError(f"unknown exponent domain {domain!r}")
        self.domain = domain
        self.name = "mono" if domain == "real" else f"mono-{domain}"
        self.zero = exotic.MZERO
        self.one = exotic.MONE

    def _rand_exp(self, rng):
        if self.domain == "int":
            return rng.randint(-4, 4)
        if self.domain == "rational":
            from fractions import Fraction

            return Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        return rng.uniform(-3.0, 3.0)

    def random_elem(self, rng):
        if rng.random() < 0.05:
            return self.zero
        return exotic.MonomialElem(exotic.random_coeff(rng), self._rand_exp(rng))

    def peer(self, a, rng):
        if a.zero:
            return a
        return exotic.MonomialElem(exotic.random_coeff(rng), a.exponent)

    def add(self, a, b):
        return exotic.mono_add(a, b)

    def add_sets(self, s1, s2):
        return exotic.mono_add_sets(s1, s2)

    def neg(self, a):
        return exotic.mono_neg(a)

    def mul(self, a, b):
        return exotic.mono_mul(a, b)

    def inv(self, a):
        return exotic.mono_inv(a)

    def mul_sets(self, s1, s2):
        return exotic.mono_mul_sets(s1, s2, self.domain)

    def pick(self, s, rng, count=4):
        return exotic.mpick(s, rng, self.domain)

    def format_elem(self, a):
        return exotic.format_monomial(a)

    def parse_elem(self, text):
        return exotic.parse_monomial(text, self.domain)


class PadicStructure(ValuedCarrier):
    """Truncated p-adic numbers with dominant-norm tropical addition.

    The addition is not associative and its negation is not unique (see README).
    """

    def __init__(self, p: int = 5, depth: int = 8):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if depth < 1:
            raise ValueError(f"p-adic depth must be >= 1, got {depth}")
        self.p = p
        self.depth = depth
        self.name = f"padic:{p}:{depth}"
        self.zero = exotic.padic_zero(p)
        self.one = exotic.padic_one(p, depth)

    def random_elem(self, rng):
        if rng.random() < 0.05:
            return self.zero
        e = rng.randint(-3, 3)
        return exotic.PadicElem(self.p, e, exotic.random_unit(self.p, self.depth, rng), self.depth)

    def peer(self, a, rng):
        if a.is_zero:
            return a
        unit = exotic.random_unit(self.p, self.depth, rng)
        return exotic.PadicElem(self.p, a.e, unit, self.depth)

    def add(self, a, b):
        return exotic.padic_add(a, b)

    def add_sets(self, s1, s2):
        return exotic.padic_add_sets(s1, s2)

    def neg(self, a):
        return exotic.padic_neg(a)

    def mul(self, a, b):
        return exotic.padic_mul(a, b)

    def inv(self, a):
        return exotic.padic_inv(a)

    def mul_sets(self, s1, s2):
        return exotic.padic_mul_sets(s1, s2)

    def pick(self, s, rng, count=4):
        return exotic.ppick(s, rng, self.depth)

    def format_elem(self, a):
        return exotic.format_padic(a)

    def parse_elem(self, text):
        return exotic.parse_padic(text, self.p, self.depth)


class ComplexField(ComplexCarrier):
    """Classical C with singleton sums, as a homomorphism domain."""

    name = "C"

    def add(self, a, b):
        return csets.CPoint(csets.ComplexElem.from_complex(a.as_complex() + b.as_complex()))

    def add_sets(self, s1, s2):
        if not isinstance(s1, csets.CPoint) or not isinstance(s2, csets.CPoint):
            raise RepresentationClosureError("classical sums are pointwise")
        return self.add(s1.elem, s2.elem)


class RealField(RealTropical):
    """Classical R with singleton sums, as a homomorphism domain."""

    name = "R"

    def add(self, a, b):
        return rsets.rpoint(self._sum(a, b))

    def add_sets(self, s1, s2):
        return self._endpointwise(s1, s2, self._sum)

    @staticmethod
    def _sum(a, b):
        s = a + b
        if math.isinf(s):
            raise beyond_floats(f"real sum {a:g} + {b:g}")
        return s


class MaxPlusReals(IntervalCarrier):
    """(R+, max, *): the univalued semifield sitting inside the complex
    tropical carrier.  Used as a homomorphism target; it has no negation."""

    name = "maxplus"
    nonnegative = True
    has_neg = False

    def random_elem(self, rng):
        return math.exp(rng.uniform(-1.5, 1.5))

    def add(self, a, b):
        return rsets.rpoint(max(a, b))

    def add_sets(self, s1, s2):
        return self._endpointwise(s1, s2, max)

    def neg(self, a):
        raise ValueError("max-plus has no negation")


# ---------------------------------------------------------------------------
# registry

# fixed registry names -> factories of a fresh handle
_NAMED = {
    "K": lambda: FiniteStructure(finite.make_krasner()),
    "Q1": lambda: FiniteStructure(finite.make_q1()),
    "S": lambda: FiniteStructure(finite.make_sign()),
    "F2": lambda: FiniteStructure(finite.make_f2()),
    "M": lambda: FiniteStructure(finite.make_M()),
    "TC": ComplexTropical,
    "TR": RealTropical,
    "Phi": PhaseStructure,
    "tri": TriangleStructure,
    "ultra": UltraStructure,
    "trop": TropStructure,
    "amoeba": AmoebaStructure,
    "quat": QuaternionTropical,
    "mono": MonomialStructure,
    "maxplus": MaxPlusReals,
    "C": ComplexField,
    "R": RealField,
}


def get_structure(name: str) -> Structure:
    """Resolve a registry name: K, Q1, S, F2, M, TC, TR, Phi, tri, ultra,
    trop, amoeba, quat, mono, mono-int, mono-rational, maxplus, C, R,
    padic:p:L, powers:p:depth, zmod:n or finite:FILE."""
    if name in _NAMED:
        return _NAMED[name]()
    _, _, arg = name.partition(":")
    if name.startswith("mono-"):
        return MonomialStructure(name[len("mono-"):])
    if name.startswith(("padic:", "powers:")):
        p, depth = (int(v) for v in arg.split(":"))
        if name.startswith("padic:"):
            return PadicStructure(p, depth)
        return FiniteStructure(finite.make_powers_quotient(p, depth))
    if name.startswith("zmod:"):
        return FiniteStructure(finite.make_zmod(int(arg)))
    if name.startswith("finite:"):
        return FiniteStructure(finite.FiniteMultistructure.load(arg))
    raise ValueError(f"unknown structure {name!r}")


REGISTRY_NAMES = [
    "K",
    "Q1",
    "S",
    "F2",
    "M",
    "TC",
    "TR",
    "Phi",
    "tri",
    "ultra",
    "trop",
    "amoeba",
    "quat",
    "mono",
    "padic:2:8",
    "padic:3:8",
    "padic:5:8",
]
