"""Concrete homomorphisms and polynomial machinery.

The sign, phase, modulus and log-modulus maps connect the classical fields to
the tropical carriers.  The leading-term map w sends a complex polynomial (or
a real-exponent sum) with top term a*X^r to (a/|a|)*e^r and is a multiring
homomorphism onto the complex tropical carrier; its additive containment is
only interesting when top terms cancel, so the checker samples that stratum
explicitly.
"""
from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass

from . import _Deferred
from .structures import Structure, get_structure
from .tolerance import NEG_INF, Tolerance

axioms, csets, ctrop = (_Deferred(globals(), name) for name in ("axioms", "csets", "ctrop"))


def sign_map(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def sign_label(x: float) -> str:
    """The sign map onto the element labels of the sign carrier S."""
    return str(sign_map(x))


def collapse_sign(label: str) -> str:
    """The map S -> K: 0 stays 0 and either sign goes to 1."""
    return "0" if label == "0" else "1"


def phase_map(z: csets.ComplexElem) -> csets.ComplexElem:
    if z.modulus == 0.0:
        return csets.CZERO
    return csets.ComplexElem(1.0, z.argument)


def abs_map(z: csets.ComplexElem) -> float:
    return z.modulus


def log_abs(z: csets.ComplexElem) -> float:
    if z.modulus == 0.0:
        return NEG_INF
    return math.log(z.modulus)


# ---------------------------------------------------------------------------
# polynomials over C (natural or real exponents)


@dataclass(frozen=True)
class Polynomial:
    """Finite sum of terms coeff * X^exponent with distinct exponents."""

    terms: tuple[tuple[float, complex], ...]  # sorted by exponent, descending

    @classmethod
    def make(cls, terms: dict[float, complex]) -> "Polynomial":
        kept = {float(e): c for e, c in terms.items() if c != 0}
        return cls(tuple(sorted(kept.items(), reverse=True)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> float:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.terms[0][0]

    def leading(self) -> tuple[float, complex]:
        return self.terms[0]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return Polynomial.make(acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        acc: dict[float, complex] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return Polynomial.make(acc)

    def __str__(self) -> str:
        return format_poly(self)


def w_map(p: Polynomial) -> csets.ComplexElem:
    """Leading-term map: a*X^r + (lower)  ->  (a/|a|) * e^r."""
    if p.is_zero:
        return csets.CZERO
    r, a = p.leading()
    return csets.ComplexElem(math.exp(r), cmath.phase(a))


def format_poly(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    chunks = []
    for e, c in p.terms:
        if c.imag == 0:
            cs = f"{c.real:g}"
        else:
            cs = f"({c.real:g}{'+' if c.imag >= 0 else '-'}{abs(c.imag):g}i)"
        if e == 0:
            chunks.append(cs)
        else:
            es = f"X^{e:g}" if float(e).is_integer() else f"X^{{{e:g}}}"
            es = "X" if e == 1 else es
            if cs in ("1", "-1"):
                cs = cs[:-1]  # a unit coefficient shows only its sign
            chunks.append(f"{cs}{es}")
    return " + ".join(chunks).replace("+ -", "- ")


# a sign right after one of these belongs to the literal it is in (`X^-1`,
# `1@-1`, `1∠-1`, `0,-1,0,0`, `1e-3`), not to the next term
_SIGN_KEEPERS = "^@∠,eE"


def _split_terms(text: str) -> list[str]:
    """Split on top-level +/- signs, keeping groups and signs inside literals
    intact; a `-` starts the next term."""
    chunks: list[str] = []
    cur = ""
    depth = 0
    prev = ""
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if depth == 0 and ch == "+" and prev not in _SIGN_KEEPERS:
            if cur.strip():
                chunks.append(cur)
            cur = ""
        elif depth == 0 and ch == "-" and prev not in _SIGN_KEEPERS and cur.strip():
            chunks.append(cur)
            cur = "-"
        else:
            cur += ch
        if not ch.isspace():
            prev = ch
    if cur.strip():
        chunks.append(cur)
    return chunks


def _random_poly(rng: random.Random, real_exponents: bool = False) -> Polynomial:
    n_terms = rng.randint(1, 4)
    acc: dict[float, complex] = {}
    for _ in range(n_terms):
        e = round(rng.uniform(0.0, 4.0), 3) if real_exponents else float(rng.randint(0, 4))
        acc[e] = acc.get(e, 0) + complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return Polynomial.make(acc)


def _w_pairs(budget: int, rng: random.Random, real_exponents: bool):
    """Pairs of polynomials in three strata: generic pairs, equal-degree
    non-cancelling leaders, and engineered leading-term cancellations."""
    per = max(1, budget // 3)
    for _ in range(per):  # generic
        yield _random_poly(rng, real_exponents), _random_poly(rng, real_exponents)
    for _ in range(per):  # tied top degree, non-cancelling leaders
        p = _random_poly(rng, real_exponents)
        q = _random_poly(rng, real_exponents)
        e, c = p.leading()
        q2 = q + Polynomial.make({e: c * complex(rng.gauss(0, 1) or 1.0, rng.gauss(0, 1))})
        if not q2.is_zero and q2.degree() == e:
            yield p, q2
    for _ in range(per):  # engineered cancellation of the leading term
        p = _random_poly(rng, real_exponents)
        e, c = p.leading()
        filler = {ee: cc for ee, cc in _random_poly(rng, real_exponents).terms if ee < e}
        filler[e] = -c
        yield p, Polynomial.make(filler)


_WIDE = Tolerance(1e-7)  # atan2/exp noise on engineered cancellations


def _w_pair(f, X, Y, pair, rng, pending) -> list:
    """The verdicts of `pending` that fail on (p, q) under _WIDE: w(p+q) is
    not in w(p) ∔ w(q); w(pq) is not w(p)w(q); w(p) ∔ w(q) is not the single
    point w(p+q).  Draws nothing."""
    p, q = pair
    wp, wq = f(p), f(q)
    wpq, total = f(p + q), ctrop.ct_add(wp, wq)
    fails = []
    if "additive-containment" in pending and not csets.member(wpq, total, _WIDE):
        fails.append("additive-containment")
    if "multiplicative" in pending and not f(p * q).eq(wp.times(wq), _WIDE):
        fails.append("multiplicative")
    if "strong" in pending and not csets.set_eq(total, csets.CPoint(wpq), _WIDE):
        fails.append("strong")
    return fails


def check_w_hom(
    budget: int = 300,
    rng: random.Random | None = None,
    real_exponents: bool = False,
) -> axioms.HomReport:
    """Verify w(p+q) ∈ w(p) ∔ w(q) and w(pq) = w(p)w(q) over three strata:
    generic pairs, equal-degree non-cancelling pairs, and engineered
    leading-term cancellations.  w is strong on a pair when w(p) ∔ w(q) is
    the single point w(p+q), which a tie or a cancellation breaks."""
    rng = rng or random.Random(0)
    tc = get_structure("TC")
    units = [
        ("zero-preserved", Polynomial.make({}), tc.zero),
        ("one-preserved", Polynomial.make({0: 1}), tc.one),
    ]
    rep = axioms.HomReport("w: C[X] -> TC", kernel=["0"], mul_kernel=["1"])
    pairs = _w_pairs(budget, rng, real_exponents)
    return axioms.check_map(rep, w_map, None, tc, units, pairs, _w_pair, rng)


# ---------------------------------------------------------------------------
# polynomials over an arbitrary structure, with set-valued evaluation


@dataclass(frozen=True)
class HFPolynomial:
    """Multivariate polynomial over a structure's carrier.

    Monomials evaluate univalently (multiplication is single-valued); the
    monomial values are then folded through the set-extended addition in
    stored order.
    """

    structure: Structure
    terms: tuple[tuple[tuple[int, ...], object], ...]  # (exponent vector, coeff)


def hf_polynomial(structure: Structure, terms: list) -> HFPolynomial:
    """Build a structure polynomial from (exponents, coeff) pairs; exponent
    vectors must share one arity and repeat at most once."""
    if not terms:
        raise ValueError("polynomial needs at least one term")
    arity = len(terms[0][0])
    seen = set()
    for exps, _ in terms:
        if len(exps) != arity:
            raise ValueError("inconsistent arity across terms")
        if exps in seen:
            raise ValueError(f"duplicate exponent vector {exps}")
        seen.add(exps)
    ordered = tuple(sorted(terms, key=lambda t: t[0], reverse=True))
    return HFPolynomial(structure, ordered)


def hf_poly_eval(p: HFPolynomial, point: tuple) -> object:
    """Evaluate: univalued monomials, then a left fold of set-valued sums."""
    x = p.structure
    if p.terms and len(point) != len(p.terms[0][0]):
        raise ValueError(
            f"point arity {len(point)} != polynomial arity {len(p.terms[0][0])}"
        )
    acc = None
    for exps, coeff in p.terms:
        val = coeff
        for xi, e in zip(point, exps):
            for _ in range(e):
                val = x.mul(val, xi)
        if acc is None:
            acc = x.singleton(val)
        else:
            acc = x.add_sets(acc, x.singleton(val))
    return acc


# evaluation multiplies once per unit of an exponent, so parsing caps them
MAX_POLY_EXPONENT = 1000


def parse_hf_poly(structure: Structure, text: str) -> HFPolynomial:
    """Univariate polynomial whose coefficients use the structure's element
    grammar: `2X^3 - 1`, `(1+1i)X + 1@-1`.

    Terms split on the signs that _split_terms splits on; a `-` stays on the
    coefficient literal it precedes, a coefficient wrapped in parentheses is
    unwrapped, and `X` may only be followed by `^<digits>`, an exponent of at
    most MAX_POLY_EXPONENT.
    """
    terms: list = []
    for chunk in _split_terms(text):
        term = chunk.strip()
        cs, var, es = term.partition("X")
        if es and not re.fullmatch(r"\^[0-9]+", es):
            raise ValueError(f"cannot parse polynomial term {term!r}: X takes only ^<digits>")
        exp = int(es[1:]) if es else (1 if var else 0)
        if exp > MAX_POLY_EXPONENT:
            raise ValueError(f"exponent {exp} in {term!r} exceeds {MAX_POLY_EXPONENT}")
        cs = cs.strip()
        if var:
            cs = cs.rstrip("*").strip()
        if cs.startswith("-"):
            cs = "-" + cs[1:].strip()
        if cs.startswith("(") and cs.endswith(")"):
            cs = cs[1:-1]
        if var and cs in ("", "-"):
            coeff = structure.neg(structure.one) if cs == "-" else structure.one
        else:
            coeff = structure.parse_elem(cs)
        terms.append(((exp,), coeff))
    return hf_polynomial(structure, terms)
