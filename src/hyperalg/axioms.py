"""Generic axiom checking over any structure handle.

A Structure bundles a carrier (finite element list or continuous sampler)
with a set-valued addition, univalued multiplication, negation and the set
machinery (membership, equality, containment, sampling).  The checkers verify
multigroup / multiring / hyperring / hyperfield axioms either exhaustively
(finite carriers) or over stratified sampled tuples (continuous carriers),
and every failing verdict carries a witness that replays to the same failure.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .structures import Structure


class DoubleDistributivityViolation(RuntimeError):
    """The guaranteed half of double distributivity failed: a structural bug."""


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Check:
    axiom: str
    passed: bool
    witness: tuple | None = None
    witness_text: str = ""
    detail: str = ""
    # a map verdict's predicate(X, witness): f(x) is the unit's target, or the
    # map kind's pair function finds the verdict holding on the witness pair
    predicate: Callable | None = field(default=None, compare=False, repr=False)


@dataclass
class AxiomReport:
    structure: str
    checks: list[Check] = field(default_factory=list)
    tuples_checked: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def add(self, axiom: str, passed: bool, witness=None, witness_text="", detail="", predicate=None):
        self.checks.append(Check(axiom, passed, witness, witness_text, detail, predicate))

    def to_lines(self) -> list[str]:
        out = []
        for c in self.checks:
            line = f"axiom={c.axiom} verdict={'pass' if c.passed else 'fail'}"
            if not c.passed:
                line += f" witness={c.witness_text}"
            out.append(line)
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "structure": self.structure,
                "passed": self.passed,
                "tuples": self.tuples_checked,
                "checks": [
                    {
                        "axiom": c.axiom,
                        "verdict": "pass" if c.passed else "fail",
                        "witness": c.witness_text or None,
                        "detail": c.detail or None,
                    }
                    for c in self.checks
                ],
            },
            indent=2,
        )


# a map's verdicts in the order `hom` prints them, those decided on pairs,
# and those a homomorphism needs
_PAIR_VERDICTS = ("additive-containment", "multiplicative", "strong")
_MAP_VERDICTS = ("zero-preserved", "one-preserved", *_PAIR_VERDICTS)
_REQUIRED = ("zero-preserved", "additive-containment", "multiplicative")


@dataclass
class HomReport(AxiomReport):
    """A map's verdicts, one Check each, in the order they settled: the zero
    and the one first, then each failed pair verdict at its first failing
    pair, then the pair verdicts that held.  `structure` names the map and
    `tuples_checked` counts its pairs."""

    strong_exact: bool = True  # False when strongness was only sampled
    kernel: list = field(default_factory=list)
    mul_kernel: list = field(default_factory=list)

    def _holds(self, axiom: str) -> bool:
        return next((c.passed for c in self.checks if c.axiom == axiom), True)

    zero_preserved = property(lambda self: self._holds("zero-preserved"))
    one_preserved = property(lambda self: self._holds("one-preserved"))
    additive = property(lambda self: self._holds("additive-containment"))
    multiplicative = property(lambda self: self._holds("multiplicative"))
    strong = property(lambda self: self._holds("strong"))
    pairs_checked = property(lambda self: self.tuples_checked)

    def failures(self) -> list[Check]:
        """The failed checks that make the map no homomorphism, in the order
        they settled; one-preserved and strong are reported but not required."""
        return [c for c in self.checks if not c.passed and c.axiom in _REQUIRED]

    @property
    def witness(self) -> tuple | None:
        """The first pair that broke additive-containment or multiplicative."""
        return next((c.witness for c in self.failures() if c.axiom != "zero-preserved"), None)

    @property
    def witness_text(self) -> str:
        return next((c.witness_text for c in self.failures() if c.axiom != "zero-preserved"), "")

    @property
    def is_homomorphism(self) -> bool:
        return not self.failures()

    def to_lines(self) -> list[str]:
        out = [f"axiom={n} verdict={'pass' if self._holds(n) else 'fail'}" for n in _MAP_VERDICTS]
        if self.witness_text:
            out.append(f"witness={self.witness_text}")
        out.append(f"kernel={{{','.join(self.kernel)}}}")
        out.append(f"mul-kernel={{{','.join(self.mul_kernel)}}}")
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "hom": self.structure,
                "homomorphism": self.is_homomorphism,
                "zero_preserved": self.zero_preserved,
                "one_preserved": self.one_preserved,
                "additive": self.additive,
                "multiplicative": self.multiplicative,
                "strong": self.strong,
                "strong_exact": self.strong_exact,
                "kernel": self.kernel,
                "mul_kernel": self.mul_kernel,
                "witness": self.witness_text or None,
                "pairs": self.tuples_checked,
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# stratified tuple generation

# first letter draws fresh/zero/one; later letters may reference the first
# element (dup/peer/neg) or the previous one, which steers tuples into every
# dominance/tie/cancellation branch of the target addition
_FIRST = "RZO"
_REST = "RDPNZOEWM"


def _emit(letter: str, X: Structure, first, prev, rng: random.Random):
    if letter == "R":
        return X.random_elem(rng)
    if letter == "D":
        return first
    if letter == "P":
        return X.peer(first, rng)
    if letter == "N":
        return X.neg(first)
    if letter == "Z":
        return X.zero
    if letter == "O":
        return X.one if X.has_one else X.zero
    if letter == "E":
        return prev
    if letter == "W":
        return X.peer(prev, rng)
    if letter == "M":
        return X.neg(prev)
    raise ValueError(letter)


def stratified_tuples(X: Structure, rng: random.Random, arity: int, count: int):
    """Yield `count` element tuples cycling through all letter patterns; a
    carrier without negation gets no negation letters."""
    rest_letters = _REST if X.has_neg else _REST.replace("N", "").replace("M", "")
    patterns = [
        f + "".join(rest)
        for f in _FIRST
        for rest in itertools.product(rest_letters, repeat=arity - 1)
    ]
    emitted = 0
    while emitted < count:
        for pat in patterns:
            if emitted >= count:
                return
            first = _emit(pat[0], X, None, None, rng)
            tup = [first]
            for letter in pat[1:]:
                tup.append(_emit(letter, X, first, tup[-1], rng))
            yield tuple(tup)
            emitted += 1


# reversal and reversibility constrain the points c of a+b, so on continuous
# carriers c is picked from the sum; reversal also tests one free element
_FROM_SUM = {"reversal": True, "reversibility": False}


def _sum_triples(X: Structure, rng: random.Random, budget: int, free: bool):
    for a, b in stratified_tuples(X, rng, 2, budget):
        cs = X.pick(X.add(a, b), rng, 2)
        if free:
            cs = cs + [X.random_elem(rng)]
        for c in cs:
            yield a, b, c


def _tuples(X: Structure, rng: random.Random, arity: int, budget: int, axiom: str = ""):
    if X.is_finite:
        els = X.elements()
        return itertools.product(els, repeat=arity)
    if axiom in _FROM_SUM:
        return _sum_triples(X, rng, budget, _FROM_SUM[axiom])
    return stratified_tuples(X, rng, arity, budget)


def _wtext(X: Structure | None, tup) -> str:
    fmt = str if X is None else X.format_elem  # no carrier: the polynomials of w
    return "(" + ", ".join(fmt(t) for t in tup) + ")"


# ---------------------------------------------------------------------------
# axiom predicates (witnesses replay through these)


def axiom_associative(X: Structure, tup) -> bool:
    a, b, c = tup
    lhs = X.add_sets(X.add(a, b), X.singleton(c))
    rhs = X.add_sets(X.singleton(a), X.add(b, c))
    return X.set_eq(lhs, rhs)


def axiom_weak_associative(X: Structure, tup) -> bool:
    a, b, c = tup
    lhs = X.add_sets(X.add(a, b), X.singleton(c))
    rhs = X.add_sets(X.singleton(a), X.add(b, c))
    return X.subset(lhs, rhs)


def axiom_neutral(X: Structure, tup) -> bool:
    (a,) = tup
    sa = X.singleton(a)
    return X.set_eq(X.add(X.zero, a), sa) and X.set_eq(X.add(a, X.zero), sa)


def axiom_right_neutral(X: Structure, tup) -> bool:
    (a,) = tup
    return X.set_eq(X.add(a, X.zero), X.singleton(a))


def axiom_negation_exists(X: Structure, tup) -> bool:
    (a,) = tup
    return X.member(X.zero, X.add(a, X.neg(a))) and X.member(X.zero, X.add(X.neg(a), a))


def axiom_negation_unique(X: Structure, tup) -> bool:
    a, x = tup
    if X.eq(x, X.neg(a)):
        return True
    return not X.member(X.zero, X.add(a, x)) and not X.member(X.zero, X.add(x, a))


def axiom_reversal(X: Structure, tup) -> bool:
    """c in a+b  iff  -c in (-b)+(-a), tested at the carrier point c."""
    a, b, c = tup
    inside = X.member(c, X.add(a, b))
    mirrored = X.member(X.neg(c), X.add(X.neg(b), X.neg(a)))
    return inside == mirrored


def axiom_reversibility(X: Structure, tup) -> bool:
    a, b, c = tup
    if not X.member(c, X.add(a, b)):
        return True
    return X.member(a, X.add(c, X.neg(b))) and X.member(b, X.add(X.neg(a), c))


def axiom_neg_zero(X: Structure, tup) -> bool:
    return X.eq(X.neg(X.zero), X.zero)


def axiom_neg_involution(X: Structure, tup) -> bool:
    (a,) = tup
    return X.eq(X.neg(X.neg(a)), a)


def axiom_add_commutative(X: Structure, tup) -> bool:
    a, b = tup
    return X.set_eq(X.add(a, b), X.add(b, a))


def axiom_mul_associative(X: Structure, tup) -> bool:
    a, b, c = tup
    return X.eq(X.mul(X.mul(a, b), c), X.mul(a, X.mul(b, c)))


def axiom_mul_unit(X: Structure, tup) -> bool:
    (a,) = tup
    return X.eq(X.mul(X.one, a), a) and X.eq(X.mul(a, X.one), a)


def axiom_zero_mul(X: Structure, tup) -> bool:
    (a,) = tup
    return X.is_zero(X.mul(X.zero, a)) and X.is_zero(X.mul(a, X.zero))


def axiom_distributive_sub(X: Structure, tup) -> bool:
    a, b, c = tup
    rhs = X.add(X.mul(a, b), X.mul(a, c))
    if not X.subset(X.scale(a, X.add(b, c), "left"), rhs):
        return False
    rhs_r = X.add(X.mul(b, a), X.mul(c, a))
    return X.subset(X.scale(a, X.add(b, c), "right"), rhs_r)


def axiom_distributive_eq(X: Structure, tup) -> bool:
    a, b, c = tup
    if not X.set_eq(X.scale(a, X.add(b, c), "left"), X.add(X.mul(a, b), X.mul(a, c))):
        return False
    return X.set_eq(X.scale(a, X.add(b, c), "right"), X.add(X.mul(b, a), X.mul(c, a)))


def axiom_mul_commutative(X: Structure, tup) -> bool:
    a, b = tup
    return X.eq(X.mul(a, b), X.mul(b, a))


def axiom_units_group(X: Structure, tup) -> bool:
    (a,) = tup
    if X.is_zero(a):  # the nonzero elements form a group, so 1 is not 0
        return X.one != X.zero  # each carrier's zero and one are canonical values
    try:
        ai = X.inv(a)
    except (ZeroDivisionError, ValueError, NotImplementedError):
        return False
    return X.eq(X.mul(a, ai), X.one) and X.eq(X.mul(ai, a), X.one)


def axiom_no_zero_divisors(X: Structure, tup) -> bool:
    a, b = tup
    if X.is_zero(a) or X.is_zero(b):
        return True
    return not X.is_zero(X.mul(a, b))


def _dd_sides(X: Structure, tup):
    """a+b, x+y, the expansion ax+ay+bx+by and the product (a+b)(x+y), which
    is None when the carrier has no symbolic set product."""
    a, b, x, y = tup
    sab, sxy = X.add(a, b), X.add(x, y)
    expansion = X.add_sets(
        X.add_sets(X.add(X.mul(a, x), X.mul(a, y)), X.singleton(X.mul(b, x))),
        X.singleton(X.mul(b, y)),
    )
    return sab, sxy, expansion, X.mul_sets(sab, sxy)


def _expansion_inside_product(X: Structure, sides, rng: random.Random) -> bool:
    """ax+ay+bx+by inside (a+b)(x+y): symbolic when the carrier multiplies
    sets, else tested at 2 points of the expansion drawn from `rng`."""
    sab, sxy, expansion, product = sides
    if product is not None:
        return X.subset(expansion, product)
    return all(_member_via_factorization(X, w, sab, sxy, rng) for w in X.pick(expansion, rng, 2))


def _member_via_factorization(X: Structure, w, sab, sxy, rng: random.Random) -> bool:
    """Sampled membership of w in the pointwise product sab*sxy when the
    product has no symbolic form: w = u*v iff inv(u)*w lands in sxy."""
    for u in X.pick(sab, rng, 6):
        if X.is_zero(u):
            if X.is_zero(w):
                return True
            continue
        try:
            ui = X.inv(u)
        except (ZeroDivisionError, NotImplementedError, ValueError):
            continue
        if X.member(X.mul(ui, w), sxy):
            return True
    return False


def axiom_double_distributivity(X: Structure, tup) -> bool:
    """The reverse half of double distributivity on (a, b, x, y); a carrier
    without a symbolic set product samples it at a fixed seed."""
    return _expansion_inside_product(X, _dd_sides(X, tup), random.Random(0))


PREDICATES = {
    "associativity": axiom_associative,
    "weak-associativity": axiom_weak_associative,
    "neutral": axiom_neutral,
    "right-neutral": axiom_right_neutral,
    "negation-exists": axiom_negation_exists,
    "negation-unique": axiom_negation_unique,
    "reversal": axiom_reversal,
    "reversibility": axiom_reversibility,
    "neg-zero": axiom_neg_zero,
    "neg-involution": axiom_neg_involution,
    "add-commutative": axiom_add_commutative,
    "mul-associative": axiom_mul_associative,
    "mul-unit": axiom_mul_unit,
    "zero-mul": axiom_zero_mul,
    "distributive-inclusion": axiom_distributive_sub,
    "distributive-equality": axiom_distributive_eq,
    "mul-commutative": axiom_mul_commutative,
    "units-group": axiom_units_group,
    "no-zero-divisors": axiom_no_zero_divisors,
    "double-distributivity": axiom_double_distributivity,
}


def replay(X: Structure, check: Check) -> bool:
    """Re-run a failed check's predicate on its stored witness: a map
    verdict's own predicate, else its axiom's."""
    if check.witness is None:
        raise ValueError(f"check {check.axiom} has no witness")
    return (check.predicate or PREDICATES[check.axiom])(X, check.witness)


# ---------------------------------------------------------------------------
# checkers

# each level's suite: the denominator of its budget shares, then its axioms
# as (name, arity, weight).  A sampled axiom runs on
# max(8, budget * weight // denominator) tuples, and on one when its weight
# is 0 (neg-zero has nothing to vary); a finite carrier runs every tuple.
_RING = (
    ("add-commutative", 2, 2),
    ("mul-associative", 3, 1),
    ("mul-unit", 1, 1),
    ("zero-mul", 1, 1),
)
_SUITES = {
    "full": (12, (
        ("associativity", 3, 4),
        ("neutral", 1, 1),
        ("negation-exists", 1, 1),
        ("negation-unique", 2, 2),
        ("reversal", 3, 2),
        ("neg-zero", 1, 0),
        ("neg-involution", 1, 1),
    )),
    "minimal": (8, (("weak-associativity", 3, 4), ("right-neutral", 1, 1), ("reversibility", 3, 3))),
    "multiring": (8, _RING + (("distributive-inclusion", 3, 2),)),
    "hyperring": (8, _RING + (("distributive-equality", 3, 2),)),
    "hyperfield": (8, _RING + (
        ("distributive-equality", 3, 2),
        ("mul-commutative", 2, 1),
        ("units-group", 1, 1),
        ("no-zero-divisors", 2, 1),
    )),
}


def _run_axiom(
    report: AxiomReport,
    X: Structure,
    axiom: str,
    arity: int,
    budget: int,
    rng: random.Random,
) -> None:
    pred = PREDICATES[axiom]
    count = 0
    for tup in _tuples(X, rng, arity, budget, axiom):
        count += 1
        if not pred(X, tup):
            report.add(axiom, False, tup, _wtext(X, tup))
            report.tuples_checked += count
            return
    report.add(axiom, True)
    report.tuples_checked += count


def _run_suite(report: AxiomReport, X: Structure, suite: str, budget: int, rng: random.Random) -> None:
    denominator, axioms = _SUITES[suite]
    for axiom, arity, weight in axioms:
        share = max(8, budget * weight // denominator) if weight else 1
        _run_axiom(report, X, axiom, arity, share, rng)


def check_multigroup(
    X: Structure,
    mode: str = "full",
    budget: int = 2000,
    rng: random.Random | None = None,
) -> AxiomReport:
    """Verify the multigroup axioms for (carrier, add, neg, zero).

    `full` checks associativity, two-sided neutrality, existence/uniqueness of
    negation and the reversal law; `minimal` checks the reduced axiom set
    (weak associativity, right neutrality, reversibility).
    """
    if mode not in ("full", "minimal"):
        raise ValueError(f"unknown mode {mode!r}")
    rep = AxiomReport(structure=X.name)
    _run_suite(rep, X, mode, budget, rng or random.Random(0))
    return rep


def check_multiring(
    X: Structure,
    level: str = "multiring",
    budget: int = 2000,
    rng: random.Random | None = None,
) -> AxiomReport:
    """Check multiring axioms, upgrading distributivity to equality at the
    hyperring level and adding the multiplicative-group laws at hyperfield
    level.  The full multigroup suite gets half the budget."""
    if level not in ("multiring", "hyperring", "hyperfield"):
        raise ValueError(f"unknown level {level!r}")
    rng = rng or random.Random(0)
    rep = check_multigroup(X, "full", budget // 2, rng)
    _run_suite(rep, X, level, budget, rng)
    return rep


def _product_outside_expansion(X: Structure, sides, rng: random.Random) -> str | None:
    """The text of (a+b)(x+y), or of a point of it, outside ax+ay+bx+by, or
    None.

    A carrier with a symbolic set product is decided by one `subset`, and a
    breach names the product; `quat` tests the products of
    the points `pick` draws from a+b and x+y.  Both make the same draws, so
    the rng stream does not depend on the carrier's set product.  The list
    comprehension draws pick(x+y) anew for each point of pick(a+b), so a
    carrier with a set product makes, and discards, 1 + |pick(a+b)| picks
    per tuple."""
    sab, sxy, expansion, product = sides
    pairs = [(u, v) for u in X.pick(sab, rng, 2) for v in X.pick(sxy, rng, 2)]
    if product is None:
        for u, v in pairs:
            w = X.mul(u, v)
            if not X.member(w, expansion):
                return X.format_elem(w)
        return None
    return None if X.subset(product, expansion) else X.format_set(product)


def check_double_distributivity(
    X: Structure,
    budget: int = 2000,
    rng: random.Random | None = None,
) -> AxiomReport:
    """(a+b)(x+y) against ax+ay+bx+by.

    The forward containment must hold in any multiring; a violation raises
    DoubleDistributivityViolation.  The reverse containment is reported with
    a witness when it fails.  Both halves are decided by set algebra on the
    product (a+b)(x+y) wherever the carrier multiplies sets; only `quat`,
    which has no symbolic set product, samples them.
    """
    rng = rng or random.Random(0)
    rep = AxiomReport(structure=X.name)
    reverse_witness = None
    for tup in _tuples(X, rng, 4, budget):
        rep.tuples_checked += 1
        sides = _dd_sides(X, tup)
        outside = _product_outside_expansion(X, sides, rng)
        if outside is not None:
            a, b, x, y = (X.format_elem(t) for t in tup)
            raise DoubleDistributivityViolation(
                f"{X.name}: ({a}+{b})({x}+{y}) not inside the expanded sum at {outside}"
            )
        if reverse_witness is None and not _expansion_inside_product(X, sides, rng):
            reverse_witness = tup
    rep.add("half-double-distributivity", True)
    if reverse_witness is None:
        rep.add("double-distributivity", True)
    else:
        rep.add("double-distributivity", False, reverse_witness, _wtext(X, reverse_witness),
                detail="reverse inclusion failed")
    return rep


@dataclass(frozen=True)
class CharResult:
    """Characteristic value; value 0 is exact when the fold stabilized."""

    value: int
    stabilized: bool


def characteristic(X: Structure, cap: int = 64) -> CharResult:
    """Smallest n <= cap with 0 in the n-fold sum of 1."""
    if cap < 2:
        raise ValueError("cap must be at least 2")
    s = X.singleton(X.one)
    for n in range(1, cap + 1):
        if X.member(X.zero, s):
            return CharResult(n, False)
        nxt = X.add_sets(s, X.singleton(X.one))
        if X.set_eq(nxt, s):
            return CharResult(0, True)
        s = nxt
    return CharResult(0, False)


def c_characteristic(X: Structure, cap: int = 64) -> CharResult:
    """Smallest n <= cap such that the (n+1)-fold sum of 1 contains 1."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    s = X.singleton(X.one)
    for n in range(1, cap + 1):
        nxt = X.add_sets(s, X.singleton(X.one))
        if X.member(X.one, nxt):
            return CharResult(n, False)
        if X.set_eq(nxt, s):
            return CharResult(0, True)
        s = nxt
    return CharResult(0, False)


# ---------------------------------------------------------------------------
# map verdicts: one pair function per kind of map returns those that fail


def _hom_pair(f, X, Y, pair, rng, pending) -> list:
    """The verdicts of `pending` that fail on (a, b).  additive-containment:
    each of 3 points `pick` draws from a+b maps into f(a)+f(b).
    multiplicative: f(ab) = f(a)f(b), held when X or Y has no multiplication.
    strong: each of 3 points `pick` draws from f(a)+f(b) is a mapped one."""
    a, b = pair
    img = Y.add(f(a), f(b))
    mapped = [f(c) for c in X.pick(X.add(a, b), rng, 3)]
    fails = []
    if "additive-containment" in pending and not all(Y.member(fc, img) for fc in mapped):
        fails.append("additive-containment")
    if "multiplicative" in pending and X.has_mul and Y.has_mul and not Y.eq(f(X.mul(a, b)), Y.mul(f(a), f(b))):
        fails.append("multiplicative")
    if "strong" in pending and not all(any(Y.eq(d, fc) for fc in mapped) for d in Y.pick(img, rng, 3)):
        fails.append("strong")
    return fails


def _maps_to(f, Y: Structure, target, X, tup) -> bool:
    return Y.eq(f(tup[0]), target)


def _replay_pair(decide, axiom: str, f, Y: Structure, X, pair) -> bool:
    return axiom not in decide(f, X, Y, pair, random.Random(0), (axiom,))


def check_map(rep: HomReport, f, X, Y: Structure, units, pairs, decide, rng: random.Random) -> HomReport:
    """Settle the verdicts of f: X -> Y into `rep`, each a Check whose
    predicate `replay` re-runs.

    Each (verdict, x, target) of `units` holds when f(x) is `target`.  The
    pair verdicts are decided by one call `decide(f, X, Y, pair, rng, pending)`
    per pair, which returns the verdicts of `pending` that fail on it, in
    table order; a failed verdict keeps that pair as its witness and leaves
    `pending`.  Its predicate re-runs `decide` on the witness for it alone,
    drawing from Random(0).  X is None for the polynomials of w."""

    def settle(axiom: str, witness, predicate) -> None:
        text = "" if witness is None else _wtext(X, witness)
        rep.add(axiom, witness is None, witness, text, predicate=predicate)

    for axiom, x, target in units:
        holds = partial(_maps_to, f, Y, target)
        settle(axiom, None if holds(X, (x,)) else (x,), holds)
    pending = list(_PAIR_VERDICTS)
    failed: dict = {}  # verdict -> its first failing pair, in the order they failed
    for pair in pairs:
        rep.tuples_checked += 1
        for axiom in decide(f, X, Y, pair, rng, pending):
            failed[axiom] = pair
            pending.remove(axiom)
    for axiom in [*failed, *pending]:
        settle(axiom, failed.get(axiom), partial(_replay_pair, decide, axiom, f, Y))
    return rep


def check_hom(
    f,
    X: Structure,
    Y: Structure,
    budget: int = 500,
    rng: random.Random | None = None,
    name: str = "f",
) -> HomReport:
    """Verify f as a multiring homomorphism X -> Y on the checked domain.

    Additive containment is tested pointwise: every sampled c in a+b must map
    into f(a) + f(b).  Strongness is coverage: every picked point of
    f(a) + f(b) must be some f(c), which is exact when X and Y are finite
    (`pick` then lists every element) and sampled otherwise.
    """
    rng = rng or random.Random(0)
    rep = HomReport(name, strong_exact=X.is_finite and Y.is_finite)
    units = [("zero-preserved", X.zero, Y.zero)]
    if X.has_one and Y.has_one:
        units.append(("one-preserved", X.one, Y.one))
    else:
        rep.add("one-preserved", True)
    pairs = list(_tuples(X, rng, 2, budget))
    check_map(rep, f, X, Y, units, pairs, _hom_pair, rng)
    domain = X.elements() if X.is_finite else [e for pair in pairs[: budget // 2] for e in pair]
    # the report lists the first 16 distinct elements of each kernel
    kernel_seen: list = []
    mul_kernel_seen: list = []
    for a in domain:
        fa = f(a)
        if len(kernel_seen) < 16 and Y.eq(fa, Y.zero) and not any(X.eq(a, k) for k in kernel_seen):
            kernel_seen.append(a)
        if (
            len(mul_kernel_seen) < 16
            and Y.has_one
            and Y.eq(fa, Y.one)
            and not any(X.eq(a, k) for k in mul_kernel_seen)
        ):
            mul_kernel_seen.append(a)
    rep.kernel = [X.format_elem(a) for a in kernel_seen]
    rep.mul_kernel = [X.format_elem(a) for a in mul_kernel_seen]
    return rep
