"""Monomial and p-adic tropical additions."""
import math
import random
from fractions import Fraction

import pytest

from hyperalg.axioms import stratified_tuples
from hyperalg.csets import ComplexElem, InvalidSetError, member as cmember
from hyperalg.ctrop import ct_add
from hyperalg.exotic import (
    INDETERMINATE,
    MCone,
    MZERO,
    MonomialElem,
    PCone,
    PadicElem,
    VPoint,
    format_monomial,
    format_padic,
    member,
    mnormalize,
    mono_add,
    mono_add_sets,
    mono_inv,
    mono_mul,
    mono_mul_sets,
    mono_neg,
    mpick,
    padic_add,
    padic_add_sets,
    padic_classical_add,
    padic_from_digits,
    padic_inv,
    padic_mul,
    padic_neg,
    padic_one,
    padic_zero,
    parse_monomial,
    parse_padic,
    pnormalize,
    set_eq,
    subset,
)
from hyperalg.realhf import check_seminorm, ultra_add
from hyperalg.rsets import rmember
from hyperalg.structures import get_structure
from hyperalg.tolerance import RepresentationClosureError, Tolerance


def mono(c, e):
    return MonomialElem(complex(c), e)


class TestMonomialAdd:
    def test_dominant_exponent(self):
        assert mono_add(mono(3, 2), mono(4, 1)) == VPoint(mono(3, 2))

    def test_tie_adds_coefficients(self):
        assert mono_add(mono(1, 0), mono(1, 0)) == VPoint(mono(2, 0))

    def test_cancellation_cone(self):
        assert mono_add(mono(2, 1), mono(-2, 1)) == MCone(1)

    def test_zero_neutral(self):
        assert mono_add(MZERO, mono(5, 3)) == VPoint(mono(5, 3))

    def test_mul(self):
        assert mono_mul(mono(3, 2), mono(4, 1)) == mono(12, 3)
        assert mono_mul(mono(7, 1), MZERO) == MZERO
        got = mono_mul(mono(2, 1), mono_inv(mono(2, 1)))
        assert got.eq(mono(1, 0))

    def test_neg_cancels(self):
        a = mono(3 + 4j, 2.5)
        assert mono_add(a, mono_neg(a)) == MCone(2.5)

    @pytest.mark.parametrize("e", [1e308, 10**308, Fraction(10**308)], ids=["real", "int", "rational"])
    def test_mul_exponent_leaving_the_float_range_raises(self, e):
        with pytest.raises(InvalidSetError, match="float range"):
            mono_mul(mono(1, e), mono(1, e))

    @pytest.mark.parametrize("big", [2**53 + 1, Fraction(2**53 + 1)], ids=["int", "rational"])
    def test_exponents_beyond_float_precision_compare_exactly(self, big):
        # 2^53 + 1 and 2^53 round to the same float
        a = mono(1, big)
        assert mono_add(a, mono(-1, big - 1)) == VPoint(a)
        assert mono_add(mono(-1, big - 1), a) == VPoint(a)
        assert not a.eq(mono(1, big - 1)) and a.eq(mono(1, big))
        assert format_monomial(a) == "1t^9007199254740993"
        assert str(MCone(big)) == "below t^9007199254740993"

    def test_coefficient_leaving_the_float_range_raises(self):
        with pytest.raises(InvalidSetError, match="not finite"):
            mono_add(mono(1e308, 1), mono(1e308, 1))
        with pytest.raises(InvalidSetError, match="not finite"):
            mono_mul(mono(1e200, 1), mono(1e200, 1))
        with pytest.raises(InvalidSetError, match="not finite"):
            mono_inv(mono(1e-320, 1))


class TestMonomialSets:
    def test_cone_absorbs_deeper_point(self):
        got = mono_add_sets(MCone(2.0), VPoint(mono(5, 1.0)))
        assert set_eq(got, MCone(2.0))

    def test_cone_at_bound_yields_point(self):
        got = mono_add_sets(MCone(1.0), VPoint(mono(5, 1.0)))
        assert set_eq(got, VPoint(mono(5, 1.0)))

    def test_point_cancellation(self):
        got = mono_add_sets(VPoint(mono(2, 1)), VPoint(mono(-2, 1)))
        assert set_eq(got, MCone(1))

    def test_associativity_cases(self, rng):
        # the full case analysis: dominant / tie / cancellation chains
        for _ in range(200):
            u = rng.uniform(-2, 2)
            a = MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), u)
            b_choices = [
                MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), u),
                mono_neg(a),
                MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), rng.uniform(-2, 2)),
                MZERO,
            ]
            b = rng.choice(b_choices)
            c_choices = b_choices + [
                mono_neg(b) if not b.zero else MZERO,
                MonomialElem(-(a.coeff + b.coeff), u)
                if (not b.zero and not a.zero and abs(float(b.exponent) - u) < 1e-12 and a.coeff + b.coeff != 0)
                else MZERO,
            ]
            c = rng.choice(c_choices)
            lhs = mono_add_sets(mono_add(a, b), VPoint(c))
            rhs = mono_add_sets(VPoint(a), mono_add(b, c))
            assert set_eq(lhs, rhs), (a, b, c)

    def test_distributivity(self, rng):
        for _ in range(150):
            u = rng.uniform(-2, 2)
            a = MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), rng.uniform(-2, 2))
            b = MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), u)
            c = rng.choice([mono_neg(b), MonomialElem(complex(rng.gauss(0, 1) or 1), u)])
            lhs = mono_mul_sets(VPoint(a), mono_add(b, c))
            rhs = mono_add_sets(VPoint(mono_mul(a, b)), VPoint(mono_mul(a, c)))
            assert set_eq(lhs, rhs)

    def test_cone_product_in_each_domain(self):
        cases = [
            ("real", 1.5, -0.5, 1.0),
            ("rational", Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)),
            # integer exponents below 2 and below -1 are at most 1 and -2
            ("int", 2, -1, 0),
        ]
        for domain, b1, b2, product in cases:
            assert mono_mul_sets(MCone(b1), MCone(b2), domain) == MCone(product)
            X = get_structure("mono" if domain == "real" else f"mono-{domain}")
            assert X.mul_sets(MCone(b1), MCone(b2)) == MCone(product), domain

    def test_exponent_domains(self):
        q = parse_monomial("2t^1/2", domain="rational")
        assert q.exponent == Fraction(1, 2)
        i = parse_monomial("2t^3", domain="int")
        assert i.exponent == 3 and isinstance(i.exponent, int)

    def test_alternate_domains_are_multigroups(self):
        import random

        from hyperalg.axioms import check_multigroup
        from hyperalg.structures import get_structure

        for name in ("mono-int", "mono-rational"):
            rep = check_multigroup(get_structure(name), budget=400, rng=random.Random(5))
            assert rep.passed, (name, rep.failures())

    def test_forgetful_map_into_complex_carrier(self, rng):
        # a*t^r -> (a/|a|) e^r respects the additions on samples
        def fwd(m: MonomialElem) -> ComplexElem:
            if m.zero:
                return ComplexElem(0, 0)
            return ComplexElem(math.exp(float(m.exponent)), math.atan2(m.coeff.imag, m.coeff.real))

        for _ in range(150):
            u = rng.uniform(-1.5, 1.5)
            a = MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), u)
            b = rng.choice(
                [
                    MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), u),
                    mono_neg(a),
                    MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), rng.uniform(-1.5, 1.5)),
                ]
            )
            target = ct_add(fwd(a), fwd(b), Tolerance(1e-7))
            s = mono_add(a, b)
            probes = [a] if isinstance(s, VPoint) else []
            if isinstance(s, VPoint):
                probes = [s.elem]
            else:
                probes = [MZERO, MonomialElem(complex(1, 1), float(s.bound) - 0.3)]
            for p in probes:
                assert cmember(fwd(p), target, Tolerance(1e-6))

    def test_format_parse(self):
        m = parse_monomial("(1+2i)t^0.5")
        assert m.coeff == 1 + 2j and m.exponent == 0.5
        assert set_eq(VPoint(parse_monomial(format_monomial(m))), VPoint(m))

    def test_huge_real_exponent_prints_in_exponent_form_and_parses_back(self):
        m = MonomialElem(2 + 0j, 1e20)
        assert format_monomial(m) == "2t^1e+20"
        assert parse_monomial(format_monomial(m)) == m

    @pytest.mark.parametrize(
        "exponent,text",
        [(Fraction(1, 3), "1/3"), (Fraction(-7, 2), "-7/2"), (Fraction(1, 10**12), "1/1000000000000")],
    )
    def test_rational_exponent_prints_exactly_and_parses_back(self, exponent, text):
        m = MonomialElem(2 + 0j, exponent)
        assert format_monomial(m) == f"2t^{text}"
        assert parse_monomial(format_monomial(m), "rational") == m
        assert str(MCone(exponent)) == f"below t^{text}"


def pe(p, e, digits, depth=8):
    return padic_from_digits(p, e, list(digits), depth)


class TestCones:
    @pytest.mark.parametrize("bound", [2**53 + 1, 2**53 + 3])
    def test_int_cone_samples_below_an_exact_bound(self, bound):
        cone = MCone(bound)
        pts = mpick(cone, random.Random(0), "int")
        assert pts[0] == MZERO
        assert [p.exponent for p in pts[1:]] == [bound - 1, bound - 2, bound - 4]
        assert all(member(p, cone) for p in pts)

    def test_cones_are_open(self):
        # an element at a cone's bound is not in the cone, in both families
        assert not member(mono(1, 0), MCone(0))
        assert not member(pe(5, 0, [1]), PCone(5, 0))
        assert member(mono(1, -0.5), MCone(0)) and member(pe(5, 1, [1]), PCone(5, 0))
        assert member(MZERO, MCone(0)) and member(padic_zero(5), PCone(5, 0))
        at_bound = VPoint(mono(1, 0))
        assert not subset(at_bound, MCone(0)) and not set_eq(at_bound, MCone(0))
        assert subset(MCone(-1), MCone(0)) and not subset(MCone(0), MCone(-1))

    @pytest.mark.parametrize(
        "name", ["mono", "mono-int", "mono-rational", "padic:2:8", "padic:3:8", "padic:5:8"]
    )
    def test_equality_is_containment_both_ways(self, name):
        X = get_structure(name)
        for a, b, c in stratified_tuples(X, random.Random(3), 3, 300):
            ab, bc = X.add(a, b), X.add(b, c)
            outs = [
                ab,
                bc,
                X.add_sets(ab, X.singleton(c)),
                X.add_sets(X.singleton(a), bc),
                X.mul_sets(ab, bc),
            ]
            for s in outs:
                for t in outs:
                    assert X.set_eq(s, t) == (X.subset(s, t) and X.subset(t, s)), (s, t)


class TestNormalForm:
    """The normal form of a valued set is one component, a point or a cone: a
    cone absorbs the points below it, a point at or above it dominates, and
    the normalizers reject anything other than one component."""

    def test_monomial_cone_and_points(self):
        cone = MCone(0.5)
        for below in (VPoint(mono(1, -1)), VPoint(MZERO), VPoint(mono(-1, 0.5 - 1e-3))):
            assert mono_add_sets(cone, below) == cone and mono_add_sets(below, cone) == cone
        for above in (VPoint(mono(1, 0.5)), VPoint(mono(2, 1)), VPoint(mono(-1, 3))):
            assert mono_add_sets(cone, above) == above and mono_add_sets(above, cone) == above
        with pytest.raises(RepresentationClosureError):
            mnormalize([cone, VPoint(mono(1, 1.5))])

    def test_padic_cone_and_points(self):
        cone = PCone(5, -1)  # norm below 5
        for below in (VPoint(pe(5, 0, [4, 1])), VPoint(padic_zero(5)), VPoint(pe(5, 1, [2]))):
            assert padic_add_sets(cone, below) == cone and padic_add_sets(below, cone) == cone
        for above in (VPoint(pe(5, -1, [3, 1])), VPoint(pe(5, -2, [1]))):
            assert padic_add_sets(cone, above) == above and padic_add_sets(above, cone) == above
        with pytest.raises(RepresentationClosureError):
            pnormalize([cone, VPoint(pe(5, -1, [3, 1]))])

    def test_two_part_mnormalize_raises(self):
        for parts in ([MCone(0.5), VPoint(mono(1, 1))], [VPoint(mono(1, 0)), VPoint(mono(-1, 0))], []):
            with pytest.raises(RepresentationClosureError):
                mnormalize(parts)
        assert mnormalize([MCone(0)]) == MCone(0)

    def test_two_part_pnormalize_raises(self):
        for parts in ([PCone(5, -1), VPoint(pe(5, -1, [3, 1]))], [VPoint(padic_zero(5))] * 2, []):
            with pytest.raises(RepresentationClosureError):
                pnormalize(parts)
        assert pnormalize([PCone(5, 2)]) == PCone(5, 2)


class TestPadicAdd:
    def test_dominant_norm(self):
        a = pe(5, -1, [1])  # 5^-1, norm 5
        b = pe(5, 0, [1])  # 1, norm 1
        assert set_eq(padic_add(a, b), VPoint(a))

    def test_digit_addition(self):
        a = pe(5, 0, [1])
        got = padic_add(a, a)
        assert set_eq(got, VPoint(pe(5, 0, [2])))

    def test_leading_cancellation(self):
        a = pe(5, 0, [2])
        b = pe(5, 0, [3])
        assert set_eq(padic_add(a, b), PCone(5, 0))

    def test_carry_propagation(self):
        a = pe(5, 0, [3, 4])
        b = pe(5, 0, [3, 3])
        # 3+3=6 -> digit 1 carry 1; 4+3+1=8 -> digit 3 carry 1
        got = padic_add(a, b)
        assert set_eq(got, VPoint(pe(5, 0, [1, 3, 1])))

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            padic_add(pe(5, 0, [1]), pe(3, 0, [1]))

    def test_neg_is_negation(self):
        for p in (2, 3, 5):
            a = pe(p, 1, [1, 0, p - 1, 1])
            s = padic_classical_add(a, padic_neg(a))
            assert s is INDETERMINATE  # full cancellation beyond truncation
            assert member(padic_zero(p), padic_add(a, padic_neg(a)))

    def test_mul_inv(self):
        a = pe(5, -2, [2, 3, 0, 1])
        got = padic_mul(a, padic_inv(a))
        assert got.eq(padic_one(5, 8))

    def test_norm_is_ultrametric(self, rng):
        def norm(x: PadicElem) -> float:
            return x.norm()

        sample = [padic_zero(5), padic_one(5, 8)]
        for _ in range(10):
            e = rng.randint(-2, 2)
            digits = [rng.randint(1, 4)] + [rng.randint(0, 4) for _ in range(7)]
            sample.append(pe(5, e, digits))

        def add(x, y):
            s = padic_classical_add(x, y)
            if s is INDETERMINATE:
                return padic_zero(5)  # norm 0 is inside every ultra sum
            return s

        rep = check_seminorm(norm, sample, kind="non-archimedean", add=add, mul=padic_mul)
        assert rep.passed, rep.failures()


class TestPadicSets:
    def test_cone_absorbs_deeper(self):
        got = padic_add_sets(PCone(5, 0), VPoint(pe(5, 1, [2])))
        assert set_eq(got, PCone(5, 0))

    def test_dominant_point_wins(self):
        got = padic_add_sets(PCone(5, 0), VPoint(pe(5, 0, [2])))
        assert set_eq(got, VPoint(pe(5, 0, [2])))

    def test_formula_is_not_associative(self):
        """The literal leading-digit cancellation rule breaks associativity:
        (a+a)+c = {c} while a+(a+c) = {a} once leading digits tie-cancel.
        Pinned here as a known property of the specified operation."""
        a = pe(2, 0, [1])
        c = pe(2, 0, [1, 1])
        lhs = padic_add_sets(padic_add(a, a), VPoint(c))
        rhs = padic_add_sets(VPoint(a), padic_add(a, c))
        assert set_eq(lhs, VPoint(c))
        assert set_eq(rhs, VPoint(a))
        assert not set_eq(lhs, rhs)

    def test_negation_is_not_unique(self):
        """Any same-valuation element with complementary leading digit
        absorbs to zero, so the negation axiom has many witnesses."""
        a = pe(5, 0, [2])
        x = pe(5, 0, [3, 4])  # not the digitwise negation of a
        assert not x.eq(padic_neg(a))
        assert member(padic_zero(5), padic_add(a, x))

    def test_associativity_on_nondegenerate_strata(self, rng):
        # away from tie-cancellation chains the operation is associative
        for p in (2, 3, 5):
            for _ in range(80):
                es = [rng.randint(-2, 2) for _ in range(3)]
                if len(set(es)) < 3:
                    continue
                elems = []
                for e in es:
                    digits = [rng.randint(1, p - 1)] + [rng.randint(0, p - 1) for _ in range(7)]
                    elems.append(pe(p, e, digits))
                a, b, c = elems
                lhs = padic_add_sets(padic_add(a, b), VPoint(c))
                rhs = padic_add_sets(VPoint(a), padic_add(b, c))
                assert set_eq(lhs, rhs)

    def test_distributivity(self, rng):
        for p in (3, 5):
            for _ in range(80):
                def relem(e=None):
                    ee = rng.randint(-2, 2) if e is None else e
                    digits = [rng.randint(1, p - 1)] + [
                        rng.randint(0, p - 1) for _ in range(7)
                    ]
                    return pe(p, ee, digits)

                a = relem()
                b = relem()
                c = rng.choice([relem(b.e), padic_neg(b)])
                lhs = __import__("hyperalg.exotic", fromlist=["padic_mul_sets"]).padic_mul_sets(
                    VPoint(a), padic_add(b, c)
                )
                rhs = padic_add_sets(VPoint(padic_mul(a, b)), VPoint(padic_mul(a, c)))
                assert set_eq(lhs, rhs), (a, b, c)


class TestPadicText:
    def test_parse_simple(self):
        a = parse_padic("2 + 3*5 + 1*5^2", 5, 8)
        assert a.e == 0 and a.digits[:3] == (2, 3, 1)

    def test_parse_shifted(self):
        a = parse_padic("5^-1 * (1 + 2*5)", 5, 8)
        assert a.e == -1 and a.digits[:2] == (1, 2)

    def test_roundtrip(self):
        a = pe(5, -1, [1, 2, 0, 3])
        assert parse_padic(format_padic(a), 5, 8).eq(a)

    @pytest.mark.parametrize(
        "text,p,depth,e",
        [
            ("3125", 5, 3, 5),
            ("1024", 2, 3, 10),
            ("24 + 1", 5, 2, 2),
            ("8 + 2^3", 2, 3, 4),
            ("0*5 + 5^3", 5, 3, 3),
            # the zero digits of 10^99999 are skipped up to the next term only
            ("10^99999 + 2^5", 2, 3, 5),
        ],
    )
    def test_parse_keeps_the_top_carry(self, text, p, depth, e):
        assert parse_padic(text, p, depth) == pe(p, e, [1], depth)

    @pytest.mark.parametrize(
        "text,e,digits",
        [("7", 0, [2, 1]), ("25", 2, [1]), ("5", 1, [1]), ("1 + 1 + 1", 0, [3]), ("9 + 3^2", 0, [3, 3])],
    )
    def test_bare_integers_parse_to_their_value(self, text, e, digits):
        # a bare digit string is a power of its own base: p itself is p^1,
        # any other base folds its value into the units digit
        assert get_structure("padic:5:6").parse_elem(text) == pe(5, e, digits, 6)

    def test_zero(self):
        assert parse_padic("0", 5, 8).is_zero
        assert format_padic(padic_zero(5)) == "0"


# the first 20 random_elem draws of each carrier at Random(0), then the pick of
# the cone below p^1 from the same rng, recorded when random_unit took one
# randrange per unit: a change of representation must leave them alone
SEEDED_DRAWS = {
    "padic:2:8": (
        [
            "2^3 + 2^4 + 2^5 + 2^7 + 2^9 + 2^10",
            "0",
            "1 + 2 + 2^2 + 2^3 + 2^6 + 2^7",
            "2^3 + 2^4 + 2^6 + 2^7 + 2^10",
            "2^-1 + 1 + 2 + 2^2 + 2^4 + 2^5",
            "2^-1 + 1 + 2 + 2^5",
            "2 + 2^8",
            "2 + 2^2 + 2^4 + 2^7",
            "2^2 + 2^4 + 2^7",
            "2^2 + 2^5 + 2^7 + 2^9",
            "2^-3 + 2^-1 + 2 + 2^2 + 2^4",
            "2 + 2^4 + 2^6 + 2^7",
            "1 + 2 + 2^5 + 2^6 + 2^7",
            "2^-1 + 1 + 2 + 2^2 + 2^3",
            "2 + 2^2 + 2^3",
            "2^3 + 2^5 + 2^6 + 2^9 + 2^10",
            "2^3",
            "2^3 + 2^4 + 2^6 + 2^8 + 2^10",
            "2^-1 + 2^4",
            "2 + 2^5 + 2^6 + 2^7",
        ],
        ["0", "1 + 2 + 2^3 + 2^4 + 2^5 + 2^6", "2 + 2^4 + 2^7"],
    ),
    "padic:3:8": (
        [
            "2*3^3 + 3^5 + 2*3^6 + 3^9 + 2*3^10",
            "0",
            "2 + 2*3 + 3^3 + 3^4 + 2*3^5 + 2*3^7",
            "3^3 + 3^7 + 2*3^9 + 3^10",
            "2*3^-1 + 3 + 2*3^4 + 3^6",
            "3^-1 + 2 + 3 + 3^4 + 2*3^5",
            "3 + 2*3^5 + 3^7 + 3^8",
            "2*3 + 3^2 + 2*3^3 + 3^5 + 3^6 + 2*3^7",
            "3^2 + 2*3^3 + 3^4 + 2*3^6 + 3^8",
            "3^2 + 2*3^3 + 2*3^6 + 3^7 + 2*3^8 + 3^9",
            "3^-3 + 2 + 2*3 + 2*3^2 + 2*3^3 + 3^4",
            "2*3 + 3^5 + 3^6 + 3^8",
            "1 + 3 + 3^2 + 3^4 + 3^5 + 3^6 + 2*3^7",
            "3^-1 + 3 + 3^2 + 3^5",
            "2*3 + 3^3 + 2*3^5",
            "2*3^3 + 3^4 + 3^5 + 3^6 + 2*3^8 + 2*3^10",
            "2*3^3 + 3^4 + 3^5",
            "2*3^3 + 2*3^4 + 3^5 + 3^6 + 2*3^7 + 3^8 + 2*3^9 + 3^10",
            "2*3^-1 + 2 + 3 + 3^2 + 3^5",
            "3 + 2*3^2 + 2*3^3 + 3^4 + 2*3^6 + 3^8",
        ],
        ["0", "1 + 2*3 + 3^2 + 3^6 + 3^7", "2*3 + 3^2 + 2*3^3 + 3^4 + 3^6 + 2*3^7"],
    ),
    "padic:5:8": (
        [
            "5^3 + 5^7 + 3*5^8 + 2*5^9 + 3*5^10",
            "0",
            "3 + 3*5^3 + 4*5^4 + 4*5^5 + 5^6 + 3*5^7",
            "4*5^3 + 5^5 + 3*5^7 + 3*5^8 + 2*5^9 + 2*5^10",
            "5^-1 + 3*5 + 3*5^2 + 5^3 + 2*5^4 + 4*5^5 + 4*5^6",
            "2*5^-2 + 5 + 4*5^2 + 5^4 + 4*5^5",
            "3*5^-2 + 4*5^-1 + 2*5 + 4*5^2 + 4*5^3 + 3*5^4",
            "5^-1 + 4 + 2*5^2 + 3*5^3 + 5^4 + 2*5^5 + 4*5^6",
            "3*5^3 + 2*5^4 + 2*5^5 + 4*5^7 + 5^9 + 5^10",
            "3*5^2 + 3*5^4 + 5^5 + 2*5^6 + 3*5^8",
            "3*5^2 + 4*5^3 + 5^5 + 5^6 + 4*5^7 + 3*5^8 + 2*5^9",
            "5^-3 + 2*5^-2 + 4*5^-1 + 4 + 4*5^2 + 4*5^3 + 2*5^4",
            "2*5 + 5^2 + 2*5^4 + 4*5^5 + 2*5^6 + 3*5^7 + 5^8",
            "3 + 4*5 + 4*5^2 + 4*5^4 + 2*5^5 + 3*5^6 + 3*5^7",
            "5^-1 + 3 + 2*5 + 5^2 + 3*5^4 + 2*5^5",
            "2*5 + 3*5^3 + 3*5^4 + 4*5^5 + 2*5^6",
            "3*5^3 + 4*5^4 + 4*5^5 + 3*5^7 + 3*5^8 + 5^9 + 3*5^10",
            "4*5^3 + 4*5^4 + 4*5^5 + 5^7",
            "3*5^3 + 4*5^4 + 2*5^5 + 5^6 + 4*5^7 + 4*5^8 + 3*5^9 + 2*5^10",
            "2*5^-1 + 5 + 5^3 + 3*5^4 + 2*5^5",
        ],
        ["0", "3 + 3*5 + 3*5^2 + 5^3 + 3*5^6 + 5^7", "4*5 + 4*5^2 + 5^3 + 4*5^6 + 3*5^7 + 4*5^8"],
    ),
}


@pytest.mark.parametrize("name", sorted(SEEDED_DRAWS))
def test_seeded_draws_are_pinned(name):
    """Every seeded witness of a p-adic check follows from these draws."""
    X = get_structure(name)
    rng = random.Random(0)
    elems = [X.format_elem(X.random_elem(rng)) for _ in range(20)]
    picks = [X.format_elem(x) for x in X.pick(PCone(X.p, -1), rng)]
    assert (elems, picks) == SEEDED_DRAWS[name]
