"""Monomial and p-adic tropical additions."""
import math
from fractions import Fraction

import pytest

from hyperalg.csets import ComplexElem, InvalidSetError, member as cmember
from hyperalg.ctrop import ct_add
from hyperalg.exotic import (
    INDETERMINATE,
    MCone,
    MPoint,
    MZERO,
    MonomialElem,
    PCone,
    PPoint,
    PadicElem,
    format_monomial,
    format_padic,
    mmember,
    mono_add,
    mono_add_sets,
    mono_inv,
    mono_mul,
    mono_mul_sets,
    mono_neg,
    mset_eq,
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
    pmember,
    pset_eq,
)
from hyperalg.realhf import check_seminorm, ultra_add
from hyperalg.rsets import rmember
from hyperalg.structures import get_structure
from hyperalg.tolerance import Tolerance


def mono(c, e):
    return MonomialElem(complex(c), e)


class TestMonomialAdd:
    def test_dominant_exponent(self):
        assert mono_add(mono(3, 2), mono(4, 1)) == MPoint(mono(3, 2))

    def test_tie_adds_coefficients(self):
        assert mono_add(mono(1, 0), mono(1, 0)) == MPoint(mono(2, 0))

    def test_cancellation_cone(self):
        assert mono_add(mono(2, 1), mono(-2, 1)) == MCone(1)

    def test_zero_neutral(self):
        assert mono_add(MZERO, mono(5, 3)) == MPoint(mono(5, 3))

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


class TestMonomialSets:
    def test_cone_absorbs_deeper_point(self):
        got = mono_add_sets(MCone(2.0), MPoint(mono(5, 1.0)))
        assert mset_eq(got, MCone(2.0))

    def test_cone_at_bound_yields_point(self):
        got = mono_add_sets(MCone(1.0), MPoint(mono(5, 1.0)))
        assert mset_eq(got, MPoint(mono(5, 1.0)))

    def test_point_cancellation(self):
        got = mono_add_sets(MPoint(mono(2, 1)), MPoint(mono(-2, 1)))
        assert mset_eq(got, MCone(1))

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
            lhs = mono_add_sets(mono_add(a, b), MPoint(c))
            rhs = mono_add_sets(MPoint(a), mono_add(b, c))
            assert mset_eq(lhs, rhs), (a, b, c)

    def test_distributivity(self, rng):
        for _ in range(150):
            u = rng.uniform(-2, 2)
            a = MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), rng.uniform(-2, 2))
            b = MonomialElem(complex(rng.gauss(0, 1) or 1, rng.gauss(0, 1)), u)
            c = rng.choice([mono_neg(b), MonomialElem(complex(rng.gauss(0, 1) or 1), u)])
            lhs = mono_mul_sets(MPoint(a), mono_add(b, c))
            rhs = mono_add_sets(MPoint(mono_mul(a, b)), MPoint(mono_mul(a, c)))
            assert mset_eq(lhs, rhs)

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
            probes = [a] if isinstance(s, MPoint) else []
            if isinstance(s, MPoint):
                probes = [s.elem]
            else:
                probes = [MZERO, MonomialElem(complex(1, 1), float(s.bound) - 0.3)]
            for p in probes:
                assert cmember(fwd(p), target, Tolerance(1e-6))

    def test_format_parse(self):
        m = parse_monomial("(1+2i)t^0.5")
        assert m.coeff == 1 + 2j and m.exponent == 0.5
        assert mset_eq(MPoint(parse_monomial(format_monomial(m))), MPoint(m))


def pe(p, e, digits, depth=8):
    return padic_from_digits(p, e, list(digits), depth)


class TestPadicAdd:
    def test_dominant_norm(self):
        a = pe(5, -1, [1])  # 5^-1, norm 5
        b = pe(5, 0, [1])  # 1, norm 1
        assert pset_eq(padic_add(a, b), PPoint(a))

    def test_digit_addition(self):
        a = pe(5, 0, [1])
        got = padic_add(a, a)
        assert pset_eq(got, PPoint(pe(5, 0, [2])))

    def test_leading_cancellation(self):
        a = pe(5, 0, [2])
        b = pe(5, 0, [3])
        assert pset_eq(padic_add(a, b), PCone(5, 0))

    def test_carry_propagation(self):
        a = pe(5, 0, [3, 4])
        b = pe(5, 0, [3, 3])
        # 3+3=6 -> digit 1 carry 1; 4+3+1=8 -> digit 3 carry 1
        got = padic_add(a, b)
        assert pset_eq(got, PPoint(pe(5, 0, [1, 3, 1])))

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            padic_add(pe(5, 0, [1]), pe(3, 0, [1]))

    def test_neg_is_negation(self):
        for p in (2, 3, 5):
            a = pe(p, 1, [1, 0, p - 1, 1])
            s = padic_classical_add(a, padic_neg(a))
            assert s is INDETERMINATE  # full cancellation beyond truncation
            assert pmember(padic_zero(p), padic_add(a, padic_neg(a)))

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
            sample.append(PadicElem(5, e, tuple(digits)))

        def add(x, y):
            s = padic_classical_add(x, y)
            if s is INDETERMINATE:
                return padic_zero(5)  # norm 0 is inside every ultra sum
            return s

        rep = check_seminorm(norm, sample, kind="non-archimedean", add=add, mul=padic_mul)
        assert rep.passed, rep.witness


class TestPadicSets:
    def test_cone_absorbs_deeper(self):
        got = padic_add_sets(PCone(5, 0), PPoint(pe(5, 1, [2])))
        assert pset_eq(got, PCone(5, 0))

    def test_dominant_point_wins(self):
        got = padic_add_sets(PCone(5, 0), PPoint(pe(5, 0, [2])))
        assert pset_eq(got, PPoint(pe(5, 0, [2])))

    def test_cone_cone(self):
        got = padic_add_sets(PCone(5, 0), PCone(5, 2))
        assert pset_eq(got, PCone(5, 0))

    def test_formula_is_not_associative(self):
        """The literal leading-digit cancellation rule breaks associativity:
        (a+a)+c = {c} while a+(a+c) = {a} once leading digits tie-cancel.
        Pinned here as a known property of the specified operation."""
        a = pe(2, 0, [1])
        c = pe(2, 0, [1, 1])
        lhs = padic_add_sets(padic_add(a, a), PPoint(c))
        rhs = padic_add_sets(PPoint(a), padic_add(a, c))
        assert pset_eq(lhs, PPoint(c))
        assert pset_eq(rhs, PPoint(a))
        assert not pset_eq(lhs, rhs)

    def test_negation_is_not_unique(self):
        """Any same-valuation element with complementary leading digit
        absorbs to zero, so the negation axiom has many witnesses."""
        a = pe(5, 0, [2])
        x = pe(5, 0, [3, 4])  # not the digitwise negation of a
        assert not x.eq(padic_neg(a))
        assert pmember(padic_zero(5), padic_add(a, x))

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
                    elems.append(PadicElem(p, e, tuple(digits)))
                a, b, c = elems
                lhs = padic_add_sets(padic_add(a, b), PPoint(c))
                rhs = padic_add_sets(PPoint(a), padic_add(b, c))
                assert pset_eq(lhs, rhs)

    def test_distributivity(self, rng):
        for p in (3, 5):
            for _ in range(80):
                def relem(e=None):
                    ee = rng.randint(-2, 2) if e is None else e
                    digits = [rng.randint(1, p - 1)] + [
                        rng.randint(0, p - 1) for _ in range(7)
                    ]
                    return PadicElem(p, ee, tuple(digits))

                a = relem()
                b = relem()
                c = rng.choice([relem(b.e), padic_neg(b)])
                lhs = __import__("hyperalg.exotic", fromlist=["padic_mul_sets"]).padic_mul_sets(
                    PPoint(a), padic_add(b, c)
                )
                rhs = padic_add_sets(PPoint(padic_mul(a, b)), PPoint(padic_mul(a, c)))
                assert pset_eq(lhs, rhs), (a, b, c)


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

    @pytest.mark.parametrize("text,p,depth,e", [("3125", 5, 3, 5), ("1024", 2, 3, 10)])
    def test_parse_keeps_the_top_carry(self, text, p, depth, e):
        assert parse_padic(text, p, depth) == PadicElem(p, e, (1,) + (0,) * (depth - 1))

    def test_zero(self):
        assert parse_padic("0", 5, 8).is_zero
        assert format_padic(padic_zero(5)) == "0"
