"""Concrete homomorphisms, the leading-term map, polynomial evaluation."""
import math
import random

import pytest

from hyperalg import ctrop, homs
from hyperalg.axioms import replay
from hyperalg.csets import CDisk, CPoint, CZERO, ComplexElem, member as cmember, set_eq
from hyperalg.ctrop import ct_add
from hyperalg.homs import (
    HFPolynomial,
    Polynomial,
    abs_map,
    check_w_hom,
    hf_poly_eval,
    hf_polynomial,
    log_abs,
    parse_hf_poly,
    phase_map,
    sign_map,
    w_map,
)
from hyperalg.rsets import rinterval, rset_eq
from hyperalg.structures import get_structure
from hyperalg.tolerance import NEG_INF, Tolerance

PI = math.pi


class TestPointMaps:
    def test_sign(self):
        assert sign_map(-3) == -1
        assert sign_map(0) == 0
        assert sign_map(7) == 1

    def test_phase(self):
        assert phase_map(ComplexElem(2, PI / 3)).eq(ComplexElem(1, PI / 3))
        assert phase_map(CZERO) == CZERO
        assert phase_map(ComplexElem(5, PI)).eq(ComplexElem(1, PI))

    def test_abs_and_log(self):
        z = ComplexElem.from_xy(3, 4)
        assert abs_map(z) == pytest.approx(5)
        assert abs_map(CZERO) == 0
        assert log_abs(CZERO) == NEG_INF
        assert log_abs(ComplexElem(1, 2.0)) == pytest.approx(0.0)


class TestPolynomial:
    def test_add_cancels(self):
        p = Polynomial.make({1: 1, 0: 1})
        q = Polynomial.make({1: -1, 0: 1})
        assert (p + q).terms == ((0.0, 2 + 0j),)

    def test_mul(self):
        p = Polynomial.make({1: 1, 0: 1})
        assert (p * p).terms == ((2.0, 1 + 0j), (1.0, 2 + 0j), (0.0, 1 + 0j))

    def test_text_elides_unit_coefficients_with_their_sign(self):
        assert str(Polynomial.make({2: 1, 1: -1, 0: 1})) == "X^2 - X + 1"
        assert str(Polynomial.make({1: -1})) == "-X"
        assert str(Polynomial.make({3: -2, 0: -1})) == "-2X^3 - 1"
        assert str(Polynomial.make({1.5: -1.0, 0.5: 1.0})) == "-X^{1.5} + X^{0.5}"
        assert str(Polynomial.make({2: 1 - 2j, 1: -1 + 0j, 0: 3j})) == "(1-2i)X^2 - X + (0+3i)"
        assert str(Polynomial.make({})) == "0"


class TestWMap:
    def test_golden_values(self):
        assert w_map(Polynomial.make({2: 3, 1: 1})).eq(ComplexElem(math.exp(2), 0))
        assert w_map(Polynomial.make({})) == CZERO
        got = w_map(Polynomial.make({0.5: -2j}))
        assert got.eq(ComplexElem(math.exp(0.5), 3 * PI / 2))

    def test_degree_keeping_sum(self):
        p, q = Polynomial.make({1: 1, 0: 1}), Polynomial.make({1: 1, 0: -1})
        wpq = w_map(p + q)
        assert cmember(wpq, ct_add(w_map(p), w_map(q)))
        assert wpq.eq(ComplexElem(math.e, 0))

    def test_annihilation_lands_in_disk(self):
        p, q = Polynomial.make({1: 1}), Polynomial.make({1: -1})
        assert w_map(p + q) == CZERO
        assert cmember(CZERO, ct_add(w_map(p), w_map(q)))
        assert ct_add(w_map(p), w_map(q)) == CDisk(math.e)

    def test_tied_leaders(self):
        p, q = Polynomial.make({1: 1j}), Polynomial.make({1: 1})
        wpq = w_map(p + q)
        assert wpq.eq(ComplexElem(math.e, PI / 4))
        target = ct_add(w_map(p), w_map(q))
        assert cmember(wpq, target)

    def test_check_w_hom_all_strata(self):
        rep = check_w_hom(budget=600, rng=random.Random(12))
        assert rep.additive and rep.multiplicative, rep.witness_text

    def test_check_w_hom_real_exponents(self):
        rep = check_w_hom(budget=300, rng=random.Random(13), real_exponents=True)
        assert rep.additive and rep.multiplicative, rep.witness_text

    @pytest.mark.parametrize(
        "module, name, wrap, verdict",
        [
            # a sum that is its first operand misses w(p+q) when q dominates
            (ctrop, "ct_add", lambda f: lambda a, b, tol=None: CPoint(a), "additive-containment"),
            # modulus e^r + 1 is not multiplicative
            (homs, "w_map", lambda f: lambda p: ComplexElem(f(p).modulus + 1, f(p).argument) if f(p).modulus else f(p),
             "multiplicative"),
        ],
        ids=["ct_add-first-operand", "w_map-modulus-plus-one"],
    )
    def test_a_broken_w_fails_its_verdict_with_a_witness(self, monkeypatch, module, name, wrap, verdict):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
        rep = check_w_hom(budget=60, rng=random.Random(0))
        (bad,) = [c for c in rep.checks if c.axiom == verdict]
        assert not bad.passed and bad.witness is not None
        assert replay(None, bad) is False


class TestHFPolyEval:
    def test_complex_tropical_square(self):
        tc = get_structure("TC")
        p = hf_polynomial(tc, [((2,), tc.one), ((0,), tc.one)])  # X^2 + 1
        got = hf_poly_eval(p, (ComplexElem(1, PI / 2),))
        assert set_eq(got, CDisk(1))

    def test_krasner_poly(self):
        k = get_structure("K")
        p = parse_hf_poly(k, "X + 1")
        assert hf_poly_eval(p, ("1",)) == frozenset({"0", "1"})

    def test_triangle_poly(self):
        tri = get_structure("tri")
        p = parse_hf_poly(tri, "2X + 1")
        assert rset_eq(hf_poly_eval(p, (1.0,)), rinterval(1, 3))

    def test_zero_set_member(self):
        tc = get_structure("TC")
        p = parse_hf_poly(tc, "X + 1∠0")
        assert tc.member(tc.zero, hf_poly_eval(p, (ComplexElem(1, PI),)))
        assert not tc.member(tc.zero, hf_poly_eval(p, (ComplexElem(2, PI),)))
        s = get_structure("S")
        q = parse_hf_poly(s, "X^2 + 1")
        assert not s.member(s.zero, hf_poly_eval(q, ("-1",)))  # 1 + 1 = {1} in the sign table

    def test_association_order_immaterial(self, rng):
        tc = get_structure("TC")
        for _ in range(50):
            coeffs = [
                ComplexElem(math.exp(rng.uniform(-1, 1)), rng.uniform(0, 2 * PI))
                for _ in range(4)
            ]
            x = ComplexElem(math.exp(rng.uniform(-0.5, 0.5)), rng.uniform(0, 2 * PI))
            p = hf_polynomial(tc, [((k,), coeffs[k]) for k in range(4)])
            std = hf_poly_eval(p, (x,))
            monos = []
            for k in range(4):
                val = coeffs[k]
                for _ in range(k):
                    val = val.times(x)
                monos.append(val)
            # a different association order: ((m0 + m2) + m3) + m1
            alt = tc.singleton(monos[0])
            for idx in (2, 3, 1):
                alt = tc.add_sets(alt, tc.singleton(monos[idx]))
            assert tc.set_eq(std, alt)

    def test_multivariate_zero_set_closed_along_samples(self):
        # points (x, -x) satisfy 0 in x + y; so does their limit
        tc = get_structure("TC")
        p = hf_polynomial(tc, [((1, 0), tc.one), ((0, 1), tc.one)])  # X + Y
        limit = (ComplexElem(1, 1.0), ComplexElem(1, 1.0 + PI))
        for k in range(1, 8):
            x = ComplexElem(1, 1.0 + 1.0 / 2**k)
            assert tc.member(tc.zero, hf_poly_eval(p, (x, -x)))
        assert tc.member(tc.zero, hf_poly_eval(p, limit))

    def test_arity_mismatch(self):
        tc = get_structure("TC")
        p = hf_polynomial(tc, [((1, 0), tc.one), ((0, 1), tc.one)])
        with pytest.raises(ValueError):
            hf_poly_eval(p, (tc.one,))


class TestHomSuiteSampled:
    """The bullet-list homomorphisms at unit-test budgets."""

    CASES = [
        ("phase TC->Phi", "TC", "Phi", phase_map),
        ("abs TC->tri", "TC", "tri", abs_map),
        ("abs TC->ultra", "TC", "ultra", abs_map),
        ("logabs TC->trop", "TC", "trop", log_abs),
        ("logabs TC->amoeba", "TC", "amoeba", log_abs),
    ]

    @pytest.mark.parametrize("name,src,dst,fn", CASES, ids=[c[0] for c in CASES])
    def test_hom(self, name, src, dst, fn):
        from hyperalg.axioms import check_hom

        rep = check_hom(fn, get_structure(src), get_structure(dst), budget=150,
                        rng=random.Random(21), name=name)
        assert rep.is_homomorphism, (name, rep.witness_text)
