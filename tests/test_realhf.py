"""Triangle, ultratriangle, tropical and amoeba additions."""
import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalg.realhf import (
    amoeba_add,
    amoeba_add_sets,
    check_seminorm,
    tri_add,
    tri_add_sets,
    tri_sum_n,
    trop_add,
    trop_mul,
    ultra_add,
    ultra_add_sets,
)
from hyperalg.rsets import rinterval, rmember, rpoint, rset_eq
from hyperalg.structures import get_structure
from hyperalg.tolerance import NEG_INF, InvalidSetError, Tolerance


@pytest.mark.parametrize(
    "op, message",
    [
        (lambda: get_structure("R").add_sets(rinterval(0, 1e308), rpoint(1e308)), "real sum 1e+308 + 1e+308"),
        (lambda: get_structure("R").mul_sets(rinterval(-1e200, 1), rpoint(1e200)),
         "interval product [-1e+200,1] * [1e+200,1e+200]"),
        (lambda: tri_add_sets(rinterval(0, 1e308), rpoint(1e308)),
         "triangle set sum with upper end 1e+308 + 1e+308"),
        (lambda: trop_mul(-1e308, -1e308), "tropical product -1e+308 + -1e+308"),
    ],
)
def test_results_beyond_the_float_range_raise(op, message):
    """Set sums and products of finite operands that overflow raise, as the
    point operations the CLI reaches do."""
    with pytest.raises(InvalidSetError, match=re.escape(f"{message} leaves the float range")):
        op()


class TestTriangle:
    def test_golden_two_one(self):
        assert rset_eq(tri_add(2, 1), rinterval(1, 3))

    def test_degenerate(self):
        assert rset_eq(tri_add(5, 0), rpoint(5))

    def test_tie(self):
        assert rset_eq(tri_add(1, 1), rinterval(0, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tri_add(-1, 2)

    def test_sum_n_golden(self):
        assert rset_eq(tri_sum_n([4, 2, 2, 1]), rinterval(0, 9))
        assert rset_eq(tri_sum_n([5]), rpoint(5))
        assert rset_eq(tri_sum_n([5, 1, 1]), rinterval(3, 7))

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_sum_n_equals_iterated_fold(self, values):
        # independent oracle: fold the binary interval extension
        acc = rpoint(values[0])
        for v in values[1:]:
            acc = tri_add_sets(acc, rpoint(v))
        assert rset_eq(acc, tri_sum_n(values))


class TestUltra:
    def test_max_case(self):
        assert rset_eq(ultra_add(2, 3), rpoint(3))

    def test_tie_down_set(self):
        assert rset_eq(ultra_add(2, 2), rinterval(0, 2))

    def test_zero(self):
        assert rset_eq(ultra_add(0, 0), rpoint(0))

    def test_agrees_with_linear_order_form(self, rng):
        # reference: max when distinct, the down-set at a tie
        for _ in range(200):
            a = rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0, 3)])
            b = rng.choice([a, rng.uniform(0, 3)])
            got = ultra_add(a, b)
            ref = rinterval(0, a) if a == b else rpoint(max(a, b))
            assert rset_eq(got, ref)


class TestTrop:
    def test_max(self):
        assert rset_eq(trop_add(1, 2), rpoint(2))

    def test_tie(self):
        assert rset_eq(trop_add(1.5, 1.5), rinterval(NEG_INF, 1.5))

    def test_neutral(self):
        assert rset_eq(trop_add(NEG_INF, 3), rpoint(3))

    def test_mul(self):
        assert trop_mul(NEG_INF, 5) == NEG_INF
        assert trop_mul(2, 3) == 5


class TestAmoeba:
    def test_golden_ln3(self):
        got = amoeba_add(math.log(3), 0.0)
        assert rset_eq(got, rinterval(math.log(2), math.log(4)))

    def test_tie_reaches_bottom(self):
        got = amoeba_add(0.0, 0.0)
        assert rset_eq(got, rinterval(NEG_INF, math.log(2)))

    def test_neutral(self):
        assert rset_eq(amoeba_add(2.5, NEG_INF), rpoint(2.5))

    @given(
        st.integers(1, 2000).map(lambda k: k * 0.01),
        st.integers(1, 2000).map(lambda k: k * 0.01),
    )
    @settings(max_examples=200, deadline=None)
    def test_log_transfer_from_triangle(self, a, b):
        # log carries the triangle sum onto the amoeba sum; grid values keep
        # the tie branch exact
        tri = tri_add(a, b)
        am = amoeba_add(math.log(a), math.log(b))
        lo_ref = NEG_INF if tri.lo <= 1e-12 * max(a, b) else math.log(tri.lo)
        wide = Tolerance(1e-7)
        assert wide.close(am.hi, math.log(tri.hi))
        assert am.lo == lo_ref or wide.close(am.lo, lo_ref)

    def test_near_tie_is_the_log_of_the_triangle_sum(self):
        # log|e^x - e^y| is continuous into -inf: a near tie needs no
        # tolerance, and its lower end is the log of the triangle's
        b = math.e + 2e-9
        tri, am = tri_add(math.e, b), amoeba_add(1.0, math.log(b))
        assert tri.lo == pytest.approx(2e-9, rel=1e-6)
        assert am.lo == pytest.approx(math.log(tri.lo), abs=1e-6)
        assert am == amoeba_add(math.log(b), 1.0)
        sets = amoeba_add_sets(rpoint(1.0), rpoint(math.log(b)))
        assert sets.lo == pytest.approx(am.lo, abs=1e-6)

    def test_log_transfer_ultra_to_trop(self, rng):
        for _ in range(100):
            a = math.exp(rng.uniform(-2, 2))
            b = a if rng.random() < 0.4 else math.exp(rng.uniform(-2, 2))
            u = ultra_add(a, b)
            t = trop_add(math.log(a), math.log(b))
            if u.lo == u.hi:
                assert rset_eq(t, rpoint(math.log(u.hi)))
            else:
                assert rset_eq(t, rinterval(NEG_INF, math.log(u.hi)))


class TestSetExtensions:
    def test_tri_interval_pairs(self):
        got = tri_add_sets(rinterval(1, 2), rinterval(5, 6))
        assert rset_eq(got, rinterval(3, 8))

    def test_tri_overlap_reaches_zero(self):
        got = tri_add_sets(rinterval(1, 2), rinterval(2, 3))
        assert rset_eq(got, rinterval(0, 5))

    def test_ultra_downset_absorbs(self):
        got = ultra_add_sets(rinterval(0, 2), rpoint(1.0))
        assert rset_eq(got, rinterval(0, 2))

    def test_ultra_dominant_point(self):
        got = ultra_add_sets(rinterval(0, 2), rpoint(5.0))
        assert rset_eq(got, rpoint(5.0))

    def test_amoeba_sets_match_pointwise(self, rng):
        for _ in range(60):
            a, b, c = (rng.uniform(-2, 2) for _ in range(3))
            lhs = amoeba_add_sets(amoeba_add(a, b), rpoint(c))
            rhs = amoeba_add_sets(rpoint(a), amoeba_add(b, c))
            assert rset_eq(lhs, rhs, Tolerance(1e-7))


class TestSeminorm:
    def test_complex_modulus_is_archimedean(self, rng):
        sample = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(12)] + [0j, 1 + 0j]
        rep = check_seminorm(abs, sample, kind="archimedean")
        assert rep.passed, rep.failures()
        assert [c.axiom for c in rep.checks] == ["triangle", "multiplicative"]

    def test_padic_norm_is_non_archimedean(self):
        def norm5(q: Fraction) -> float:
            if q == 0:
                return 0.0
            num, den = q.numerator, q.denominator
            v = 0
            while num % 5 == 0:
                num //= 5
                v += 1
            while den % 5 == 0:
                den //= 5
                v -= 1
            return 5.0**-v

        sample = [Fraction(n) for n in (0, 1, 2, 5, 10, 25, 7, 50, 3, 15)]
        rep = check_seminorm(norm5, sample, kind="non-archimedean")
        assert rep.passed, rep.failures()
        assert [c.axiom for c in rep.checks] == ["triangle", "multiplicative", "valuation"]

    def test_halved_modulus_fails_only_multiplicative(self):
        rep = check_seminorm(lambda x: 0.5 * abs(x), [0.0, 1.0, 2.0], kind="archimedean")
        assert [(c.axiom, c.passed) for c in rep.checks] == [("triangle", True), ("multiplicative", False)]
        (bad,) = rep.failures()
        assert (bad.witness, bad.witness_text, rep.tuples_checked) == ((1.0, 1.0), "(1.0, 1.0)", 9)

    def test_lifted_max_fails_only_valuation(self):
        # max(x, y) + 5e-9 stays inside the ultratriangle sum, but its log
        # leaves the tropical sum of the logs of two tied small norms
        rep = check_seminorm(
            abs, [0.001, 0.0001], "non-archimedean", add=lambda x, y: max(x, y) + 5e-9, mul=operator.mul
        )
        assert [(c.axiom, c.passed) for c in rep.checks] == [
            ("triangle", True), ("multiplicative", True), ("valuation", False)
        ]
        (bad,) = rep.failures()
        assert (bad.witness, bad.witness_text) == ((0.001, 0.001), "(0.001, 0.001)")

    def test_square_map_fails_with_witness(self):
        rep = check_seminorm(lambda x: float(x) ** 2, [0.0, 1.0, 2.0, 3.0], kind="archimedean")
        assert [(c.axiom, c.witness) for c in rep.failures()] == [("triangle", (1.0, 1.0))]
