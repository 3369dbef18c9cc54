"""Dequantization families and their convergence properties."""
import cmath
import math
import random

import pytest

from hyperalg import deq
from hyperalg.csets import CZERO, ComplexElem, format_celem, member as cmember
from hyperalg.ctrop import ct_add
from hyperalg.deq import (
    H_SCHEDULE,
    amoeba_add_h,
    c_add_0,
    c_add_h,
    check_diagram,
    d_h,
    graph_witness,
    lm_add,
    trace_rows,
    tri_add_h,
)
from hyperalg.realhf import amoeba_add, tri_add, trop_add, ultra_add
from hyperalg.rsets import rinterval, rmember, rset_eq
from hyperalg.tolerance import NEG_INF, TWO_PI, Tolerance, circ_dist, wrap_angle

PI = math.pi
DIAGRAM_VERDICTS = ["modulus-containment", "log-transfer", "limit-row", "semiring-isomorphism", "graph-limit"]


class TestLogSumFamily:
    def test_ln2_at_origin(self):
        assert lm_add(0, 0, 1) == pytest.approx(math.log(2))

    def test_limit_is_max(self):
        assert lm_add(1, 2, 0) == 2

    def test_isomorphism_identity(self, rng):
        for _ in range(100):
            h = rng.choice([1.0, 0.5, 0.1])
            x, y = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            assert lm_add(d_h(x, h), d_h(y, h), h) == pytest.approx(d_h(x + y, h), rel=1e-9)
            assert d_h(x, h) + d_h(y, h) == pytest.approx(d_h(x * y, h))

    def test_error_bound(self, rng):
        for _ in range(200):
            a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
            if abs(a - b) < 1e-9:
                continue
            for h in (1.0, 0.1, 0.01, 0.001):
                assert abs(lm_add(a, b, h) - max(a, b)) <= h * math.log(2) + 1e-12

    def test_no_overflow_at_tiny_h(self):
        assert lm_add(1000.0, -1000.0, 1e-3) == 1000.0

    def test_semiring_laws_sampled(self, rng):
        for h in (1.0, 0.1, 0.01):
            for _ in range(50):
                a, b, c = (rng.uniform(-3, 3) for _ in range(3))
                lhs = lm_add(lm_add(a, b, h), c, h)
                rhs = lm_add(a, lm_add(b, c, h), h)
                assert lhs == pytest.approx(rhs, abs=1e-9)
                # distributivity of *_h = + over +_h
                assert a + lm_add(b, c, h) == pytest.approx(lm_add(a + b, a + c, h), abs=1e-9)


class TestTriangleFamily:
    def test_h_one_is_triangle(self, rng):
        for _ in range(50):
            a, b = rng.uniform(0, 5), rng.uniform(0, 5)
            assert rset_eq(tri_add_h(a, b, 1.0), tri_add(a, b))

    def test_tie_formula(self, rng):
        for _ in range(50):
            a = rng.uniform(0.1, 5)
            h = rng.choice([1.0, 0.5, 0.2])
            got = tri_add_h(a, a, h)
            assert got.lo == 0.0
            assert got.hi == pytest.approx(2.0**h * a, rel=1e-9)

    def test_endpoints_converge_to_ultra(self):
        got = tri_add_h(2.0, 1.0, 1e-3)
        assert abs(got.lo - 2.0) < 1e-2 and abs(got.hi - 2.0) < 1e-2

    def test_h_zero_is_ultra(self):
        assert rset_eq(tri_add_h(2, 2, 0.0), ultra_add(2, 2))

    def test_monotone_convergence(self, rng):
        for _ in range(50):
            a, b = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
            if abs(a - b) < 1e-6:
                continue
            ref = max(a, b)
            errs = []
            for h in H_SCHEDULE:
                if h == 0:
                    continue
                s = tri_add_h(a, b, h)
                errs.append(max(abs(s.lo - ref), abs(s.hi - ref)))
            assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs, errs[1:]))
            assert errs[-1] <= 1e-2 * ref


class TestComplexFamily:
    def test_matches_conjugated_sum(self, rng):
        # the definition S_h^-1(S_h(a) + S_h(b)), S_h(z) = |z|^(1/h) e^(i arg z),
        # evaluated directly where |z|^(1/h) stays representable
        def s(z, e):
            return abs(z) ** e * cmath.exp(1j * cmath.phase(z))

        for _ in range(100):
            a, b = (ComplexElem(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI)) for _ in range(2))
            for h in (1.0, 0.5, 0.2):
                ref = s(s(a.as_complex(), 1 / h) + s(b.as_complex(), 1 / h), h)
                assert abs(c_add_h(a, b, h).as_complex() - ref) < 1e-9

    def test_unit_neutral(self, rng):
        a = ComplexElem(2.5, 0.7)
        for h in (1.0, 0.1, 0.001):
            assert c_add_h(a, CZERO, h).eq(a)

    def test_exact_cancellation(self):
        a = ComplexElem(1.7, 0.4)
        for h in (1.0, 0.1, 0.001):
            assert c_add_h(a, -a, h) == CZERO

    def test_modulus_bound(self, rng):
        for _ in range(300):
            a = ComplexElem(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI))
            b = ComplexElem(
                a.modulus if rng.random() < 0.5 else math.exp(rng.uniform(-1, 1)),
                rng.uniform(0, TWO_PI),
            )
            for h in (1.0, 0.1, 0.01, 0.001):
                s = c_add_h(a, b, h)
                assert s.modulus <= 2.0**h * max(a.modulus, b.modulus) + 1e-9

    def test_argument_between_operands(self, rng):
        # at tied moduli the sum's direction stays inside the minor angle
        for _ in range(200):
            m = math.exp(rng.uniform(-1, 1))
            a = ComplexElem(m, rng.uniform(0, TWO_PI))
            delta = rng.uniform(0.05, PI - 0.05)
            b = ComplexElem(m, a.argument + delta)
            for h in (1.0, 0.1, 0.01):
                s = c_add_h(a, b, h)
                off = wrap_angle(s.argument - a.argument)
                assert off <= delta + 1e-9

    def test_scaled_witness_identity(self, rng):
        # for c on the arc, c = lam*a + mu*b gives (lam^h a) +_h (mu^h b) = c
        for _ in range(100):
            m = math.exp(rng.uniform(-0.5, 0.5))
            a = ComplexElem(m, rng.uniform(0, TWO_PI))
            delta = rng.uniform(0.1, PI - 0.1)
            b = ComplexElem(m, a.argument + delta)
            c = ComplexElem(m, a.argument + rng.uniform(0.0, 1.0) * delta)
            det = a.re * b.im - a.im * b.re
            lam = (c.re * b.im - c.im * b.re) / det
            mu = (a.re * c.im - a.im * c.re) / det
            for h in (0.5, 0.1, 0.01):
                ah = ComplexElem(lam**h * m, a.argument)
                bh = ComplexElem(mu**h * m, b.argument)
                got = c_add_h(ah, bh, h)
                assert abs(got.as_complex() - c.as_complex()) < 1e-9 * max(1, m)

    def test_pointwise_limit_cases(self):
        a = ComplexElem(2, 0.3)
        b = ComplexElem(1, 2.0)
        assert c_add_0(a, b).eq(a)
        m1, i = ComplexElem(1, PI), ComplexElem(1, PI / 2)
        assert c_add_0(m1, i).eq(ComplexElem(1, 3 * PI / 4))
        assert c_add_0(a, -a) == CZERO
        for x, y in [(a, b), (m1, i), (a, -a), (a, CZERO)]:
            assert c_add_h(x, y, 0.0) == c_add_0(x, y)
        with pytest.raises(ValueError):
            c_add_h(a, b, -0.1)

    def test_limit_not_associative(self):
        m1 = ComplexElem(1, PI)
        i = ComplexElem(1, PI / 2)
        one = ComplexElem(1, 0)
        left = c_add_0(c_add_0(m1, i), one)
        right = c_add_0(m1, c_add_0(i, one))
        assert abs(left.argument - 3 * PI / 8) < 1e-12
        assert abs(right.argument - 5 * PI / 8) < 1e-12

    def test_h_sum_associative(self, rng):
        for _ in range(100):
            h = rng.choice([1.0, 0.3, 0.1])
            elems = [
                ComplexElem(math.exp(rng.uniform(-0.4, 0.4)), rng.uniform(0, TWO_PI))
                for _ in range(3)
            ]
            a, b, c = elems
            lhs = c_add_h(c_add_h(a, b, h), c, h)
            rhs = c_add_h(a, c_add_h(b, c, h), h)
            assert abs(lhs.as_complex() - rhs.as_complex()) < 1e-7


class TestGraphWitness:
    def test_canonical_quarter_arc(self):
        a, b = ComplexElem(1, 0), ComplexElem(1, PI / 2)
        c = ComplexElem(1, PI / 4)
        for h in (0.1, 0.01, 1e-4):
            ah, bh = graph_witness(a, b, c, h)
            assert ah.modulus == pytest.approx(2 ** (-h / 2), rel=1e-12)
            got = c_add_h(ah, bh, h)
            assert abs(got.as_complex() - c.as_complex()) < 1e-10

    def test_arc_endpoint_converges(self):
        # at an endpoint mu = 0; the witness must still move b_h onto b
        a, b = ComplexElem(1, 0), ComplexElem(1, PI / 2)
        b_dist, c_dist = [], []
        for h in (0.1, 0.01, 0.001, 1e-4):
            ah, bh = graph_witness(a, b, a, h)
            assert ah.eq(a)
            b_dist.append(abs(bh.as_complex() - b.as_complex()))
            c_dist.append(abs(c_add_h(ah, bh, h).as_complex() - a.as_complex()))
        assert all(x > y for x, y in zip(b_dist, b_dist[1:])) and b_dist[-1] < 0.01
        assert all(x >= y for x, y in zip(c_dist, c_dist[1:])) and c_dist[0] > c_dist[1]
        assert c_dist[-1] < 1e-12

    def test_dominant_case(self):
        a, b = ComplexElem(2, 0.5), ComplexElem(1, 1.5)
        ah, bh = graph_witness(a, b, a, 0.01)
        assert ah.eq(a) and bh.eq(b)

    def test_cancellation_case(self):
        # the witness (a +_h c, -a) is exact; verifying it in floats needs
        # |c/a|^(1/h) representable, so keep h moderate here
        a = ComplexElem(1, 0.8)
        c = ComplexElem(0.4, 2.9)
        for h in (0.5, 0.2):
            ah, bh = graph_witness(a, -a, c, h)
            got = c_add_h(ah, bh, h)
            assert abs(got.as_complex() - c.as_complex()) < 1e-9
            assert bh.eq(-a)

    def test_rejects_outside_targets(self):
        a, b = ComplexElem(1, 0), ComplexElem(1, PI / 2)
        with pytest.raises(ValueError):
            graph_witness(a, b, ComplexElem(2, 0), 0.1)

    def test_convergence_schedule(self, rng):
        for _ in range(40):
            m = math.exp(rng.uniform(-0.5, 0.5))
            a = ComplexElem(m, rng.uniform(0, TWO_PI))
            b = ComplexElem(m, a.argument + rng.uniform(0.2, PI - 0.2))
            t = rng.uniform(0.15, 0.85)
            arc = ct_add(a, b)
            c = ComplexElem(m, arc.start + t * arc.sweep)
            drift_prev = None
            for h in (0.1, 0.01, 0.001, 1e-4):
                ah, bh = graph_witness(a, b, c, h)
                drift = abs(ah.as_complex() - a.as_complex()) + abs(
                    bh.as_complex() - b.as_complex()
                )
                got = c_add_h(ah, bh, h)
                assert abs(got.as_complex() - c.as_complex()) <= 1e-8
                if drift_prev is not None:
                    assert drift <= drift_prev + 1e-12
                drift_prev = drift
            assert drift_prev < 0.01 * m


class TestDiagram:
    def test_commutes(self):
        rep = check_diagram(budget=150, rng=random.Random(77))
        assert rep.passed, [c.witness_text for c in rep.failures()]
        assert [c.axiom for c in rep.checks] == DIAGRAM_VERDICTS
        scope = rep.checks[-1].detail
        assert "dominant" in scope and "cancellation" in scope and "not covered" in scope

    @pytest.mark.parametrize(
        "family,wrap,verdict,h",
        [
            # off by 1e-3 below h = 0.05
            ("lm_add", lambda f: lambda a, b, h: f(a, b, h) + (1e-3 if h < 0.05 else 0.0), "semiring-isomorphism", 0.01),
            # a modulus above both operands, outside the ultratriangle sum
            ("c_add_0", lambda f: lambda a, b: ComplexElem(2 * f(a, b).modulus + 0.5, 0.0), "limit-row", 0.0),
            # an upper end 0.01 too high below h = 0.05: the amoeba family no longer matches it
            (
                "tri_add_h",
                lambda f: lambda a, b, h: rinterval(f(a, b, h).lo, f(a, b, h).hi + (0.01 if h < 0.05 else 0.0)),
                "log-transfer",
                0.01,
            ),
            # a modulus three times |a| for a cancelling pair below h = 0.05,
            # outside the triangle sum; the graph witnesses never cancel exactly
            (
                "c_add_h",
                lambda f: lambda a, b, h: ComplexElem(3 * a.modulus, 0.0) if h < 0.05 and b == -a else f(a, b, h),
                "modulus-containment",
                0.01,
            ),
            # the tied operands themselves: a + b is off the circle at h = 1
            ("graph_witness", lambda f: lambda a, b, c, h: (a, b), "graph-limit", 1.0),
        ],
    )
    def test_a_broken_family_fails_exactly_its_verdict(self, monkeypatch, family, wrap, verdict, h):
        monkeypatch.setattr(deq, family, wrap(getattr(deq, family)))
        rep = check_diagram(budget=20, rng=random.Random(0))
        (bad,) = rep.failures()
        a, b, wh = bad.witness
        assert (bad.axiom, wh) == (verdict, h)
        assert bad.witness_text == f"({format_celem(a)}, {format_celem(b)}, h={h})"
        passed = [c.axiom for c in rep.checks if c.passed]
        assert passed == [c for c in DIAGRAM_VERDICTS if c != verdict]

    def test_h_one_row_is_classical_triangle(self, rng):
        for _ in range(100):
            a = ComplexElem(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI))
            b = ComplexElem(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI))
            s = c_add_h(a, b, 1.0)
            assert rmember(s.modulus, tri_add(a.modulus, b.modulus), Tolerance(1e-7))

    def test_amoeba_family_matches_log_transfer(self, rng):
        for _ in range(50):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            h = rng.choice([1.0, 0.3, 0.1])
            am = amoeba_add_h(x, y, h)
            tri = tri_add_h(math.exp(x), math.exp(y), h)
            assert am.hi == pytest.approx(math.log(tri.hi), abs=1e-9)

    def test_near_tie_at_one_is_the_log_of_the_triangle_family(self):
        b = math.e + 2e-9
        tri = tri_add_h(math.e, b, 1.0)
        am = amoeba_add_h(1.0, math.log(b), 1.0)
        assert tri.lo == pytest.approx(2e-9, rel=1e-6)
        assert am.lo == pytest.approx(math.log(tri.lo), abs=1e-6)
        assert am == amoeba_add(1.0, math.log(b))

    def test_amoeba_family_at_one_is_the_amoeba_carrier_and_at_zero_tropical(self, rng):
        pairs = [(2.0, 2.0 + 5e-10), (2.0, 2.0), (-1.0, -1.0 - 5e-10), (0.0, 3e-9), (1.0, NEG_INF)]
        for _ in range(2000):
            x = rng.uniform(-5, 5)
            pairs.append((x, x + rng.choice([rng.uniform(-5, 5), 5e-10, -5e-10, 2e-9, 0.0])))
        for x, y in pairs:
            assert amoeba_add_h(x, y, 1.0) == amoeba_add(x, y), (x, y)
            assert amoeba_add_h(x, y, 0.0) == trop_add(x, y), (x, y)


class TestTraces:
    def test_lm_rows_converge(self):
        rows = trace_rows("lm", "1", "2", [1.0, 0.1, 0.01])
        errs = [r["error"] for r in rows]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-4

    def test_complex_rows(self):
        rows = trace_rows("complex", "-1", "i", [0.1, 0.01])
        assert all(r["reference"] == "1∠2.3561944902" for r in rows)

    def test_tri_rows(self):
        rows = trace_rows("tri", "2", "2", [0.01])
        assert "[0," in rows[0]["result"]
