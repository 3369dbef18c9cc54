"""Tropical addition over C, R, the phase circle and the quaternions."""
import itertools
import math
import random

import pytest

from hyperalg.csets import (
    CArc,
    CDisk,
    CPoint,
    CZERO,
    ComplexElem,
    PHASE_ALL,
    format_cset,
    member,
    pick,
    set_eq,
    subset,
)
from hyperalg.ctrop import (
    ct_add,
    ct_add_sets,
    ct_mul_sets,
    ct_sum_n,
    phase_add,
    quat_add,
    quat_add_sets,
    quat_scale,
    rt_add,
    rt_add_sets,
)
from hyperalg.exotic import MCone, MonomialElem, PCone, VPoint, padic_from_digits
from hyperalg.qsets import QZERO, QArc, QBall, QCone, QPoint, QuatElem, in_cone, qmember, qpick, qset_eq
from hyperalg.rsets import rinterval, rpoint, rset_eq
from hyperalg.structures import get_structure
from hyperalg.tolerance import TWO_PI, RepresentationClosureError, Tolerance

PI = math.pi


def cp(m, a):
    return ComplexElem(m, a)


class TestCtAdd:
    def test_dominant(self):
        assert ct_add(cp(2, 0), cp(1, PI / 2)) == CPoint(cp(2, 0))

    def test_quarter_arc(self):
        got = ct_add(cp(1, 0), cp(1, PI / 2))
        assert set_eq(got, CArc(1, 0, PI / 2))

    def test_antipodal_disk(self):
        assert ct_add(cp(1, 0), cp(1, PI)) == CDisk(1)

    def test_zero_neutral(self):
        assert ct_add(cp(1.5, 2.0), CZERO) == CPoint(cp(1.5, 2.0))

    def test_idempotent_point(self):
        assert ct_add(cp(1, 1.0), cp(1, 1.0)) == CPoint(cp(1, 1.0))

    def test_tied_exact_antipodes_below_modulus_one_give_the_disk(self):
        # moduli tied within eps but below 1: an exactly antipodal tie cancels
        # by direction, at any radius, and no tied arc sweeps pi
        a, b = cp(0.25, 0.0), cp(0.2499999995, PI)
        assert ct_add(a, b) == ct_add(b, a) == CDisk(0.25)
        assert format_cset(ct_add(b, a)) == "disk r=0.25"

    def test_arc_crosses_branch_cut(self):
        got = ct_add(cp(1, TWO_PI - 0.2), cp(1, 0.3))
        assert isinstance(got, CArc)
        assert got.sweep == pytest.approx(0.5)

    def test_negation_unique_on_samples(self, rng):
        for _ in range(100):
            a = cp(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI))
            assert member(CZERO, ct_add(a, -a))
            x = cp(a.modulus, rng.uniform(0, TWO_PI))
            if not x.eq(-a):
                assert not member(CZERO, ct_add(a, x))

    def test_maxplus_embedding(self, rng):
        # nonnegative reals add by max inside the complex carrier
        for _ in range(50):
            a, b = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
            if abs(a - b) < 1e-6:
                b = a
            got = ct_add(cp(a, 0), cp(b, 0))
            assert got == CPoint(cp(max(a, b), 0))


class TestZeroFloor:
    """Sizes within eps of 0 sum to 0, on C, R and H."""

    def test_sum_of_zeros_is_zero(self):
        assert ct_sum_n([CZERO, cp(5e-10, 1.0), CZERO]) == CPoint(CZERO)

    def test_two_operands_below_eps_sum_to_zero(self):
        a, b = cp(5e-10, 0.0), cp(8e-10, 2.0)
        assert ct_add(a, b) == ct_add(b, a) == CPoint(CZERO)
        assert rt_add(5e-10, -8e-10) == rt_add(-8e-10, 5e-10) == rpoint(0.0)
        qa, qb = QuatElem(5e-10, 0, 0, 0), QuatElem(0, 8e-10, 0, 0)
        assert quat_add(qa, qb) == quat_add(qb, qa) == QPoint(QZERO)


class TestAppendixRules:
    """Closed-form component sums from the associativity case analysis."""

    def test_arc_plus_small_point(self):
        arc = CArc(1, 0, PI / 2)
        got = ct_add_sets(arc, CPoint(cp(0.5, 2.5)))
        assert set_eq(got, arc)

    def test_disk_plus_inner_point(self):
        got = ct_add_sets(CDisk(2), CPoint(cp(1.5, 1.0)))
        assert set_eq(got, CDisk(2))

    def test_arc_plus_antipodal_point_fills_disk(self):
        arc = CArc(1, 0, PI / 2)
        c = cp(1, PI + PI / 4)  # -c at pi/4 lies on the arc
        assert set_eq(ct_add_sets(arc, CPoint(c)), CDisk(1))

    def test_arc_plus_point_hull(self):
        arc = CArc(1, 0, PI / 4)
        c = cp(1, PI / 2)
        got = ct_add_sets(arc, CPoint(c))
        assert set_eq(got, CArc(1, 0, PI / 2))

    def test_dominant_point_wins(self):
        got = ct_add_sets(CDisk(1), CPoint(cp(3, 1.0)))
        assert set_eq(got, CPoint(cp(3, 1.0)))

    @pytest.mark.parametrize("dr", [0.0, 5e-10, -5e-10])
    def test_point_on_disk_boundary_gives_disk(self, dr):
        p = CPoint(cp(1 + dr, 0.7))
        assert ct_add_sets(CDisk(1), p) == CDisk(1)
        assert ct_add_sets(p, CDisk(1)) == CDisk(1)


def _stratified_pairs(rng, n):
    """A component and a point, including the measure-zero branches (ties,
    antipodes)."""
    out = []
    for _ in range(n):
        r = math.exp(rng.uniform(-0.5, 0.5))
        kind = rng.random()
        if kind < 0.4:
            s1 = CArc(r, rng.uniform(0, TWO_PI), rng.uniform(0.1, PI - 0.1))
        elif kind < 0.8:
            s1 = CPoint(cp(r, rng.uniform(0, TWO_PI)))
        else:
            s1 = CDisk(r)
        mode = rng.random()
        if mode < 0.4:  # equal radius, random placement
            s2 = cp(r, rng.uniform(0, TWO_PI))
        elif mode < 0.5 and isinstance(s1, CArc):  # antipodal to a point of the arc
            s2 = cp(r, s1.start + rng.uniform(0, s1.sweep) + PI)
        elif mode < 0.8:
            s2 = cp(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI))
        else:
            s2 = cp(r * rng.uniform(0.5, 1.5), rng.uniform(0, TWO_PI))
        out.append((s1, CPoint(s2)))
    return out


class TestSetExtensionOracle:
    """The symbolic component rules against a discretized union, with the
    tie/antipodal strata injected explicitly."""

    @staticmethod
    def _dense(s, rng, k):
        if isinstance(s, CPoint):
            return [s.elem]
        if isinstance(s, CArc):
            return [cp(s.radius, s.start + s.sweep * t / k) for t in range(k + 1)]
        pts = [CZERO]
        pts.extend(cp(s.radius * math.sqrt(rng.random()), rng.uniform(0, TWO_PI)) for _ in range(2 * k))
        pts.extend(cp(s.radius, rng.uniform(0, TWO_PI)) for _ in range(k))
        return pts

    def test_sound_and_complete(self, rng):
        wide = Tolerance(1e-6)
        for s1, s2 in _stratified_pairs(rng, 120):
            sym = ct_add_sets(s1, s2)
            xs = self._dense(s1, rng, 14)
            ys = self._dense(s2, rng, 14)
            cloud = []
            for x in xs:
                for y in ys:
                    piece = ct_add(x, y)
                    assert subset(piece, sym, wide), (
                        f"unsound: {format_cset(s1)} + {format_cset(s2)} -> "
                        f"{format_cset(sym)} missing {format_cset(piece)}"
                    )
                    cloud.extend(z.as_complex() for z in self._dense(piece, rng, 4))
            # completeness with the tie/antipodal pairs injected on top
            def inject(side_pts, other, flip):
                for u in side_pts[:10]:
                    for frac in (1.0, 0.5):
                        v = cp(u.modulus * frac, u.argument + PI)
                        if member(v, other, wide):
                            pair = (v, u) if flip else (u, v)
                            cloud.extend(
                                z.as_complex()
                                for z in self._dense(ct_add(*pair), rng, 18)
                            )
                    vt = cp(u.modulus, rng.uniform(0, TWO_PI))
                    if member(vt, other, wide):
                        pair = (vt, u) if flip else (u, vt)
                        cloud.extend(
                            z.as_complex() for z in self._dense(ct_add(*pair), rng, 18)
                        )

            inject(ys, s1, flip=True)
            inject(xs, s2, flip=False)
            scale = sym.elem.modulus if isinstance(sym, CPoint) else sym.radius
            for probe in pick(sym, rng, 3):
                z0 = probe.as_complex()
                d = min(abs(z0 - w) for w in cloud)
                assert d < 0.45 * max(1.0, scale), (
                    f"incomplete: {format_cset(s1)} + {format_cset(s2)} -> "
                    f"{format_cset(sym)} stray {probe} (dist {d:.3f})"
                )


class TestAssociativityStrata:
    """Set associativity over tuples hitting every case of the analysis."""

    def test_all_cases(self, rng):
        r = 1.0
        cases = []
        for _ in range(150):
            th = lambda: rng.uniform(0, TWO_PI)
            a = cp(r, th())
            variants = [
                (cp(2, th()), cp(1, th()), cp(0.5, th())),  # one dominant
                (cp(2, th()), cp(1, th()), cp(2, th())),  # |a|=|c|>|b|
                (a, cp(r, th()), cp(0.5, th())),  # tie above a small one
                (a, -a, cp(0.5, th())),  # cancelling pair above small
                (a, cp(r, th()), cp(r, th())),  # all equal, generic
                (a, -a, cp(r, th())),  # one cancelling pair
                (a, -a, a),  # chain of cancellations
                (CZERO, CZERO, CZERO),
            ]
            cases.extend(variants)
        for a, b, c in cases:
            lhs = ct_add_sets(ct_add(a, b), CPoint(c))
            rhs = ct_add_sets(CPoint(a), ct_add(b, c))
            assert set_eq(lhs, rhs), (
                f"assoc failed: {a}, {b}, {c}: {format_cset(lhs)} != {format_cset(rhs)}"
            )

    def test_distributivity_samples(self, rng):
        for _ in range(200):
            a = cp(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI))
            b = cp(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI))
            c = b if rng.random() < 0.3 else (-b if rng.random() < 0.4 else cp(b.modulus, rng.uniform(0, TWO_PI)))
            lhs = ct_mul_sets(CPoint(a), ct_add(b, c))
            rhs = ct_add(a.times(b), a.times(c))
            assert set_eq(lhs, rhs)


class TestSumN:
    def test_disk_from_cancelling_square(self):
        vals = [cp(1, 0), cp(1, PI / 2), cp(1, 3 * PI / 2), cp(1, 0)]
        assert set_eq(ct_sum_n(vals), CDisk(1))

    def test_small_summand_ignored(self):
        vals = [cp(1, 0), cp(1, PI / 2), cp(1e-3, 1.0)]
        assert set_eq(ct_sum_n(vals), CArc(1, 0, PI / 2))

    def test_cube_roots_fill_disk(self):
        vals = [cp(1, 2 * PI * k / 3) for k in range(3)]
        assert set_eq(ct_sum_n(vals), CDisk(1))
        # oracle: iterated binary fold
        acc = CPoint(vals[0])
        for v in vals[1:]:
            acc = ct_add_sets(acc, CPoint(v))
        assert set_eq(acc, CDisk(1))

    def test_largest_gap_wraps_through_zero(self):
        # the tops straddle angle 0, so the arc starts after the largest gap
        vals = [cp(1, 0.2), cp(1, TWO_PI - 0.3), cp(0.5, PI)]
        assert set_eq(ct_sum_n(vals), CArc(1, TWO_PI - 0.3, 0.5))

    def test_tops_within_eps_sum_to_a_point(self):
        assert ct_sum_n([cp(1, 1.0 + 5e-10), cp(1, 1.0)]) == CPoint(cp(1, 1.0))

    def test_zero_in_sum_goldens(self):
        assert not member(CZERO, ct_sum_n([cp(1, 0), cp(1, PI / 2)]))
        assert member(CZERO, ct_sum_n([cp(1, 0), cp(1, PI)]))
        assert member(CZERO, ct_sum_n([cp(1, 2 * PI * k / 3) for k in range(3)]))
        # a smaller summand opposite the top one does not reach 0
        assert not member(CZERO, ct_sum_n([cp(2, 0), cp(1, PI)]))

    def test_zero_in_sum_matches_membership(self, rng):
        for _ in range(200):
            n = rng.randint(2, 6)
            vals = []
            base = math.exp(rng.uniform(-1, 1))
            for _ in range(n):
                mode = rng.random()
                if mode < 0.5:
                    vals.append(cp(base, rng.uniform(0, TWO_PI)))
                elif mode < 0.65 and vals:
                    vals.append(-vals[-1])
                else:
                    vals.append(cp(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI)))
            # the closed form holds 0 exactly when the binary fold does
            acc = CPoint(vals[0])
            for v in vals[1:]:
                acc = ct_add_sets(acc, CPoint(v))
            assert member(CZERO, ct_sum_n(vals)) == member(CZERO, acc)

    def test_order_independence(self, rng):
        for _ in range(40):
            n = rng.randint(3, 5)
            base = 1.0
            vals = [cp(base, rng.uniform(0, TWO_PI)) for _ in range(n - 1)]
            vals.append(-vals[0] if rng.random() < 0.4 else cp(base, rng.uniform(0, TWO_PI)))
            closed = ct_sum_n(vals)
            for perm in itertools.permutations(vals):
                acc = CPoint(perm[0])
                for v in perm[1:]:
                    acc = ct_add_sets(acc, CPoint(v))
                assert set_eq(acc, closed)


class TestUpperSemicontinuitySpotCheck:
    """Small input perturbations keep the sum inside a slightly inflated
    neighborhood of the unperturbed result (sampled reading only; the
    branch jumps all shrink the result, never grow it)."""

    def test_perturbed_sums_stay_inside(self, rng):
        delta = 1e-4
        neighborhood = Tolerance(100 * delta)  # the prescribed open blow-up
        for _ in range(150):
            m = math.exp(rng.uniform(-1, 1))
            a = cp(m, rng.uniform(0, TWO_PI))
            mode = rng.random()
            if mode < 0.35:
                b = cp(m, rng.uniform(0, TWO_PI))
            elif mode < 0.6:
                b = -a
            else:
                b = cp(math.exp(rng.uniform(-1, 1)), rng.uniform(0, TWO_PI))
            base = ct_add(a, b)
            for _ in range(4):
                pa = cp(max(0.0, a.modulus + rng.uniform(-delta, delta)),
                        a.argument + rng.uniform(-delta, delta))
                pb = cp(max(0.0, b.modulus + rng.uniform(-delta, delta)),
                        b.argument + rng.uniform(-delta, delta))
                got = ct_add(pa, pb)
                for z in pick(got, rng, 2):
                    assert member(z, base, neighborhood)


class TestRealTropical:
    def test_table(self):
        assert rset_eq(rt_add(3, -2), rpoint(3))
        assert rset_eq(rt_add(1.5, 1.5), rpoint(1.5))
        assert rset_eq(rt_add(2, -2), rinterval(-2, 2))
        assert rset_eq(rt_add(-1, 2), rpoint(2))

    def test_matches_complex_intersection(self, rng):
        # rt_add must agree with the complex sum intersected with R
        for _ in range(200):
            a = rng.choice([1.0, -1.0]) * math.exp(rng.uniform(-1, 1))
            b = rng.choice([a, -a, rng.choice([1.0, -1.0]) * math.exp(rng.uniform(-1, 1))])
            za = cp(abs(a), 0 if a >= 0 else PI)
            zb = cp(abs(b), 0 if b >= 0 else PI)
            cs = ct_add(za, zb)
            real_parts = []
            if isinstance(cs, CPoint):
                real_parts.append((cs.elem.re, cs.elem.re))
            elif isinstance(cs, CDisk):
                real_parts.append((-cs.radius, cs.radius))
            else:
                for ang, val in ((0.0, cs.radius), (PI, -cs.radius)):
                    if cs.contains_angle(ang, 1e-9):
                        real_parts.append((val, val))
            from hyperalg.rsets import rset

            assert rset_eq(rt_add(a, b), rset(real_parts))

    def test_set_extension_associativity(self, rng):
        for _ in range(150):
            m = math.exp(rng.uniform(-1, 1))
            pool = [m, -m, 2 * m, -2 * m, 0.0]
            a, b, c = (rng.choice(pool) for _ in range(3))
            lhs = rt_add_sets(rt_add(a, b), rpoint(c))
            rhs = rt_add_sets(rpoint(a), rt_add(b, c))
            assert rset_eq(lhs, rhs)


class TestPhase:
    def test_same_as_complex_on_arcs(self):
        got = phase_add(cp(1, 0), cp(1, PI / 2))
        assert set_eq(got, CArc(1, 0, PI / 2))

    def test_antipodal_gives_circle_and_zero(self):
        # the whole carrier, one set that holds every unit and 0 and no other
        got = phase_add(cp(1, 0), cp(1, PI))
        assert got is PHASE_ALL and format_cset(got) == "circle r=1 | point 0∠0"
        assert all(member(cp(1, t), got) for t in (0.0, 1.0, PI, 5.0)) and member(CZERO, got)
        assert not member(cp(0.5, 1.0), got) and not member(cp(2, 1.0), got)

    def test_zero_neutral(self):
        assert phase_add(CZERO, cp(1, 2.0)) == CPoint(cp(1, 2.0))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            phase_add(cp(2, 0), cp(1, 0))

    def test_sign_table_recovered(self):
        # the three real phases reproduce the sign hyperfield's table
        one, mone = cp(1, 0), cp(1, PI)
        assert set_eq(phase_add(one, one), CPoint(one))
        got = phase_add(one, mone)
        assert member(one, got) and member(mone, got) and member(CZERO, got)

    # the whole carrier with another phase set: 0, a unit, a unit arc, itself
    WHOLE_SET_RULES = [
        ("add", CPoint(CZERO), PHASE_ALL),
        ("add", CPoint(cp(1, 2.0)), PHASE_ALL),
        ("add", CArc(1, 0.5, 1.0), PHASE_ALL),
        ("add", PHASE_ALL, PHASE_ALL),
        ("mul", CPoint(CZERO), CPoint(CZERO)),
        ("mul", CPoint(cp(1, 2.0)), PHASE_ALL),
    ]

    @pytest.mark.parametrize("op, other, expected", WHOLE_SET_RULES)
    def test_whole_carrier_rules(self, op, other, expected):
        X = get_structure("Phi")
        f = X.add_sets if op == "add" else X.mul_sets
        for got in (f(PHASE_ALL, other), f(other, PHASE_ALL)):
            assert got == expected


class TestQuaternion:
    I = QuatElem(0, 1, 0, 0)
    J = QuatElem(0, 0, 1, 0)

    def test_arc_case(self):
        got = quat_add(self.I, self.J)
        assert isinstance(got, QArc)
        mid = QuatElem(0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0)
        assert qmember(mid, got)

    def test_cancellation_ball(self):
        q = QuatElem(1, 2, 3, 4)
        got = quat_add(q, -q)
        assert got == QBall(q.norm)

    def test_dominant(self):
        got = quat_add(QuatElem(2, 0, 0, 0), self.I)
        assert got == QPoint(QuatElem(2, 0, 0, 0))

    def test_minus_p_within_eps_outside_a_short_arc_gives_the_ball(self):
        """-p lies on the great circle of an arc of sweep 1e-4, 5e-10 rad
        before its start.  in_cone misses it (its coefficient is about -5e-6,
        under the -1e-7 cut), and the circle rule, which holds angles within
        eps, gives the ball, as ct_add_sets gives the disk."""
        tb, phi = 1e-4, PI - 5e-10
        arc = quat_add(QuatElem(1, 0, 0, 0), QuatElem(math.cos(tb), math.sin(tb), 0, 0))
        p = QuatElem(math.cos(phi), math.sin(phi), 0, 0)
        assert not in_cone(tuple(-x for x in p.unit()), arc, 1e-9)
        assert quat_add_sets(arc, QPoint(p)) == QBall(1.0)
        assert ct_add_sets(CArc(1, 0, tb), CPoint(cp(1, phi))) == CDisk(1)

    def test_p_at_the_cut_from_a_degenerate_arcs_first_end_gives_the_arc(self):
        """The ends lie 1e-8 rad apart and span no plane; p lies 1e-9 rad off
        the first end, where in_cone's residual rounds above the 1e-9 cut but
        the plane of that end and p is still too thin to factor."""
        a = QuatElem(0.33687504821074027, -2.246098849014929, 0.0, 0.0)
        b = QuatElem(0.3368750706717286, -2.2460988456461783, 0.0, 0.0)
        p = QuatElem(a.x, a.y, 2.2712210014996733e-09, 0.0)
        arc = quat_add(a, b)
        assert not in_cone(p.unit(), arc, 1e-9)
        assert quat_add_sets(arc, QPoint(p)) is arc

    def test_p_within_eps_beyond_an_arc_below_eps_keeps_the_arc(self):
        """The ends lie 2.4e-10 rad (3.2e-9) apart at radius 13.4, and p lies
        1e-9 rad beyond one end.  The circle rule holds p in the arc, whose
        sweep is under eps; the sum is that arc, not a point at one end."""
        a = QuatElem(-5.781588653180581, 12.040943677189336, 0.0, 0.0)
        b = QuatElem(-5.781588650276911, 12.040943678583565, 0.0, 0.0)
        p = QuatElem(-5.781588665221524, 12.040943671407748, 0.0, 0.0)
        arc = quat_add(a, b)
        assert isinstance(arc, QArc)
        assert qset_eq(quat_add_sets(arc, QPoint(p)), arc)

    @pytest.mark.parametrize("r, theta", [(1.0, 2e-8), (1.0, 2e-7), (1000.0, 1e-7)])
    def test_nearly_degenerate_arc_plus_its_ends(self, r, theta):
        """An arc whose ends are too close in direction to span a plane, yet
        farther apart than eps: adding either end gives the arc back, with
        neither end lost."""
        a = QuatElem(r, 0, 0, 0)
        b = QuatElem(r * math.cos(theta), r * math.sin(theta), 0, 0)
        arc = quat_add(a, b)
        assert isinstance(arc, QArc)
        for end in (a, b):
            assert qset_eq(quat_add_sets(arc, QPoint(end)), arc)

    @pytest.mark.parametrize("theta", [1e-8, 3e-8, 1e-7, 2e-7, 3e-7])
    def test_nearly_degenerate_arc_holds_its_interior(self, theta):
        """Ends under about 3e-7 rad apart span no plane in floats, yet at
        radius 1000 the arc's midpoint lies 5e-6 to 1.5e-4 from each end: it
        and the quarter point are members, while points 1e-4 off the arc or
        half the arc beyond an end are not; and adding the point opposite
        the midpoint gives the ball."""
        r = 1000.0

        def at(t, off=0.0):
            return QuatElem(r * math.cos(t * theta), r * math.sin(t * theta), off, 0)

        arc = quat_add(at(0.0), at(1.0))
        assert isinstance(arc, QArc)
        assert qmember(at(0.5), arc) and qmember(at(0.25), arc)
        assert not any(qmember(q, arc) for q in (at(0.5, 1e-4), at(1.5), at(-0.5)))
        assert quat_add_sets(arc, QPoint(-at(0.5))) == QBall(r)

    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.5])
    def test_tied_point_off_a_nearly_degenerate_arc_gives_one_cone(self, phi):
        """The sum of a nearly degenerate arc and a tied point p off its chord
        is the cone over its ends and p: it holds the arcs from each end to
        p, which were once a union of two arcs, and the arc's interior."""
        r, theta = 1000.0, 1e-7
        a = QuatElem(r, 0, 0, 0)
        b = QuatElem(r * math.cos(theta), r * math.sin(theta), 0, 0)
        p = QuatElem(r * math.cos(phi), 0, r * math.sin(phi), 0)
        got = quat_add_sets(quat_add(a, b), QPoint(p))
        assert got == QCone((a, b, p))
        rng = random.Random(5)
        assert all(qmember(q, got) for q in qpick(got, rng, 20))
        for end in (a, b):
            assert all(qmember(q, got) for q in qpick(QArc(end, p), rng, 20))
        mid = QuatElem(r * math.cos(0.5 * theta), r * math.sin(0.5 * theta), 0, 0)
        assert qmember(mid, got)
        assert not qmember(QuatElem(r * math.cos(phi), 0, -r * math.sin(phi), 0), got)
        # the cone's directions have no negative i part: 1e-6 rad below it is out
        half = 0.5 * phi
        assert not qmember(QuatElem(r * math.cos(half), -1e-6 * r, r * math.sin(half), 0), got)

    @pytest.mark.parametrize("phi", [0.3, -0.3, 2.5, 3e-7])
    def test_tied_point_on_the_circle_of_a_nearly_degenerate_arc_gives_an_arc(self, phi):
        """p in span(1, i), the plane of the arc, outside it: the circle rule
        gives the arc from its far end to p, as the sum in the other order."""
        r, theta = 1000.0, 1e-7
        a = QuatElem(r, 0, 0, 0)
        b = QuatElem(r * math.cos(theta), r * math.sin(theta), 0, 0)
        p = QuatElem(r * math.cos(phi), r * math.sin(phi), 0, 0)
        got = quat_add_sets(quat_add(a, b), QPoint(p))
        assert isinstance(got, QArc)
        assert qset_eq(got, QArc(a if phi > 0 else b, p))
        assert qset_eq(got, quat_add_sets(QPoint(a), quat_add(b, p)))

    @pytest.mark.parametrize("seed", range(4))
    def test_nearly_degenerate_arc_plus_a_tied_point_holds_its_samples(self, seed):
        """For arcs whose ends are 1e-7 to 3e-9 rad apart and tied points in
        any direction, near an end or on the arc's great circle, the sum holds
        the points picked from it, from the arc, from p and from the arcs
        from each end to p."""
        rng = random.Random(seed)

        def unit(v):
            n = math.sqrt(sum(x * x for x in v))
            return tuple(x / n for x in v)

        def gauss4():
            return [rng.gauss(0.0, 1.0) for _ in range(4)]

        r = 10.0 ** rng.uniform(0.0, 3.0)  # the ends stay more than eps apart
        for _ in range(40):
            ua = unit(gauss4())
            ub = unit([x + 10.0 ** -rng.uniform(7.0, 8.5) * y for x, y in zip(ua, unit(gauss4()))])
            mode = rng.choice(["free", "near", "circle"])
            if mode == "free":
                up = unit(gauss4())
            elif mode == "near":
                up = unit([x + 10.0 ** -rng.uniform(6.0, 8.0) * y for x, y in zip(ua, unit(gauss4()))])
            else:
                t = rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0])
                w = unit([y - x for x, y in zip(ua, ub)])
                up = unit([math.cos(t) * x + math.sin(t) * y for x, y in zip(ua, w)])
            a, b, p = (QuatElem(*(r * x for x in u)) for u in (ua, ub, up))
            arc = quat_add(a, b)
            got = quat_add_sets(arc, QPoint(p))
            assert isinstance(arc, QArc) and (mode != "circle" or isinstance(got, QArc))
            pts = qpick(got, rng) + qpick(arc, rng) + [p]
            for end in (a, b):
                pts += qpick(quat_add(end, p), rng)
            assert all(qmember(q, got) for q in pts), (mode, got)

    def test_tied_point_inside_a_nearly_degenerate_arc_gives_the_arc(self):
        r, theta = 1000.0, 1e-7
        arc = quat_add(QuatElem(r, 0, 0, 0), QuatElem(r * math.cos(theta), r * math.sin(theta), 0, 0))
        mid = QuatElem(r * math.cos(0.5 * theta), r * math.sin(0.5 * theta), 0, 0)
        assert quat_add_sets(arc, QPoint(mid)) == arc

    def _cone(self, r):
        return QCone(
            (QuatElem(r, 0, 0, 0), QuatElem(0, r, 0, 0), QuatElem(0, 0, r, 0))
        )

    def test_dominant_arc_or_cone_wins(self):
        big = quat_add(QuatElem(2, 0, 0, 0), QuatElem(0, 2, 0, 0))
        small = quat_add(QuatElem(0, 0, 1, 0), QuatElem(0, 0, 0, 1))
        p1, p2 = QPoint(QuatElem(0, 0, 1, 0)), QPoint(QuatElem(0, 0, 2, 0))
        for x, y in ((big, p1), (self._cone(2), p1), (p2, small), (p2, self._cone(1))):
            assert quat_add_sets(x, y) == x
            assert quat_add_sets(y, x) == x

    def test_tied_arc_pair_is_not_closed(self):
        arc1 = quat_add(QuatElem(1, 0, 0, 0), QuatElem(0, 1, 0, 0))
        arc2 = quat_add(QuatElem(0, 0, 1, 0), QuatElem(0, 0, 0, 1 + 5e-10))
        for x, y in ((arc1, arc2), (arc1, self._cone(1))):
            with pytest.raises(RepresentationClosureError):
                quat_add_sets(x, y)

    @pytest.mark.parametrize(
        "p, expected",
        [
            ((-1, -1, -1, 0), QBall(1)),  # -p is in the cone
            ((1, 1, 0, 0), None),  # p is in the cone, which absorbs it
            ((0, 0, 0, 1), QCone((QuatElem(1, 0, 0, 0), QuatElem(0, 1, 0, 0),
                                  QuatElem(0, 0, 1, 0), QuatElem(0, 0, 0, 1)))),
        ],
        ids=["antipode-in-cone", "in-cone", "off-cone"],
    )
    def test_cone_plus_tied_point(self, p, expected):
        cone = self._cone(1)
        n = math.sqrt(sum(x * x for x in p))
        point = QPoint(QuatElem(*(x / n for x in p)))
        expected = expected or cone
        assert quat_add_sets(cone, point) == expected
        assert quat_add_sets(point, cone) == expected

    @pytest.mark.parametrize(
        "side, images",
        [("left", ((0, 0, 0, 2), (0, 0, 2, 0), (0, -2, 0, 0))),
         ("right", ((0, 0, 0, 2), (0, 0, -2, 0), (0, 2, 0, 0)))],
    )
    def test_scaling_a_cone_maps_its_vertices(self, side, images):
        # 2k times 1, i, j on either side
        got = get_structure("quat").scale(QuatElem(0, 0, 0, 2), self._cone(1), side)
        assert got == QCone(tuple(QuatElem(*v) for v in images))

    @pytest.mark.parametrize("dr", [0.0, 5e-10, -5e-10])
    def test_point_on_ball_boundary_gives_ball(self, dr):
        p = QPoint(QuatElem(0, 0, 1 + dr, 0))
        assert quat_add_sets(QBall(1), p) == QBall(1)
        assert quat_add_sets(p, QBall(1)) == QBall(1)

    def test_scaling_a_ball_below_tolerance_gives_origin(self):
        # as ct_mul_sets(CPoint(ComplexElem(1e-10, 0)), CDisk(1.0)) gives point 0
        assert quat_scale(QBall(1.0), QuatElem(1e-10, 0, 0, 0), "left") == QPoint(QZERO)

    def test_restriction_to_complex_plane(self, rng):
        # pairs in the (x, y) plane behave exactly like the complex carrier
        for _ in range(150):
            ma, mb = math.exp(rng.uniform(-1, 1)), math.exp(rng.uniform(-1, 1))
            if rng.random() < 0.5:
                mb = ma
            ta, tb = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
            if rng.random() < 0.3:
                tb = ta + PI
            qa = QuatElem(ma * math.cos(ta), ma * math.sin(ta), 0, 0)
            qb = QuatElem(mb * math.cos(tb), mb * math.sin(tb), 0, 0)
            qres = quat_add(qa, qb)
            cres = ct_add(cp(ma, ta), cp(mb, tb))
            for z in pick(cres, rng, 2):
                qz = QuatElem(z.re, z.im, 0, 0)
                assert qmember(qz, qres, Tolerance(1e-7))

    def test_associativity_strata(self, rng):
        for _ in range(120):
            v = [rng.gauss(0, 1) for _ in range(4)]
            n = math.sqrt(sum(x * x for x in v))
            a = QuatElem(*(x / n for x in v))
            w = [rng.gauss(0, 1) for _ in range(4)]
            nw = math.sqrt(sum(x * x for x in w))
            peer = QuatElem(*(x / nw for x in w))
            pool = [a, -a, peer, -peer, QuatElem(2, 0, 0, 0), QuatElem(0, 0, 0, 0)]
            x, y, z = (rng.choice(pool) for _ in range(3))
            lhs = quat_add_sets(quat_add(x, y), QPoint(z))
            rhs = quat_add_sets(QPoint(x), quat_add(y, z))
            assert qset_eq(lhs, rhs), (x, y, z)


# -- a set sum adds a point ------------------------------------------------------
# Each family's value sets, one of each component kind with the point first,
# and three points: one tied with them, one that dominates them and one they
# dominate (the valued families compare by exponent).


def _mono(e):
    return MonomialElem(complex(1, 1), e)


def _padic(e, digit):
    return padic_from_digits(5, e, [digit], 8)


_Q = QuatElem
SET_PLUS_POINT = {
    "TC": (
        [CPoint(cp(1, 0.3)), CArc(1, 0, PI / 2), CArc(1, 5.5, 1.0), CDisk(1)],
        [cp(1, 2.0), cp(2, 2.0), cp(0.5, 2.0)],
    ),
    "quat": (
        [QPoint(_Q(1, 0, 0, 0)), QArc(_Q(1, 0, 0, 0), _Q(0, 1, 0, 0)),
         QCone((_Q(1, 0, 0, 0), _Q(0, 1, 0, 0), _Q(0, 0, 1, 0))), QBall(1)],
        [_Q(0, 0, 0, 1), _Q(0, 0, 0, 2), _Q(0, 0, 0, 0.5)],
    ),
    "TR": ([rpoint(1.0), rinterval(-1, 1)], [-1.0, 2.0, 0.5]),
    "mono": ([VPoint(_mono(1)), MCone(1)], [_mono(1), _mono(2), _mono(0)]),
    "padic:5:8": ([VPoint(_padic(1, 1)), PCone(5, 1)], [_padic(1, 2), _padic(0, 3), _padic(2, 4)]),
}
_SET_PLUS_POINT_CASES = [
    (name, s, p)
    for name, (sets, points) in SET_PLUS_POINT.items()
    for s in sets
    for p in points
]


@pytest.mark.parametrize("name, s, p", _SET_PLUS_POINT_CASES)
def test_a_set_plus_a_point_is_one_set_on_either_side(name, s, p, rng):
    """add_sets(s, {p}) and add_sets({p}, s) are one set, which holds x + p
    for the points x drawn from s."""
    X = get_structure(name)
    got = X.add_sets(s, X.singleton(p))
    assert X.set_eq(got, X.add_sets(X.singleton(p), s)), (s, p)
    for x in X.pick(s, rng, 3):
        assert X.subset(X.add(x, p), got), (s, x, p)


@pytest.mark.parametrize("name", sorted(SET_PLUS_POINT))
def test_two_sets_without_a_point_raise(name):
    X = get_structure(name)
    sets = SET_PLUS_POINT[name][0][1:]  # all but the point
    for s, t in itertools.product(sets, repeat=2):
        with pytest.raises(RepresentationClosureError):
            X.add_sets(s, t)
