"""Core value-set representations: normalization, membership, equality."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalg.csets import (
    CArc,
    CDisk,
    CPoint,
    CUnion,
    CZERO,
    ComplexElem,
    InvalidSetError,
    PHASE_ALL,
    format_cset,
    full_circle,
    member,
    normalize_parts,
    parse_celem,
    pick,
    set_eq,
    subset,
)
from hyperalg.ctrop import ct_add_sets, ct_mul_sets, phase_add
from hyperalg.qsets import (
    QZERO,
    QArc,
    QBall,
    QCone,
    QPoint,
    QuatElem,
    in_cone,
    qmember,
    qnormalize,
    qpick,
    qset_eq,
    slerp,
)
from hyperalg.realhf import trop_add_sets, tri_add, tri_add_sets, ultra_add_sets
from hyperalg.rsets import (
    RSet,
    format_rset,
    rinterval,
    rmember,
    rpoint,
    rset,
    rset_eq,
    rsubset,
)
from hyperalg.tolerance import NEG_INF, TWO_PI, RepresentationClosureError, Tolerance

PI = math.pi


class TestNormalize:
    # a complex value set is one component: the cases below are sums of a set
    # and a point, and products of two components, which normalize_parts
    # never merges

    def test_adjacent_arcs_merge(self):
        s = ct_add_sets(CArc(1, 0, PI / 4), CPoint(ComplexElem(1, PI / 2)))
        assert isinstance(s, CArc)
        assert s.start == pytest.approx(0.0) and s.sweep == pytest.approx(PI / 2)

    def test_point_absorbed_by_disk(self):
        s = ct_add_sets(CPoint(ComplexElem(1, 0)), CDisk(2))
        assert s == CDisk(2)

    def test_point_dedup(self):
        s = ct_add_sets(CPoint(ComplexElem(1, 0)), CPoint(ComplexElem(1, 0)))
        assert s == CPoint(ComplexElem(1, 0))

    def test_wraparound_merge(self):
        # a tied point past the arc's end gives one arc through angle 0
        s = ct_add_sets(CArc(1, 7 * PI / 4, PI / 8), CPoint(ComplexElem(1, PI / 4)))
        assert isinstance(s, CArc)
        assert s.start == pytest.approx(7 * PI / 4) and s.sweep == pytest.approx(PI / 2)

    def test_near_full_promotion(self):
        s = ct_mul_sets(CArc(1, 0, PI), CArc(1, 0.5, PI - 1e-12))
        assert isinstance(s, CArc) and s.full

    def test_zero_radius_arc_rejected(self):
        with pytest.raises(InvalidSetError):
            CArc(0.0, 0, 1)

    def test_empty_rejected(self):
        for parts in ([], [CPoint(ComplexElem(1, 0)), CPoint(ComplexElem(1, PI))]):
            with pytest.raises(RepresentationClosureError):
                normalize_parts(parts)

    def test_tiny_disk_becomes_origin(self):
        for radius in (0.0, 5e-10):
            assert normalize_parts([CDisk(radius)]) == CPoint(CZERO)

    def test_lone_near_full_arc_becomes_full_circle(self):
        s = normalize_parts([CArc(1.0, 0.3, TWO_PI - 5e-10)])
        assert s == full_circle(1.0) and s.full


class TestMember:
    def test_interior_arc_point(self):
        assert member(ComplexElem(1, PI / 4), CArc(1, 0, PI / 2))

    def test_disk_center(self):
        assert member(CZERO, CDisk(1))

    def test_radius_mismatch(self):
        assert not member(ComplexElem(2, 0), CArc(1, 0, PI / 2))

    def test_union_semantics(self):
        # the phase carrier's whole set: the unit circle with 0
        assert member(ComplexElem(1, 2.0), PHASE_ALL)
        assert member(CZERO, PHASE_ALL)
        assert not member(ComplexElem(0.5, 2.0), PHASE_ALL)


class TestSetEq:
    def test_disk_tolerance(self):
        assert set_eq(CDisk(1), CDisk(1 + 1e-12))
        assert not set_eq(CDisk(1), CDisk(1 + 1e-6))

    def test_arc_sweep_differs(self):
        assert not set_eq(CArc(1, 0, PI / 2), CArc(1, 0, PI / 3))

    def test_interval_eq(self):
        assert rset_eq(rinterval(1, 3), rinterval(1, 3))

    def test_union_absorption(self):
        assert set_eq(ct_add_sets(CDisk(1), CPoint(ComplexElem(1, PI / 4))), CDisk(1))

    def test_two_points_union(self):
        # two antipodal phases sum to the unit circle with 0, one set that
        # equals itself and neither the circle nor 0
        u = phase_add(ComplexElem(1, 0), ComplexElem(1, PI))
        assert u is PHASE_ALL and set_eq(u, CUnion())
        for other in (full_circle(1.0), CPoint(CZERO), CDisk(1.0)):
            assert not set_eq(u, other) and not set_eq(other, u)


# -- property tests ---------------------------------------------------------

# grid-valued draws: ties coincide exactly, distinct values stay far from the
# comparison cutoffs (eps-straddling inputs are outside the declared policy)
_grid_mod = st.integers(0, 300).map(lambda k: k * 0.01)
_grid_radius = st.integers(10, 300).map(lambda k: k * 0.01)
_grid_angle = st.integers(0, 6282).map(lambda k: k * 1e-3)
_grid_sweep = st.integers(1, 6282).map(lambda k: k * 1e-3)

points = st.builds(CPoint, st.builds(ComplexElem, _grid_mod, _grid_angle))
components = st.one_of(
    points,
    st.builds(CArc, _grid_radius, _grid_angle, _grid_sweep),
    st.builds(CDisk, _grid_mod),
)


def _radius(c) -> float:
    return c.elem.modulus if isinstance(c, CPoint) else c.radius


@given(components)
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(c):
    s = normalize_parts([c])
    assert normalize_parts([s]) == s


@given(components, components)
@settings(max_examples=150, deadline=None)
def test_member_respects_union(c1, c2):
    """The phase carrier's whole set holds exactly the units and 0."""
    probes = pick(normalize_parts([c1]), random.Random(1), 2) + pick(
        normalize_parts([c2]), random.Random(2), 2
    ) + [CZERO, ComplexElem(1.0, 0.3), ComplexElem(1.7, 0.3)]
    for x in probes:
        on_carrier = x.modulus <= 1e-9 or abs(x.modulus - 1.0) <= 1e-9
        assert member(x, PHASE_ALL) == on_carrier, x


@given(components, points)
@settings(max_examples=100, deadline=None)
def test_set_eq_implies_member_agreement(c1, c2):
    """A set plus a point in either order is one set, and each holds what the
    other samples."""
    a, b = normalize_parts([c1]), normalize_parts([c2])
    s1, s2 = ct_add_sets(a, b), ct_add_sets(b, a)
    assert set_eq(s1, s2)
    for x in pick(s1, random.Random(3), 3):
        assert member(x, s2)


@given(components, points)
@settings(max_examples=100, deadline=None)
def test_subset_of_union(c1, c2):
    """A set plus a point holds each operand of the larger radius: a tied sum
    holds both."""
    a, b = normalize_parts([c1]), normalize_parts([c2])
    s = ct_add_sets(a, b)
    top = max(_radius(a), _radius(b))
    for c in (a, b):
        if _radius(c) == top:
            assert subset(c, s), (a, b, s)


# -- the tie rule ------------------------------------------------------------


class TestOrder:
    """Tolerance.order, the one dominant-or-tie decision of every addition."""

    def test_int_and_fraction_values_compare_exactly(self):
        order = Tolerance().order
        assert order(Fraction(1, 10**12), 0) == 1
        assert order(0, Fraction(1, 10**12)) == -1
        assert order(Fraction(1, 3), Fraction(2, 6)) == 0
        assert order(3, 2) == 1 and order(2, 2) == 0

    @pytest.mark.parametrize("inf", [math.inf, NEG_INF])
    def test_matching_infinities_tie(self, inf):
        order = Tolerance().order
        assert order(inf, inf) == 0
        assert order(inf, 0.0) == -order(0.0, inf) == (1 if inf > 0 else -1)

    def test_zero_width_orders_every_distinct_pair(self):
        assert Tolerance(0.0).order(1.0, 1.0 + 2**-52) == -1


# -- real sets ---------------------------------------------------------------


class TestRSet:
    # touching, disjoint, overlapping and no pairs: a real set is one interval
    OTHER_THAN_ONE = ([(0, 1), (1, 2)], [(0, 1), (2, 3)], [(0, 2), (1, 5)], [])

    def test_rset_of_other_than_one_pair_raises(self):
        for pairs in self.OTHER_THAN_ONE:
            with pytest.raises(InvalidSetError):
                rset(pairs)

    def test_constructor_of_other_than_one_pair_raises(self):
        for pairs in self.OTHER_THAN_ONE:
            with pytest.raises(InvalidSetError):
                RSet(tuple(pairs))

    def test_interval_merge(self):
        # the ultra set sum of touching intervals: the tie at 1 gives [0,1]
        # and dominance gives [1,2]; they merge into one interval
        assert ultra_add_sets(rinterval(0, 1), rinterval(1, 2)) == rinterval(0, 2)
        assert trop_add_sets(rinterval(NEG_INF, 1), rinterval(1, 2)) == rinterval(NEG_INF, 2)

    def test_union_merges_overlap(self):
        # 2 + b over b in [1,3] is [|2-b|, 2+b]: overlapping pieces whose union is [0,5]
        u = tri_add_sets(rpoint(2), rinterval(1, 3))
        assert u == rinterval(0, 5)
        for b in (1.0, 1.5, 2.0, 2.5, 3.0):
            assert rsubset(tri_add(2.0, b), u)

    def test_member_with_neg_inf(self):
        s = rinterval(NEG_INF, 2.0)
        assert rmember(NEG_INF, s)
        assert rmember(-1e6, s)
        assert not rmember(2.1, s)

    def test_subset(self):
        assert rsubset(rinterval(1, 2), rinterval(0, 3))
        assert not rsubset(rinterval(0, 4), rinterval(0, 3))

    def test_lone_slightly_inverted_interval_becomes_point(self):
        s = rset([(1.0, 1.0 - 5e-10)])
        assert len(s.intervals) == 1 and s.lo == s.hi == pytest.approx(1.0)

    def test_lone_nan_interval_rejected(self):
        with pytest.raises(InvalidSetError):
            rset([(math.nan, 1.0)])

    def test_format_golden(self):
        assert format_rset(rset([(5, 5)])) == "point 5"
        assert format_rset(rinterval(1, 3)) == "interval [1,3]"


# -- quaternion sets ---------------------------------------------------------


class TestQSet:
    def test_arc_contains_slerp_midpoint(self):
        i = QuatElem(0, 1, 0, 0)
        j = QuatElem(0, 0, 1, 0)
        arc = QArc(i, j)
        mid = QuatElem(*slerp(i.unit(), j.unit(), 0.5))
        assert qmember(mid, arc)
        assert not qmember(QuatElem(0, 0, 0, 1), arc)

    def test_ball_member(self):
        assert qmember(QuatElem(0.2, 0.1, 0, 0), QBall(1.0))
        assert not qmember(QuatElem(2, 0, 0, 0), QBall(1.0))

    def test_cone_membership(self):
        a = QuatElem(1, 0, 0, 0)
        b = QuatElem(0, 1, 0, 0)
        c = QuatElem(0, 0, 1, 0)
        cone = QCone((a, b, c))
        inside = QuatElem(1, 1, 1, 0)
        n = inside.norm
        assert qmember(QuatElem(1 / n, 1 / n, 1 / n, 0), cone)
        assert not qmember(QuatElem(0, 0, 0, 1), cone)
        assert not qmember(QuatElem(-1, 0, 0, 0), cone)

    def test_interior_of_ill_conditioned_cone(self):
        """Four generators within 3e-4 rad of one direction: their Gram matrix
        has condition number above 1e8, so a membership rule that inverts it
        (a dual basis) misses this point whose weights are all 1/4 by a
        residual of about 2e-8."""
        d = 1.5e-4
        gens = [QuatElem(1, 0, 0, 0), QuatElem(1, d, 0, 0), QuatElem(1, 0, d, 0), QuatElem(1, d, d, d)]
        units = [g.unit() for g in gens]

        def rayleigh(w):  # w.G.w / w.w for the Gram matrix G of the units
            v = [sum(wi * g[k] for wi, g in zip(w, units)) for k in range(4)]
            return sum(x * x for x in v) / sum(x * x for x in w)

        # largest eigenvalue >= rayleigh(x) and smallest <= rayleigh(y)
        assert rayleigh((1, 1, 1, 1)) / rayleigh((1, -1, 0, 0)) >= 1e8
        mean = QuatElem(*(sum(g[k] for g in units) / 4 for k in range(4)))
        assert in_cone(mean.unit(), units, 1e-9)
        assert qmember(QuatElem(*mean.unit()), QCone(tuple(QuatElem(*u) for u in units)))

    def test_set_eq_unordered(self):
        i = QuatElem(0, 1, 0, 0)
        j = QuatElem(0, 0, 1, 0)
        assert qset_eq(QArc(i, j), QArc(j, i))

    def test_tiny_ball_becomes_origin(self):
        assert qnormalize([QBall(5e-10)]) == QPoint(QZERO)

    def test_two_components_are_no_value_set(self):
        with pytest.raises(RepresentationClosureError, match="one component"):
            qnormalize([QPoint(QuatElem(1, 0, 0, 0)), QPoint(QZERO)])

    @pytest.mark.parametrize("r", [1.0, 1000.0])
    def test_cone_holds_the_chord_of_close_vertices(self, r):
        """Two vertices 1e-8 rad apart span no plane, and the direction
        between them lies 5e-9 off the plane of either with the third vertex,
        yet the cone holds their chord; a point 1e-6 rad beyond it is out."""
        theta = 1e-8

        def toward_k(t):
            return QuatElem(r * math.cos(t), 0, r * math.sin(t), 0)

        cone = QCone((toward_k(0.0), toward_k(theta), QuatElem(0, r, 0, 0)))
        assert all(qmember(toward_k(t * theta), cone) for t in (0.25, 0.5, 0.75))
        assert not qmember(toward_k(-1e-6), cone)
        assert all(qmember(x, cone) for x in qpick(cone, random.Random(3), 20))

    @staticmethod
    def _cone_of_directions(r, dirs):
        units = [tuple(x / math.sqrt(sum(y * y for y in d)) for x in d) for d in dirs]
        return QCone(tuple(QuatElem(*(r * x for x in u)) for u in units))

    def test_rank_one_cone_holds_its_interior(self):
        """Three vertices 1e-7 rad apart have rank 1 under the rank cutoff,
        yet the cone holds its centroid, 4.7e-8 rad from each vertex."""
        h, r = 1e-7, 1000.0
        cone = self._cone_of_directions(r, [(1, 0, 0, 0), (1, h, 0, 0), (1, 0.5 * h, 0.866 * h, 0)])
        centroid = QuatElem(r, r * 0.5 * h, r * 0.866 * h / 3, 0)
        assert qmember(centroid, cone)
        assert all(qmember(x, cone) for x in qpick(cone, random.Random(3), 20))
        assert not qmember(QuatElem(r, r * 0.5 * h, -r * 0.5 * h, 0), cone)

    def test_thin_cone_of_full_rank_holds_its_interior(self):
        """Three directions 1e-6 rad apart in span(1, i, j) and one 2.5e-7
        rad toward k: each three are independent, the four are not under the
        rank cutoff, yet the cone holds the mean of the four and its samples,
        and not the point 6e-8 rad below the span."""
        a, b, r = 1e-6, 2.5e-7, 1000.0
        dirs = [(1, a, 0, 0), (1, 0, a, 0), (1, -a, -a, 0), (1, 0, 0, b)]
        cone = self._cone_of_directions(r, dirs)
        assert qmember(QuatElem(r, 0, 0, r * b / 4), cone)
        assert all(qmember(x, cone) for x in qpick(cone, random.Random(3), 20))
        assert not qmember(QuatElem(r, 0, 0, -r * b / 4), cone)


# -- text forms ---------------------------------------------------------------


class TestTextForms:
    def test_celem_roundtrip(self):
        for text in ("1∠0", "2.5∠1.5707963268", "1@0.5"):
            e = parse_celem(text)
            assert parse_celem(format_celem_text(e)).eq(e)

    def test_cartesian_forms(self):
        assert parse_celem("i").eq(ComplexElem(1, PI / 2))
        assert parse_celem("-1").eq(ComplexElem(1, PI))
        assert parse_celem("3+4i").eq(ComplexElem(5, math.atan2(4, 3)))

    def test_golden_formats(self):
        assert format_cset(CArc(1, 0, PI / 2)) == "arc r=1 from=0 sweep=1.5707963268"
        assert format_cset(CDisk(1)) == "disk r=1"
        assert format_cset(full_circle(1)) == "circle r=1"

    @pytest.mark.parametrize(
        "x, text",
        [(1e154, "1e+154"), (-2.5e15, "-2.5e+15"), (1234567891234567.0, "1.234567891e+15"),
         (999999999999999.0, "999999999999999"), (6e-17, "0"), (-6e-17, "0")],
    )
    def test_huge_numbers_print_in_exponent_form(self, x, text):
        from hyperalg.tolerance import fmt_num

        assert fmt_num(x) == text
        assert float(text) == pytest.approx(x, rel=1e-9, abs=1e-16)

    def test_cset_roundtrip(self):
        s = ct_add_sets(CArc(1, 0, PI / 4), CPoint(ComplexElem(1, PI / 2)))
        text = format_cset(s)
        assert text == "arc r=1 from=0 sweep=1.5707963268"
        fields = dict(f.split("=") for f in text.split()[1:])
        back = CArc(float(fields["r"]), float(fields["from"]), float(fields["sweep"]))
        assert set_eq(back, s)
        # the phase carrier's whole set prints as the circle and 0
        text = format_cset(PHASE_ALL)
        assert text == "circle r=1 | point 0∠0"
        assert parse_celem(text.split(" | ")[1].split()[1]) == CZERO


def format_celem_text(e):
    from hyperalg.csets import format_celem

    return format_celem(e)
