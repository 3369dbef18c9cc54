"""Hypothesis property tests for the carrier algebra laws.

Values are drawn from coarse grids: exact ties (the measure-zero branches)
arise from coinciding draws, while distinct draws stay far from the branch
cutoffs, matching the declared tolerance policy.
"""
import dataclasses
import itertools
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperalg import csets, exotic, qsets, rsets
from hyperalg.axioms import stratified_tuples
from hyperalg.csets import CDisk, CPoint, CZERO, ComplexElem, set_eq
from hyperalg.ctrop import (
    ct_add,
    ct_add_sets,
    ct_mul_sets,
    quat_add,
    quat_add_sets,
    rt_add,
    rt_add_sets,
)
from hyperalg.deq import c_add_0, c_add_h
from hyperalg.homs import _random_poly
from hyperalg.realhf import (
    amoeba_add,
    amoeba_add_sets,
    tri_add,
    tri_add_sets,
    trop_add,
    trop_add_sets,
    ultra_add,
    ultra_add_sets,
)
from hyperalg.rsets import rpoint, rset_eq
from hyperalg.structures import REGISTRY_NAMES, get_structure
from hyperalg.tolerance import TWO_PI, InvalidSetError, Tolerance, circ_dist, wrap_angle

WIDE = Tolerance(1e-7)

pos = st.integers(0, 4000).map(lambda k: k * 0.25)
reals = st.integers(-200, 200).map(lambda k: k * 0.25)
angles = st.integers(0, 6282).map(lambda k: k * 1e-3)
moduli = st.integers(1, 160).map(lambda k: k * 0.25)


def _tie_triple(draw_values, share):
    """Reuse drawn values across slots so measure-zero branches get hit."""
    a, b, c = draw_values
    if share & 1:
        b = a
    if share & 2:
        c = a if share & 4 else b
    return a, b, c


@given(st.tuples(pos, pos, pos), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_triangle_associative(values, share):
    a, b, c = _tie_triple(values, share)
    lhs = tri_add_sets(tri_add(a, b), rpoint(c))
    rhs = tri_add_sets(rpoint(a), tri_add(b, c))
    assert rset_eq(lhs, rhs, WIDE)


@given(st.tuples(pos, pos, pos), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_ultra_associative(values, share):
    a, b, c = _tie_triple(values, share)
    lhs = ultra_add_sets(ultra_add(a, b), rpoint(c))
    rhs = ultra_add_sets(rpoint(a), ultra_add(b, c))
    assert rset_eq(lhs, rhs, WIDE)


@given(st.tuples(reals, reals, reals), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_tropical_associative(values, share):
    a, b, c = _tie_triple(values, share)
    lhs = trop_add_sets(trop_add(a, b), rpoint(c))
    rhs = trop_add_sets(rpoint(a), trop_add(b, c))
    assert rset_eq(lhs, rhs, WIDE)


@given(st.tuples(reals, reals, reals), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_amoeba_associative(values, share):
    a, b, c = _tie_triple((v * 0.05 for v in values), share)
    lhs = amoeba_add_sets(amoeba_add(a, b), rpoint(c))
    rhs = amoeba_add_sets(rpoint(a), amoeba_add(b, c))
    assert rset_eq(lhs, rhs, WIDE)


@given(pos, pos)
@settings(max_examples=200, deadline=None)
def test_triangle_commutative(a, b):
    assert rset_eq(tri_add(a, b), tri_add(b, a))


@given(moduli, angles, angles, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_complex_tropical_commutative(m, t1, t2, tie, antipode):
    a = ComplexElem(m, t1)
    if antipode:
        b = -a
    elif tie:
        b = ComplexElem(m, t2)
    else:
        b = ComplexElem(m * 1.5, t2)
    assert set_eq(ct_add(a, b), ct_add(b, a), WIDE)


@given(moduli, moduli, angles, angles, angles, st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_complex_tropical_associative(m1, m2, t1, t2, t3, mode):
    a = ComplexElem(m1, t1)
    if mode == 0:
        b, c = ComplexElem(m2, t2), ComplexElem(m2, t3)
    elif mode == 1:
        b, c = ComplexElem(m1, t2), -a
    elif mode == 2:
        b, c = -a, ComplexElem(m1, t3)
    elif mode == 3:
        b, c = -a, a
    elif mode == 4:
        b, c = ComplexElem(m1, t2), ComplexElem(m1, t3)
    else:
        b, c = ComplexElem(m2, t2), -ComplexElem(m2, t2)
    lhs = ct_add_sets(ct_add(a, b), CPoint(c))
    rhs = ct_add_sets(CPoint(a), ct_add(b, c))
    assert set_eq(lhs, rhs, WIDE)


@given(moduli, moduli, angles, angles, angles, st.booleans())
@settings(max_examples=200, deadline=None)
def test_complex_distributivity(ma, mb, ta, tb, tc, tie):
    a = ComplexElem(ma, ta)
    b = ComplexElem(mb, tb)
    c = -b if tie else ComplexElem(mb, tc)
    lhs = ct_mul_sets(CPoint(a), ct_add(b, c))
    rhs = ct_add(a.times(b), a.times(c))
    assert set_eq(lhs, rhs, WIDE)


@given(moduli, moduli, angles, angles, st.sampled_from(["dominant", "tie", "cancel", "zero", "zeros"]))
@settings(max_examples=300, deadline=None)
def test_limit_of_h_sum_is_a_point_of_the_tropical_sum(ma, mb, ta, tb, kind):
    """The limit of +_h picks a point of a ∔ b; at tied moduli it is the
    midpoint of the arc, the direction of S_h(a) + S_h(b) for every h."""
    a = CZERO if kind == "zeros" else ComplexElem(ma, ta)
    b = {
        "dominant": ComplexElem(ma + mb, tb),
        "tie": ComplexElem(ma, tb),
        "cancel": -a,
    }.get(kind, CZERO)
    s = ct_add(a, b)
    z = c_add_0(a, b)
    assert csets.member(z, s)
    if isinstance(s, csets.CArc):
        assert z.modulus == s.radius
        assert circ_dist(z.argument, s.start + s.sweep / 2) <= 1e-10
        assert circ_dist(z.argument, c_add_h(a, b, 0.01).argument) <= 1e-10


@given(reals, reals, reals, st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_real_tropical_associative(a, b, c, share):
    if share & 1:
        b = a if share & 4 else -a
    if share & 2:
        c = -b if share & 4 else b
    lhs = rt_add_sets(rt_add(a, b), rpoint(c))
    rhs = rt_add_sets(rpoint(a), rt_add(b, c))
    assert rset_eq(lhs, rhs, WIDE)


def _on_h(z: ComplexElem) -> qsets.QuatElem:
    """z = x + yi as the quaternion x + yi + 0j + 0k."""
    return qsets.QuatElem(z.re, z.im, 0.0, 0.0)


def _cset_on_h(s) -> qsets.QSet:
    """The image of a complex value set in span(1, i), a complex line of H."""
    if isinstance(s, CPoint):
        out = qsets.QPoint(_on_h(s.elem))
    elif isinstance(s, CDisk):
        out = qsets.QBall(s.radius)
    else:
        ends = (ComplexElem(s.radius, s.start), ComplexElem(s.radius, s.start + s.sweep))
        out = qsets.QArc(*map(_on_h, ends))
    return qsets.qnormalize([out])


@given(
    moduli,
    angles,
    st.integers(50, 3090).map(lambda k: k * 1e-3),
    st.sampled_from(["tie", "antipodal", "start", "end", "inside", "larger", "smaller"]),
    angles,
)
@settings(max_examples=300, deadline=None)
def test_quaternion_rule_is_the_circle_rule_on_a_complex_line(r, alpha, sweep, case, theta):
    """Arc + point in span(1, i): the quaternion sum is the image of the
    complex sum, in the tie, antipodal, endpoint and dominant cases."""
    a, b = ComplexElem(r, alpha), ComplexElem(r, alpha + sweep)
    p = {
        "tie": ComplexElem(r, theta),
        "antipodal": ComplexElem(r, alpha + 0.5 * sweep + math.pi),
        "start": a,
        "end": b,
        "inside": ComplexElem(r, alpha + 0.3 * sweep),
        "larger": ComplexElem(r + 1.0, theta),
        "smaller": ComplexElem(0.5 * r, theta),
    }[case]
    complex_sum = ct_add_sets(ct_add(a, b), CPoint(p))
    quat_sum = quat_add_sets(quat_add(_on_h(a), _on_h(b)), qsets.QPoint(_on_h(p)))
    assert qsets.qset_eq(quat_sum, _cset_on_h(complex_sum)), (complex_sum, quat_sum)


# each value-set family's normalizer, keyed by the set types it produces.  A
# complex, real, quaternion or valued set is one component, which its
# normalizer returns as is; the phase carrier's whole set is its own normal
# form.
NORMAL_FORMS = [
    ((csets.CPoint, csets.CArc, csets.CDisk), lambda s: csets.normalize_parts([s])),
    ((csets.CUnion,), lambda s: csets.PHASE_ALL),
    ((rsets.RSet,), lambda s: rsets.rset(list(s.intervals))),
    ((qsets.QPoint, qsets.QArc, qsets.QBall, qsets.QCone), lambda s: qsets.qnormalize([s])),
    ((exotic.VPoint, exotic.MCone), lambda s: exotic.mnormalize([s])),
    ((exotic.PCone,), lambda s: exotic.pnormalize([s])),
]

CANONICAL_CARRIERS = [
    "TC", "Phi", "C", "quat", "mono", "mono-int", "mono-rational", "padic:2:8",
    "padic:3:8", "padic:5:8", "TR", "R", "tri", "ultra", "trop", "amoeba",
]


def _normal_form(s):
    for kinds, normalize in NORMAL_FORMS:
        if isinstance(s, kinds):
            return normalize(s)
    raise TypeError(f"no normalizer for {type(s).__name__}")


@pytest.mark.parametrize("name", CANONICAL_CARRIERS)
def test_operations_return_canonical_sets(name):
    """Every operation returns a fixed point of its family's normalizer, so
    predicates and set-extended sums need not normalize their inputs; every
    point `pick` samples from a result is a member of it.  A complex result is
    one component, or the phase carrier's whole set on Phi."""
    X = get_structure(name)
    pick_rng = random.Random(12)
    for a, b, c in stratified_tuples(X, random.Random(11), 3, 500):
        ab, bc = X.add(a, b), X.add(b, c)
        outs = [
            ab,
            X.add_sets(ab, X.singleton(c)),
            X.scale(c, ab),
            X.mul_sets(ab, bc),
        ]
        for out in outs:
            if out is not None:
                assert out == _normal_form(out), (a, b, c, out)
                if isinstance(out, csets.CUnion):
                    assert name == "Phi" and out is csets.PHASE_ALL, (a, b, c, out)
                for p in X.pick(out, pick_rng):
                    assert X.member(p, out), (a, b, c, out, p)


@pytest.mark.parametrize("name", ["TC", "Phi"])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_no_sum_or_product_of_sums_makes_a_full_circle(name, seed):
    """A sum's arc is the shorter one between two tied points, so its sweep
    lies strictly between eps and pi - eps; a sum scaled on either side, or
    the product of two sums, stays below 2*pi - eps.  So csets needs no
    full-circle form."""
    X = get_structure(name)
    eps = csets.DEFAULT_TOL.eps
    tuples = stratified_tuples(X, random.Random(seed), 4, 3 * 9**3)  # every pattern once
    for a, b, x, y in tuples:
        ab, sx = X.add(a, b), X.singleton(x)
        for s in (ab, X.add_sets(ab, sx), X.add_sets(sx, ab)):
            if isinstance(s, csets.CArc):
                assert eps < s.sweep < math.pi - eps, (a, b, x, s)
        for s in (X.scale(x, ab, "left"), X.scale(x, ab, "right"), X.mul_sets(ab, X.add(x, y))):
            if isinstance(s, csets.CArc):
                assert s.sweep < TWO_PI - eps, (a, b, x, y, s)


# every carrier that multiplies: M has no multiplication, and quat's products
# of arcs have no closed form
SET_PRODUCT_CARRIERS = [
    n for n in (*REGISTRY_NAMES, "C", "R", "maxplus", "mono-int", "mono-rational")
    if n not in ("M", "quat")
]


@pytest.mark.parametrize("name", SET_PRODUCT_CARRIERS)
def test_every_multiplying_carrier_but_quat_has_a_set_product(name):
    """{a}{b} is symbolic and holds ab, so `scale` and double distributivity
    are decided by set algebra rather than sampled."""
    X = get_structure(name)
    assert X.has_mul
    if X.is_finite:
        pairs = list(itertools.product(X.elements(), repeat=2))
    else:
        rng = random.Random(3)
        pairs = [(X.random_elem(rng), X.random_elem(rng)) for _ in range(200)]
        pairs += [(X.zero, X.one), (X.one, X.zero), (X.zero, X.zero)]
    for a, b in pairs:
        prod = X.mul_sets(X.singleton(a), X.singleton(b))
        assert prod is not None, (a, b)
        assert X.member(X.mul(a, b), prod), (a, b, prod)


@pytest.mark.parametrize("name", ["TR", "R", "tri", "ultra", "maxplus"])
@given(st.tuples(reals, reals, reals, reals), st.booleans(), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_interval_product_holds_every_product_of_points(name, values, tie, seed):
    """The shared real interval product of two sums holds every product of
    points drawn from them, and its endpoints are products of endpoints."""
    X = get_structure(name)
    a, b, c, d = (abs(v) for v in values) if X.nonnegative else values
    if tie:  # a tied or cancelling pair, so the sum is an interval
        b = a if X.nonnegative else -a
    s1, s2 = X.add(a, b), X.add(c, d)
    prod = X.mul_sets(s1, s2)
    rng = random.Random(seed)
    for u in X.pick(s1, rng):
        for v in X.pick(s2, rng):
            assert X.member(X.mul(u, v), prod), (s1, s2, prod, u, v)
    corners = {x * y for x in s1.intervals[0] for y in s2.intervals[0]}
    assert set(prod.intervals[0]) <= corners, (s1, s2, prod)


# -- quaternion cone membership ------------------------------------------------


def _gram_solve(mat, rhs):
    """Gaussian elimination with partial pivoting; None on (near-)singularity."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-13:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                f = a[r][col] / a[col][col]
                for k in range(col, n + 1):
                    a[r][k] -= f * a[col][k]
    return [a[i][n] / a[i][i] for i in range(n)]


def _enumerated_in_cone(u, gens, eps):
    """The earlier membership rule, kept as the oracle: one Gram solve for
    every generator subset of size 1-4.  Returns (verdict, near), where `near`
    says that some subset puts `u` within 1e-6 of a cutoff: a residual just
    above max(eps, 1e-9) (u near, but not on, the subset's span), or, with a
    residual at most 1e-6 above it, a coefficient within 1e-6 of -1e-7.  It
    also marks a subset whose coefficients exceed 1e3 while `u` is within
    1e-3 of its span: there `u` is reached only by near-cancelling generators,
    and a Gram solve, which squares their conditioning, can misjudge the
    residual by more than the cutoff."""
    cut = max(eps, 1e-9)
    verdict = near = False
    for k in (1, 2, 3, 4):
        for sub in itertools.combinations(gens, k):
            gram = [[qsets._dot(a, b) for b in sub] for a in sub]
            coeffs = _gram_solve(gram, [qsets._dot(a, u) for a in sub])
            if coeffs is None:
                continue
            recon = [sum(c * g[i] for c, g in zip(coeffs, sub)) for i in range(4)]
            res = math.sqrt(sum((u[i] - recon[i]) ** 2 for i in range(4)))
            if 1e-12 < res <= cut + 1e-6:
                near = True
            if res <= cut + 1e-6 and any(abs(c + 1e-7) < 1e-6 for c in coeffs):
                near = True
            if res <= 1e-3 and max(map(abs, coeffs)) > 1e3:
                near = True
            if res <= cut and all(c >= -1e-7 for c in coeffs):
                verdict = True
    return verdict, near


def _unit4(v):
    n = math.sqrt(qsets._dot(v, v))
    return tuple(x / n for x in v)


_vec4 = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda v: qsets._dot(v, v) > 0.01)


@st.composite
def _cone_case(draw):
    """1-6 unit generators, each fresh, an exact duplicate, the exact sum of
    two earlier ones (a rank drop) or an earlier one perturbed by 10^-k for k
    in 2..8; and a point: a positive combination of the generators, one with
    a single negative weight, or a free unit vector."""
    gens = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "sum", "perturbed"]) if gens else st.just("fresh"))
        if kind == "fresh":
            g = _unit4(draw(_vec4))
        elif kind == "duplicate":
            g = draw(st.sampled_from(gens))
        elif kind == "sum":
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            s = tuple(x + y for x, y in zip(a, b))
            g = _unit4(s) if qsets._dot(s, s) > 0.01 else a
        else:
            a, d = draw(st.sampled_from(gens)), _unit4(draw(_vec4))
            size = 10.0 ** -draw(st.integers(2, 8))
            g = _unit4(tuple(x + size * y for x, y in zip(a, d)))
        gens.append(g)
    point = draw(st.sampled_from(["positive", "one-negative", "free"]))
    if point == "free":
        return gens, _unit4(draw(_vec4))
    weights = [draw(st.integers(1, 20)) / 20 for _ in gens]
    if point == "one-negative":
        weights[draw(st.integers(0, len(gens) - 1))] *= -1
    u = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(4))
    assume(qsets._dot(u, u) > 1e-6)
    return gens, _unit4(u)


@given(_cone_case(), st.sampled_from([0.0, 1e-9, 1e-7]))
@settings(max_examples=400, deadline=None)
def test_in_cone_agrees_with_subset_enumeration(case, eps):
    """The rank-subset rule of qsets.in_cone gives the verdict of trying every
    generator subset of size 1-4, for points away from the cutoffs."""
    gens, u = case
    verdict, near = _enumerated_in_cone(u, gens, eps)
    assume(not near)
    assert qsets.in_cone(u, gens, eps) == verdict


def _in_cone_per_call(u, gens, eps, dependent=qsets._DEPENDENT):
    """qsets.in_cone as it was before arcs and cones kept their factored
    cone: it factors the rank-sized generator subsets on every call, and
    stops at the first subset that holds `u`.  `dependent` is the rank
    cutoff of qsets._factor."""
    cut = max(eps, 1e-9)
    for k in range(min(len(gens), 4), 0, -1):
        factored = False
        for sub in itertools.combinations(gens, k):
            f = qsets._factor(sub, dependent)
            if f is None:
                continue
            factored = True
            q, r = f
            y, res = qsets._project(q, u)
            if res > cut:
                continue
            coeffs = y
            for j in range(k - 1, -1, -1):
                c = coeffs[j]
                for i in range(j + 1, k):
                    c -= r[i][j] * coeffs[i]
                coeffs[j] = c / r[j][j]
            if all(c >= -1e-7 for c in coeffs):
                return True
        if factored:
            return False
    return False


@st.composite
def _arc_or_cone_case(draw):
    """An arc or a cone of 3-6 vertices at a radius in [1e-3, 1e3], and a
    quaternion near its sphere.  After the first, each vertex direction is
    fresh, a near-duplicate (perturbed by 10^-k for k in 2..8, below the
    rank cutoff for k >= 7), nearly antipodal to an earlier one, or, in a
    coplanar case, a combination of the first two, so 5-6 vertices or a
    plane give rank-deficient vertex sets.  The point's direction is a
    positive combination of the directions, one with a negative weight, the
    normalized mean of two directions, a direction itself or free."""
    r = 10.0 ** draw(st.floats(-3.0, 3.0))
    n = draw(st.sampled_from([2, 3, 4, 5, 6]))
    coplanar = n > 2 and draw(st.booleans())
    dirs = [_unit4(draw(_vec4))]
    while len(dirs) < n:
        kind = draw(st.sampled_from(["fresh", "near", "antipodal"]))
        if coplanar and len(dirs) >= 2:
            s, t = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
            v = tuple(s * x + t * y for x, y in zip(dirs[0], dirs[1]))
            assume(qsets._dot(v, v) > 1e-6)
        elif kind == "fresh":
            v = draw(_vec4)
        else:
            base = draw(st.sampled_from(dirs))
            sign = -1.0 if kind == "antipodal" else 1.0
            size = 10.0 ** -draw(st.integers(2, 8))
            v = tuple(sign * x + size * y for x, y in zip(base, _unit4(draw(_vec4))))
        dirs.append(_unit4(v))
    verts = tuple(qsets.QuatElem(*(r * x for x in d)) for d in dirs)
    comp = qsets.QArc(*verts) if n == 2 else qsets.QCone(verts)
    point = draw(st.sampled_from(["positive", "one-negative", "mean", "direction", "free"]))
    if point == "free":
        u = _unit4(draw(_vec4))
    elif point == "direction":
        u = draw(st.sampled_from(dirs))
    else:
        weights = [draw(st.integers(1, 20)) / 20 for _ in dirs]
        if point == "mean":
            i, j = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
            weights = [1.0 if k in (i, j) else 0.0 for k in range(n)]
        elif point == "one-negative":
            weights[draw(st.integers(0, n - 1))] *= -1
        v = tuple(sum(w * d[i] for w, d in zip(weights, dirs)) for i in range(4))
        assume(qsets._dot(v, v) > 1e-6)
        u = _unit4(v)
    scale = draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 + 1e-6]))
    return comp, qsets.QuatElem(*(r * scale * x for x in u))


@given(_arc_or_cone_case(), st.sampled_from([qsets.DEFAULT_TOL, Tolerance(1e-7)]))
@settings(max_examples=300, deadline=None)
def test_arcs_and_cones_keep_their_geometry(case, tol):
    """The stored radius and directions equal a recomputation; ==, hash,
    repr and pickling ignore the derived fields; and qmember and in_cone
    answer as the per-call in_cone does, except that an arc or cone also
    holds the directions near the chord of two of its directions too close
    to span a plane, unless they are opposite, and, unless each min(n, 4) of
    its n directions are independent, those the per-call in_cone holds under
    the thin rank cutoff."""
    comp, x = case
    ends = (comp.a, comp.b) if isinstance(comp, qsets.QArc) else comp.vertices
    norms = [v.norm for v in ends]
    radius = 0.5 * (norms[0] + norms[1]) if isinstance(comp, qsets.QArc) else sum(norms) / len(ends)
    assert comp.radius == radius
    assert comp.units == tuple(v.unit() for v in ends)

    fresh = dataclasses.replace(comp)  # a new component from the same ends
    u = x.unit()
    verdict = qsets.in_cone(u, comp, tol.eps)  # factors comp's cone, not fresh's
    assert comp.cone is not None and fresh.cone is None
    assert comp == fresh and hash(comp) == hash(fresh) and repr(comp) == repr(fresh)
    assert "radius" not in repr(comp) and qsets.format_qset(comp) == qsets.format_qset(fresh)
    assert pickle.loads(pickle.dumps(comp)) == comp

    gens = [v.unit() for v in ends]
    before = _in_cone_per_call(u, gens, tol.eps)
    assert qsets.in_cone(u, gens, tol.eps) == before
    chords = [
        pair for pair in itertools.combinations(gens, 2)
        if qsets._dot(*pair) > 0.0 and qsets._factor(pair) is None
    ]
    near_chord = any(qsets._chord_gap(u, *pair) <= max(tol.eps, 1e-9) for pair in chords)
    full = itertools.combinations(gens, min(len(gens), 4))
    thin = not all(map(qsets._factor, full)) and _in_cone_per_call(u, gens, tol.eps, qsets._THIN)
    assert verdict == (before or near_chord or thin)
    on_sphere = abs(x.norm - comp.radius) <= tol.eps and x.norm > 0.0
    assert qsets.qmember(x, comp, tol) == (on_sphere and verdict)


# -- single-component sums, equality and construction --------------------------

EPS = csets.DEFAULT_TOL.eps
# how the second component's radius relates to the first one's
RADIUS_MODES = {
    "tie": lambda r: r,
    "eps-up": lambda r: r + 0.5 * EPS,
    "eps-down": lambda r: r - 0.5 * EPS,
    "beyond-eps": lambda r: r + 2 * EPS,
    "dominant": lambda r: 2 * r,
    "dominated": lambda r: 0.5 * r,
}
sweeps = st.integers(1, 6282).map(lambda k: k * 1e-3)
sum_sweeps = st.integers(1, 3141).map(lambda k: k * 1e-3)  # a sum's arc is below pi


def _component(kind: str, r: float, start: float, sweep: float):
    if kind == "point":
        return CPoint(ComplexElem(r, start))
    if kind == "arc":
        return csets.CArc(r, start, sweep)
    return CDisk(r)


KINDS = ["point", "point", "arc", "arc", "disk"]


@st.composite
def _component_pair(draw, second=KINDS):
    """Two single components that sums make, with tied, eps-offset or
    dominant radii and equal, antipodal or free start angles; the second is
    of a kind in `second`."""
    kinds = st.sampled_from(KINDS)
    r = draw(moduli)
    t1 = draw(angles)
    t2 = draw(st.one_of(st.sampled_from([t1, t1 + math.pi, t1 - math.pi + 1e-3]), angles))
    r2 = RADIUS_MODES[draw(st.sampled_from(sorted(RADIUS_MODES)))](r)
    c1 = _component(draw(kinds), r, t1, draw(sum_sweeps))
    c2 = _component(draw(st.sampled_from(second)), r2, t2, draw(sum_sweeps))
    return c1, c2


@given(_component_pair(["point"]))
@settings(max_examples=600, deadline=None)
def test_single_component_sum_is_the_normalized_component_rule(pair):
    """ct_add_sets of a component and a point is exactly (==, not set_eq)
    one normalized component, the same on either side; two points give
    ct_add, which skips the normalizer."""
    c1, c2 = pair
    got = ct_add_sets(c1, c2)
    if isinstance(c1, CPoint):
        assert got == ct_add(c1.elem, c2.elem)
    else:
        assert got == ct_add_sets(c2, c1) == csets.normalize_parts([got]), pair


# -- the reference: the circle rule as a union of arcs, merged -----------------
# The component rule once returned the arcs whose union is the sum (an arc and
# the minor arc from its start to the point), and a general normalizer merged
# them.  The hull rule of ctrop must give the same set.


def _ref_minor_arc(radius, alpha, beta):
    delta = wrap_angle(beta - alpha)
    if delta <= EPS or delta >= TWO_PI - EPS:
        return [CPoint(ComplexElem(radius, alpha))]
    if delta <= math.pi:
        return [csets.CArc(radius, alpha, delta)]
    return [csets.CArc(radius, beta, TWO_PI - delta)]


def _ref_point_arc(p, a):
    r = max(p.modulus, a.radius)
    if a.contains_angle(wrap_angle(p.argument + math.pi), EPS):
        return [CDisk(r)]
    return [a, *_ref_minor_arc(r, a.start, p.argument)]


def _ref_comps(c, p):
    """A component plus a point, on either side."""
    if not isinstance(p, CPoint):
        c, p = p, c
    if isinstance(c, CPoint):
        return [ct_add(c.elem, p.elem)]
    if abs(c.radius - p.elem.modulus) > EPS:
        return [c if c.radius > p.elem.modulus else p]
    if isinstance(c, CDisk):
        return [c]
    return _ref_point_arc(p.elem, c)


def _ref_merge_radius_arcs(radius, arcs):
    merged = []
    for s, e, sw in sorted((a.start, a.start + a.sweep, a.sweep) for a in arcs):
        if merged and s <= merged[-1][1] + EPS:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e, sw])
    if len(merged) > 1 and merged[-1][1] + EPS >= merged[0][0] + TWO_PI:
        merged[0][0] = merged[-1][0] - TWO_PI
        merged[0][1] = max(merged[0][1], merged[-1][1] - TWO_PI)
        merged.pop()
    out = []
    for s, e, sw in merged:
        out.append(csets.CArc(radius, wrap_angle(s), sw if s + sw == e else e - s))
    return out


def _ref_normalize(parts):
    """Drop what a disk absorbs, merge arcs of one radius circularly, drop
    the points an arc absorbs and the repeated points."""
    disk_r = max((c.radius for c in parts if isinstance(c, CDisk)), default=-1.0)
    arcs = [c for c in parts if isinstance(c, csets.CArc) and c.radius > disk_r + EPS]
    points = [c.elem for c in parts if isinstance(c, CPoint) and c.elem.modulus > disk_r + EPS]
    out = []
    if disk_r >= 0.0:
        if disk_r <= EPS:
            points.append(CZERO)
        else:
            out.append(CDisk(disk_r))
    groups = []
    for a in sorted(arcs, key=lambda a: a.radius):
        if groups and a.radius - groups[-1][0].radius <= EPS:
            groups[-1].append(a)
        else:
            groups.append([a])
    merged = [m for g in groups for m in _ref_merge_radius_arcs(g[0].radius, g)]
    kept = []
    for p in sorted(points, key=lambda e: (e.modulus, e.argument)):
        absorbed = any(
            abs(p.modulus - a.radius) <= EPS and a.contains_angle(p.argument, EPS) for a in merged
        )
        if not absorbed and not any(p.eq(q) for q in kept):
            kept.append(p)
    out += merged + [CPoint(p) for p in kept]
    assert len(out) == 1, out  # a complex sum is one component
    return out[0]


@given(_component_pair(["point"]))
@settings(max_examples=600, deadline=None)
def test_component_sum_is_the_merged_union_of_the_circle_rules(pair):
    for a, b in (pair, pair[::-1]):
        assert set_eq(ct_add_sets(a, b), _ref_normalize(_ref_comps(a, b))), (a, b)


@st.composite
def _phase_triple(draw):
    """Three elements of the phase hyperfield: 0, or units at the first
    drawn angle, its antipode or a free angle."""
    t = draw(angles)
    out = []
    for _ in range(3):
        kind = draw(st.sampled_from(["zero", "same", "antipode", "free"]))
        if kind == "zero":
            out.append(CZERO)
        elif kind == "free":
            out.append(ComplexElem(1.0, draw(angles)))
        else:
            out.append(ComplexElem(1.0, t if kind == "same" else t + math.pi))
    return out


def _on_phase_carrier(s) -> bool:
    if isinstance(s, CPoint):
        return s.elem.modulus in (0.0, 1.0)
    return isinstance(s, csets.CArc) and s.radius == 1.0


@given(_phase_triple())
@settings(max_examples=300, deadline=None)
def test_set_eq_agrees_with_component_matching(triple):
    """Phi's only set that is no complex component is its whole carrier:
    each sum, set sum with a point and set product is PHASE_ALL or one
    complex component on the carrier; `pick` draws only 0 and units; and a
    set that `subset` puts in another has each of its picked points in it."""
    X = get_structure("Phi")
    a, b, c = triple
    ab, bc = X.add(a, b), X.add(b, c)
    sets = [
        X.singleton(a), ab, bc,
        X.add_sets(ab, X.singleton(c)), X.add_sets(X.singleton(a), bc),
        X.mul_sets(ab, bc), csets.PHASE_ALL,
    ]
    for s in sets:
        assert s is csets.PHASE_ALL or _on_phase_carrier(s), (triple, s)
    rng = random.Random(5)
    picks = [X.pick(s, rng) for s in sets]
    for s, pts in zip(sets, picks):
        assert all(x.modulus in (0.0, 1.0) for x in pts), (s, pts)
    for (s1, pts), s2 in itertools.product(zip(sets, picks), sets):
        if X.subset(s1, s2):
            assert all(X.member(x, s2) for x in pts), (s1, s2)


@given(st.tuples(pos, pos), st.tuples(pos, pos))
@settings(max_examples=300, deadline=None)
def test_single_interval_triangle_sum_is_the_normalized_rule(i1, i2):
    (lo1, hi1), (lo2, hi2) = sorted(i1), sorted(i2)
    s1, s2 = rsets.rset([(lo1, hi1)]), rsets.rset([(lo2, hi2)])
    expected = rsets.rset([(max(0.0, lo1 - hi2, lo2 - hi1), hi1 + hi2)])
    assert tri_add_sets(s1, s2) == expected


SEAM_ANGLES = [
    0.0, -0.0, math.pi, TWO_PI, -TWO_PI, 2 * TWO_PI,
    math.nextafter(TWO_PI, 0.0), math.nextafter(TWO_PI, 7.0),
    math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0),
    math.nextafter(-TWO_PI, 0.0), math.nextafter(-TWO_PI, -7.0), -1e3, 1e3,
]
seam_or_free = st.one_of(st.sampled_from(SEAM_ANGLES), st.floats(-1e3, 1e3))


def _bits(x: float) -> str:
    """Exact float identity, telling -0.0 from 0.0."""
    return float(x).hex()


@given(st.sampled_from([0.0, -0.0, 1e-300, 0.25, 3.0, 1e300]), seam_or_free)
@settings(max_examples=400, deadline=None)
def test_complex_elem_canonicalises_like_wrap_angle(m, theta):
    e = ComplexElem(m, theta)
    assert _bits(e.modulus) == _bits(float(m))
    expected = 0.0 if m == 0.0 else wrap_angle(theta)
    assert _bits(e.argument) == _bits(expected)
    assert 0.0 <= e.argument < TWO_PI


@given(st.sampled_from([1e-300, 0.25, 3, 1e300]), seam_or_free, sweeps)
@settings(max_examples=400, deadline=None)
def test_carc_canonicalises_like_wrap_angle(r, start, sweep):
    a = csets.CArc(r, start, sweep)
    assert _bits(a.radius) == _bits(float(r))
    assert _bits(a.start) == _bits(wrap_angle(start))
    assert a.sweep == sweep
    assert 0.0 <= a.start < TWO_PI


@pytest.mark.parametrize(
    "build",
    [
        lambda: ComplexElem(math.nan, 0.0),
        lambda: ComplexElem(-1.0, 0.0),
        lambda: ComplexElem(-1e-300, 0.0),
        lambda: csets.CArc(0.0, 0.0, 1.0),
        lambda: csets.CArc(-1.0, 0.0, 1.0),
        lambda: csets.CArc(math.nan, 0.0, 1.0),
        lambda: csets.CArc(1.0, 0.0, 0.0),
        lambda: csets.CArc(1.0, 0.0, -1.0),
        lambda: csets.CArc(1.0, 0.0, TWO_PI),
        lambda: csets.CArc(1.0, 0.0, math.nan),
        lambda: CDisk(-1.0),
        # non-finite fields: a wrapped angle, or a radius compared with inf
        lambda: ComplexElem(1.0, math.nan),
        lambda: ComplexElem(1.0, math.inf),
        lambda: ComplexElem(math.inf, 0.0),
        lambda: csets.CArc(1.0, math.nan, 1.0),
        lambda: csets.CArc(1.0, math.inf, 1.0),
        lambda: csets.CArc(1.0, -math.inf, 1.0),
        lambda: csets.CArc(math.inf, 0.0, 1.0),
        lambda: CDisk(math.nan),
        lambda: CDisk(math.inf),
    ],
)
def test_malformed_components_raise(build):
    with pytest.raises(csets.InvalidSetError):
        build()


def test_components_build_by_keyword_and_replace():
    e = ComplexElem(modulus=2, argument=-1.0)
    assert e == ComplexElem(2.0, TWO_PI - 1.0)
    assert dataclasses.replace(e, argument=TWO_PI + 1.0) == ComplexElem(2.0, 1.0)
    assert dataclasses.replace(e, modulus=0.0) == CZERO
    a = csets.CArc(radius=1, start=-1.0, sweep=0.5)
    assert a == csets.CArc(1.0, TWO_PI - 1.0, 0.5)
    assert dataclasses.replace(a, start=7.0) == csets.CArc(1.0, 7.0 - TWO_PI, 0.5)
    with pytest.raises(csets.InvalidSetError):
        dataclasses.replace(a, sweep=TWO_PI)
    for obj in (e, a, CDisk(2.0)):
        assert pickle.loads(pickle.dumps(obj)) == obj
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.modulus = 3.0


def test_rset_and_padic_elem_build_by_keyword_and_replace():
    s = rsets.RSet(intervals=((0.0, 1.0),))
    assert s == rsets.rinterval(0.0, 1.0)
    assert dataclasses.replace(s, intervals=((2.0, 2.0),)) == rpoint(2.0)
    with pytest.raises(InvalidSetError):
        rsets.RSet(())
    with pytest.raises(InvalidSetError):
        dataclasses.replace(s, intervals=())
    a = exotic.PadicElem(p=5, e=-1, unit=102, depth=3)  # digits 2, 0, 4
    assert a == exotic.PadicElem(5, -1, 102, 3) == exotic.padic_from_digits(5, -1, [2, 0, 4], 3)
    assert a.digits == (2, 0, 4)
    assert dataclasses.replace(a, unit=0) == exotic.padic_zero(5)  # zero has e = depth = 0
    for build in (
        lambda: exotic.PadicElem(1, 0, 1, 1),
        lambda: exotic.PadicElem(5, 0, 5, 2),  # leading digit 0
        lambda: exotic.PadicElem(5, 0, 26, 2),  # beyond depth 2
        lambda: exotic.PadicElem(5, 0, -1, 2),
        lambda: dataclasses.replace(a, p=3),
    ):
        with pytest.raises(InvalidSetError):
            build()
    for obj in (s, a, exotic.padic_zero(3)):
        assert pickle.loads(pickle.dumps(obj)) == obj
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.e = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.intervals = ()


def _carry(acc, p):
    """Reduce digit sums to base-p digits in place, least significant first;
    the carry out of the last digit is dropped."""
    carry = 0
    for i, v in enumerate(acc):
        carry, acc[i] = divmod(v + carry, p)


def _schoolbook_padic_mul(a, b):
    """Digit-by-digit product of the unit parts, the carry out of the top
    digit dropped: the reference for exotic.padic_mul."""
    if a.is_zero or b.is_zero:
        return exotic.padic_zero(a.p)
    depth = max(a.depth, b.depth)
    acc = [0] * depth
    for i, da in enumerate(a.digits):
        for j, db in enumerate(b.digits):
            if i + j < depth:
                acc[i + j] += da * db
    _carry(acc, a.p)
    return exotic.padic_from_digits(a.p, a.e + b.e, acc, depth)


def _digit_padic_add(a, b):
    """Digit-by-digit sum of the digits exact in both operands, the carry out
    of the top one dropped: the reference for exotic.padic_classical_add."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    e0 = min(a.e, b.e)
    top = min(a.e + a.depth, b.e + b.depth)  # digits are exact below this exponent
    acc = [0] * (top - e0)
    for x in (a, b):
        for k, d in enumerate(x.digits):
            if x.e + k < top:
                acc[x.e + k - e0] += d
    _carry(acc, a.p)
    if not any(acc):
        return exotic.INDETERMINATE
    return exotic.padic_from_digits(a.p, e0, acc, max(a.depth, b.depth))


def _digit_padic_neg(a):
    """The complement digits: p - d for the leading one, p - 1 - d after."""
    if a.is_zero:
        return a
    p = a.p
    digits = [p - a.digits[0]] + [p - 1 - d for d in a.digits[1:]]
    return exotic.padic_from_digits(p, a.e, digits, a.depth)


@st.composite
def _padic_elem(draw, p):
    if draw(st.integers(0, 9)) == 0:
        return exotic.padic_zero(p)
    depth = draw(st.integers(1, 9))
    lead = draw(st.integers(1, p - 1))
    rest = draw(st.lists(st.integers(0, p - 1), min_size=depth - 1, max_size=depth - 1))
    return exotic.padic_from_digits(p, draw(st.integers(-6, 6)), [lead, *rest], depth)


@st.composite
def _padic_pair(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    a = draw(_padic_elem(p))
    if draw(st.booleans()):  # a tie, often one that cancels in full
        b = draw(st.sampled_from([a, _digit_padic_neg(a)]))
        return a, exotic.padic_from_digits(p, b.e, list(b.digits), draw(st.integers(1, 9)))
    return a, draw(_padic_elem(p))


@settings(max_examples=400, deadline=None)
@given(_padic_pair())
def test_padic_mul_matches_schoolbook(pair):
    a, b = pair
    assert exotic.padic_mul(a, b) == _schoolbook_padic_mul(a, b)
    assert exotic.padic_mul(b, a) == exotic.padic_mul(a, b)


@settings(max_examples=400, deadline=None)
@given(_padic_pair())
def test_padic_add_neg_inv_match_the_digits(pair):
    a, b = pair
    assert exotic.padic_classical_add(a, b) == _digit_padic_add(a, b)
    assert exotic.padic_classical_add(b, a) == exotic.padic_classical_add(a, b)
    assert exotic.padic_neg(a) == _digit_padic_neg(a)
    if not a.is_zero:  # the inverse is the number of a's depth whose product with a is 1
        inv = exotic.padic_inv(a)
        assert inv.depth == a.depth
        assert _schoolbook_padic_mul(a, inv) == exotic.padic_one(a.p, a.depth)


@settings(max_examples=400, deadline=None)
@given(_padic_pair())
def test_padic_digits_round_trip(pair):
    for a in pair:
        assert exotic.padic_from_digits(a.p, a.e, list(a.digits), a.depth) == a
        assert exotic.parse_padic(exotic.format_padic(a), a.p, a.depth) == a


# -- the samplers: p-adic units, points of S³ and random polynomials -----------


class _Scripted:
    """A stub rng: random() and randrange(n) return the next scripted value,
    and randrange checks that it lies in range(n)."""

    def __init__(self, values):
        self.values = iter(values)
        self.bounds = set()

    def random(self):
        return next(self.values)

    def randrange(self, n):
        k = next(self.values)
        assert 0 <= k < n
        self.bounds.add(n)
        return k


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("depth", [1, 2, 4])
def test_random_unit_maps_each_draw_to_one_unit(p, depth):
    # the draws 0, 1, ..., n - 1 of one randrange(n) give each unit below
    # p^depth once, so a uniform draw gives a uniform unit
    units = [u for u in range(1, p**depth) if u % p]
    rng = _Scripted(range(len(units)))
    assert sorted(exotic.random_unit(p, depth, rng) for _ in units) == units
    assert rng.bounds == {len(units)}


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.0, 1.0), st.integers(0, 2**32))
def test_sphere_points_lie_on_their_sphere(log_r, seed):
    r, rng = math.exp(log_r), random.Random(seed)
    assert abs(qsets.sphere_point(r, rng).norm - r) <= 1e-12 * r
    zero, rim, *inner = qsets.qpick(qsets.QBall(r), rng)
    assert zero == qsets.QZERO and abs(rim.norm - r) <= 1e-12 * r
    assert len(inner) == 4 and all(q.norm <= r * (1 + 1e-12) for q in inner)


def test_sphere_points_have_the_moments_of_the_uniform_sphere():
    # a uniform point of the 3-sphere of radius r has coordinates of mean 0
    # and mean square r²/4; a uniform draw of the square in place of the
    # disk would give a mean square r²/3 in the first two
    r, n, rng = 1.7, 20_000, random.Random(3)
    pts = [qsets.sphere_point(r, rng).coords() for _ in range(n)]
    for i in range(4):
        assert abs(sum(v[i] for v in pts) / n) <= 0.02 * r
        assert abs(sum(v[i] ** 2 for v in pts) / n - r * r / 4) <= 0.02 * r * r


def test_sphere_point_rejects_outside_the_disk_and_at_its_centre():
    # the draws (0, 0) map to the point (-1, -1), outside the disk, and
    # (0.5, 0.5) to the centre, which the second disk point may not be: each
    # is drawn again, and the centre is kept as the first point
    rng = _Scripted([0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.75, 0.5])
    assert qsets.sphere_point(1.0, rng) == qsets.QuatElem(0.0, 0.0, 1.0, 0.0)
    assert next(rng.values, None) is None
    rng = _Scripted([0.0, 0.0, 0.75, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.75])
    q = qsets.sphere_point(2.0, rng)
    assert q == qsets.QuatElem(1.0, 0.0, 0.0, math.sqrt(3.0))
    assert next(rng.values, None) is None


class _Recording(random.Random):
    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def random(self):
        self.draws.append(super().random())
        return self.draws[-1]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_random_poly_has_one_to_four_terms_of_bounded_exponent(seed, real_exponents):
    rng = _Recording(seed)
    terms = _random_poly(rng, real_exponents).terms
    n = 1 + int(4 * rng.draws[0])
    assert len(rng.draws) == 1 + 3 * n and 1 <= len(terms) <= n <= 4
    for e, c in terms:
        if real_exponents:
            assert 0.0 <= e <= 4.0 and round(e, 3) == e
        else:
            assert e in (0.0, 1.0, 2.0, 3.0, 4.0)
        # a part is one draw in [-1, 1) unless two terms shared the exponent
        bound = 1.0 if len(terms) == n else float(n)
        assert -bound <= c.real < bound and -bound <= c.imag < bound


def test_random_poly_draws_reach_both_ends():
    top = math.nextafter(1.0, 0.0)
    assert _random_poly(_Scripted([0.0] * 4)).terms == ((0.0, -1 - 1j),)
    exps = [0.0, 0.2, 0.4, 0.6]  # exponents 0, 1, 2 and 3
    rng = _Scripted([top] + [v for e in exps for v in (e, top, top)])
    coeff = complex(2 * top - 1, 2 * top - 1)
    assert _random_poly(rng).terms == tuple((e, coeff) for e in (3.0, 2.0, 1.0, 0.0))
    assert coeff.real < 1.0
    assert _random_poly(_Scripted([0.0, top, 0.0, 0.0])).terms == ((4.0, -1 - 1j),)
    assert _random_poly(_Scripted([0.0, top, 0.0, 0.0]), True).terms == ((4.0, -1 - 1j),)


# -- the one tie rule: Tolerance.order ----------------------------------------

EPS = Tolerance().eps
sizes = st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6) | st.fractions(-10**6, 10**6)


@settings(max_examples=300, deadline=None)
@given(sizes, sizes)
def test_order_is_antisymmetric_and_ties_within_eps(x, y):
    order = Tolerance().order
    assert order(x, y) == -order(y, x)
    d = x - y
    if isinstance(d, float):
        assert (order(x, y) == 0) == (abs(d) <= EPS)
    else:  # exact on int and Fraction values
        assert order(x, y) == (d > 0) - (d < 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 1e6), st.floats(0.0, EPS), angles, st.integers(0, 3))
def test_exactly_antipodal_ties_cancel_at_every_radius(r, d, theta, axis):
    """Operands of sizes r and r + d (a tie) pointing exactly apart give a
    disk, a ball and [-m, m], in both orders, whatever the radius."""
    s = r + d
    assume(Tolerance().order(s, r) == 0)  # r + d rounds to within eps of r
    m = max(r, s)
    a, b = ComplexElem(r, theta), ComplexElem(s, theta + math.pi)
    assert ct_add(a, b) == ct_add(b, a) == CDisk(m)
    qa = qsets.QuatElem(*(r if i == axis else 0.0 for i in range(4)))
    qb = qsets.QuatElem(*(-s if i == axis else 0.0 for i in range(4)))
    assert quat_add(qa, qb) == quat_add(qb, qa) == qsets.QBall(m)
    for x, y in ((r, -s), (-r, s)):
        assert rt_add(x, y) == rt_add(y, x) == rsets.rinterval(-m, m)
