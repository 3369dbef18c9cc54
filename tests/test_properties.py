"""Hypothesis property tests for the carrier algebra laws.

Values are drawn from coarse grids: exact ties (the measure-zero branches)
arise from coinciding draws, while distinct draws stay far from the branch
cutoffs, matching the declared tolerance policy.
"""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalg import csets, exotic, qsets, rsets
from hyperalg.axioms import stratified_tuples
from hyperalg.csets import CDisk, CPoint, ComplexElem, parts_of, set_eq
from hyperalg.ctrop import (
    ct_add,
    ct_add_sets,
    cset_scale,
    quat_add,
    quat_add_sets,
    rt_add,
    rt_add_sets,
)
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
from hyperalg.structures import get_structure
from hyperalg.tolerance import Tolerance

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
    lhs = cset_scale(ct_add(b, c), a)
    rhs = ct_add(a.times(b), a.times(c))
    assert set_eq(lhs, rhs, WIDE)


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
    out = []
    for c in parts_of(s):
        if isinstance(c, CPoint):
            out.append(qsets.QPoint(_on_h(c.elem)))
        elif isinstance(c, CDisk):
            out.append(qsets.QBall(c.radius))
        else:
            ends = (ComplexElem(c.radius, c.start), ComplexElem(c.radius, c.start + c.sweep))
            out.append(qsets.QArc(*map(_on_h, ends)))
    return qsets.qnormalize(out)


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


def _valued_normal_form(s):
    """mnormalize or pnormalize, by the family of the set's first component:
    monomial and p-adic sets share their point and union types."""
    first = exotic.parts_of(s)[0]
    padic = isinstance(first, exotic.PCone) or isinstance(getattr(first, "elem", None), exotic.PadicElem)
    return (exotic.pnormalize if padic else exotic.mnormalize)([s, s])


# each value-set family's normalizer, keyed by the set types it produces; each
# is given the set twice, so that it takes its full path (a lone canonical
# component is returned as is) and its deduplication gives back the normal form
NORMAL_FORMS = [
    ((csets.CPoint, csets.CArc, csets.CDisk, csets.CUnion), lambda s: csets.normalize_parts([s, s])),
    ((rsets.RSet,), lambda s: rsets.rset(list(s.intervals) * 2)),
    ((qsets.QPoint, qsets.QArc, qsets.QBall, qsets.QCone, qsets.QUnion),
     lambda s: qsets.qnormalize([s, s])),
    ((exotic.VPoint, exotic.MCone, exotic.PCone, exotic.VUnion), _valued_normal_form),
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
    point `pick` samples from a result is a member of it."""
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
                for p in X.pick(out, pick_rng):
                    assert X.member(p, out), (a, b, c, out, p)
