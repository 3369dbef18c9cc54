"""Tropical addition over C, R, the phase circle, and the quaternions.

The binary sum of complex numbers is the dominant operand when moduli differ,
the shortest arc between them on their common circle when moduli tie, and the
whole closed disk when tied operands point apart by pi within eps.  Every sum
decides dominant or tie by Tolerance.order on two sizes, and a tie cancels by
direction alone (over H when a and -b point the same way within eps, over R
when the signs differ), so an exactly antipodal tie cancels at every radius.
Set-extended sums are computed by closed-form component rules, never by
discretization, so set equalities can be certified exactly.

Every value set over C or H is one component, and a set sum adds a point to
it, as the hyperfield axioms do in (a + b) + c; a sum of two non-point sets
raises RepresentationClosureError.  `ct_add_sets` and `quat_add_sets` take
the point on either side.  Two points go to `ct_add` and `quat_add`.
Otherwise the larger radius wins unless order ties them; then a disk or ball
absorbs the point, and an arc or cone goes to the circle rules
(`_point_arc`, `_qarc_point`, `_qcone_point`).  Each returns one component:
a disk or ball when the set holds -p, the set itself when it holds p, and
otherwise the shorter arc (or the cone) that holds both.  So a sum's arc is
shorter than pi, and a product of two sums' arcs shorter than 2*pi.  On the
phase hyperfield two tied units that cancel sum to its whole carrier, the
unit circle with 0: the component PHASE_ALL.  `deq.c_add_0`, the h -> 0
limit of the complex dequantization family, reads its branch from the type
of `ct_add` and takes the arc's midpoint on a tie.
"""
from __future__ import annotations

import math

from .csets import (
    CArc,
    CDisk,
    CPoint,
    CSet,
    CUnion,
    CZERO,
    ComplexElem,
    PHASE_ALL,
    normalize_parts,
)
from . import _Deferred
from .tolerance import DEFAULT_TOL, TWO_PI, RepresentationClosureError, Tolerance, point_last, wrap_angle

# imported at their first use, so that a complex sum imports neither
qsets = _Deferred(globals(), "qsets")
rsets = _Deferred(globals(), "rsets")


# ---------------------------------------------------------------------------
# binary sums


def ct_add(a: ComplexElem, b: ComplexElem, tol: Tolerance = DEFAULT_TOL) -> CSet:
    ra, rb = a.modulus, b.modulus
    order = tol.order(ra, rb)
    if order:
        return CPoint(a if order > 0 else b)
    r = max(ra, rb)
    if tol.order(r, 0.0) == 0:
        return CPoint(CZERO)
    delta = wrap_angle(b.argument - a.argument)
    if abs(delta - math.pi) <= tol.eps:  # antipodal: the discontinuous branch
        return CDisk(r)
    if delta <= tol.eps or delta >= TWO_PI - tol.eps:
        return CPoint(ComplexElem(r, a.argument))
    if delta < math.pi:
        return CArc(r, a.argument, delta)
    return CArc(r, b.argument, TWO_PI - delta)


def _point_arc(p: ComplexElem, a: CArc) -> CSet:
    """The circle rule for a point and an arc of tied radius: the disk when
    -p is in the arc, the arc when p is, and otherwise the shorter of the arcs
    from the arc's start through p and from p through the arc's end.  The arc
    is one a sum makes, of sweep below pi, so the shorter one is too."""
    eps = DEFAULT_TOL.eps
    if a.contains_angle(wrap_angle(p.argument + math.pi), eps):
        return CDisk(max(p.modulus, a.radius))
    if a.contains_angle(p.argument, eps):
        return a
    to_p = wrap_angle(p.argument - a.start)
    from_p = wrap_angle(a.start - p.argument) + a.sweep
    return CArc(a.radius, a.start, to_p) if to_p <= from_p else CArc(a.radius, p.argument, from_p)


def ct_add_sets(s1: CSet, s2: CSet) -> CSet:
    """A value set that a sum makes (a point, an arc of sweep below pi or a
    disk) plus a point, on either side: the larger radius wins unless order
    ties the two; a tied disk absorbs the point, else the circle rule
    applies."""
    if isinstance(s1, CPoint) and isinstance(s2, CPoint):
        # already canonical: a point, a minor arc or a disk of radius > eps
        return ct_add(s1.elem, s2.elem)
    s, p = point_last(s1, s2, CPoint)
    order = DEFAULT_TOL.order(s.radius, p.elem.modulus)
    if order:
        c = s if order > 0 else p
    elif isinstance(s, CDisk):
        c = s
    else:
        c = _point_arc(p.elem, s)
    return normalize_parts([c])


# ---------------------------------------------------------------------------
# pointwise multiplication of value sets (rotation/scaling closed forms)


def _scale_comp(c, f: ComplexElem):
    """A component times a nonzero factor: scaled by |f| and turned by arg f."""
    if isinstance(c, CPoint):
        return CPoint(c.elem.times(f))
    if isinstance(c, CDisk):
        return CDisk(c.radius * f.modulus)
    return CArc(c.radius * f.modulus, c.start + f.argument, c.sweep)


def _cmul_comps(c1, c2):
    """The product of two components, itself one component."""
    if isinstance(c2, CPoint) and not isinstance(c1, CPoint):  # commutative
        c1, c2 = c2, c1
    if isinstance(c1, CPoint):
        return CPoint(CZERO) if c1.elem.modulus == 0.0 else _scale_comp(c2, c1.elem)
    if isinstance(c1, CDisk) or isinstance(c2, CDisk):
        return CDisk(c1.radius * c2.radius)
    # arc times arc: moduli multiply, angle intervals add; the sweeps of two
    # sums add to less than 2*pi - 2*eps
    return CArc(c1.radius * c2.radius, c1.start + c2.start, c1.sweep + c2.sweep)


def ct_mul_sets(s1: CSet, s2: CSet) -> CSet:
    return normalize_parts([_cmul_comps(s1, s2)])


# ---------------------------------------------------------------------------
# n-ary sums


def ct_sum_n(values: list[ComplexElem]) -> CSet:
    """Closed form of the iterated tropical sum: only maximal-modulus summands
    contribute.  Their sorted arguments leave a largest circular gap; 0 lies
    in their convex hull, and the sum is the disk, exactly when that gap is at
    most pi + eps.  Otherwise the sum is the arc from the end of the gap round
    to its start, or a point when that arc's sweep is at most eps."""
    if not values:
        raise ValueError("empty sum")
    order = DEFAULT_TOL.order
    rmax = max(v.modulus for v in values)
    if order(rmax, 0.0) == 0:
        return CPoint(CZERO)
    angles = sorted(v.argument for v in values if order(v.modulus, rmax) == 0)
    gap, start = angles[0] + TWO_PI - angles[-1], angles[0]
    for lo, hi in zip(angles, angles[1:]):
        if hi - lo > gap:
            gap, start = hi - lo, hi
    if gap <= math.pi + DEFAULT_TOL.eps:
        return CDisk(rmax)
    if TWO_PI - gap <= DEFAULT_TOL.eps:
        return CPoint(ComplexElem(rmax, start))
    return CArc(rmax, start, TWO_PI - gap)


# ---------------------------------------------------------------------------
# real tropical hyperfield


def rt_add(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> rsets.RSet:
    ma, mb = abs(a), abs(b)
    order = tol.order(ma, mb)
    if order:
        return rsets.rpoint(a if order > 0 else b)
    m = max(ma, mb)
    if tol.order(m, 0.0) == 0:
        return rsets.rpoint(0.0)
    if (a < 0.0) != (b < 0.0):
        return rsets.rinterval(-m, m)
    return rsets.rpoint(a if ma >= mb else b)


def rt_add_sets(s1: rsets.RSet, s2: rsets.RSet) -> rsets.RSet:
    """A value set plus a point, on either side, over the real tropical
    carrier, whose only other sets are symmetric intervals [-m, m]."""
    (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
    p1 = lo1 == hi1
    p2 = lo2 == hi2
    if p1 and p2:
        return rt_add(lo1, lo2)
    if not (p1 or p2):
        raise RepresentationClosureError("real tropical set sum adds no point")
    point, lo, hi = (lo1, lo2, hi2) if p1 else (lo2, lo1, hi1)
    if abs(lo + hi) > DEFAULT_TOL.eps * max(abs(lo), abs(hi), 1.0):
        raise RepresentationClosureError(
            f"asymmetric interval [{lo},{hi}] in real tropical sum"
        )
    if DEFAULT_TOL.order(abs(point), hi) > 0:
        return rsets.rpoint(point)
    return s2 if p1 else s1


# ---------------------------------------------------------------------------
# phase hyperfield (unit circle plus 0)


def check_phase_elem(a: ComplexElem) -> None:
    if a.modulus > DEFAULT_TOL.eps and abs(a.modulus - 1.0) > DEFAULT_TOL.eps:
        raise ValueError(f"phase carrier holds units and zero, got modulus {a.modulus}")


def _phase_clip(s: CSet) -> CSet:
    """Intersect a complex sum of units and 0 with the unit circle ∪ {0}:
    the unit disk gives the whole carrier, and no other disk arises."""
    if isinstance(s, CDisk):
        if abs(s.radius - 1.0) > DEFAULT_TOL.eps:
            raise RepresentationClosureError("phase sum left the carrier")
        return PHASE_ALL
    return s


def phase_add(a: ComplexElem, b: ComplexElem, tol: Tolerance = DEFAULT_TOL) -> CSet:
    check_phase_elem(a)
    check_phase_elem(b)
    return _phase_clip(ct_add(a, b, tol))


def phase_add_sets(s1: CSet, s2: CSet) -> CSet:
    """A sum with the whole carrier is the whole carrier."""
    if isinstance(s1, CUnion) or isinstance(s2, CUnion):
        return PHASE_ALL
    return _phase_clip(ct_add_sets(s1, s2))


def phase_mul_sets(s1: CSet, s2: CSet) -> CSet:
    """The whole carrier times 0 is 0, and times any other set the whole
    carrier."""
    if isinstance(s1, CUnion):
        s1, s2 = s2, s1
    if isinstance(s2, CUnion):
        return s1 if isinstance(s1, CPoint) and s1.elem.modulus == 0.0 else PHASE_ALL
    return normalize_parts([_cmul_comps(s1, s2)])


# ---------------------------------------------------------------------------
# quaternions


def quat_add(a: qsets.QuatElem, b: qsets.QuatElem, tol: Tolerance = DEFAULT_TOL) -> qsets.QSet:
    na, nb = a.norm, b.norm
    order = tol.order(na, nb)
    if order:
        return qsets.QPoint(a if order > 0 else b)
    r = max(na, nb)
    if tol.order(r, 0.0) == 0:
        return qsets.QPoint(qsets.QZERO)
    if math.dist(a.unit(), (-b).unit()) <= tol.eps:
        return qsets.QBall(r)
    if a.dist(b) <= tol.eps:
        return qsets.QPoint(a)
    return qsets.QArc(a, b)


def _qarc_point(a: qsets.QArc, p: qsets.QuatElem) -> qsets.QSet:
    """The sum of an arc and a tied point p: the ball when -p is in a, the
    circle rule when p lies on a great circle through both ends of a, and
    otherwise the cone over a and p."""
    eps = DEFAULT_TOL.eps
    cut = max(eps, 1e-9)
    r = a.radius
    up = p.unit()
    minus = tuple(-x for x in up)
    if qsets.in_cone(minus, a, eps):
        return qsets.QBall(r)
    q, cols = qsets._cone_of(a)[0][0]  # an orthonormal basis of the arc's plane
    if len(q) == 2:
        coords, res = qsets._project(q, up)
        ub_coords = cols[1]
    elif qsets.in_cone(up, a, eps):
        return a
    else:
        # a degenerate arc spans no plane: take the plane of its first end and
        # p, which holds its other end when p is on a great circle with both
        plane = qsets._factor((a.units[0], up), qsets._THIN)
        if plane is None:  # p is within 1e-9 rad of that end
            return a
        q, cols = plane
        coords = cols[1]
        ub_coords, res = qsets._project(q, a.units[1])
    if res > cut:
        return qsets.QCone((a.a, a.b, qsets.QuatElem(*(x * r for x in up))))

    # p lies on the arc's great circle: apply the circle rule in its plane,
    # where ua lies at angle 0 and ub at angle tb, the arc's signed sweep
    e1, e2 = q
    ub_e1, ub_e2 = ub_coords
    p_e1, p_e2 = coords

    def at(theta: float) -> qsets.QuatElem:
        return qsets.QuatElem(
            *(r * (math.cos(theta) * e1[i] + math.sin(theta) * e2[i]) for i in range(4))
        )

    tb = math.atan2(ub_e2, ub_e1)
    c = _point_arc(ComplexElem(r, math.atan2(p_e2, p_e1)), CArc(r, min(tb, 0.0), abs(tb)))
    if isinstance(c, CDisk):
        return qsets.QBall(c.radius)
    return qsets.QArc(at(c.start), at(c.start + c.sweep))


def _qcone_point(c: qsets.QCone, p: qsets.QuatElem) -> qsets.QSet:
    eps = DEFAULT_TOL.eps
    r = c.radius
    up = p.unit()
    minus = tuple(-x for x in up)
    if qsets.in_cone(minus, c, eps):
        return qsets.QBall(r)
    if qsets.in_cone(up, c, eps):
        return c
    return qsets.QCone(c.vertices + (qsets.QuatElem(*(x * r for x in up)),))


def quat_add_sets(s1: qsets.QSet, s2: qsets.QSet) -> qsets.QSet:
    """The rule of ct_add_sets over H."""
    s1, s2 = point_last(s1, s2, qsets.QPoint)
    p = s2.elem
    if isinstance(s1, qsets.QPoint):
        c = quat_add(s1.elem, p)
    elif order := DEFAULT_TOL.order(s1.radius, p.norm):
        c = s1 if order > 0 else s2
    elif isinstance(s1, qsets.QBall):
        c = s1
    elif isinstance(s1, qsets.QArc):
        c = _qarc_point(s1, p)
    else:
        c = _qcone_point(s1, p)
    return qsets.qnormalize([c])


def quat_scale(s: qsets.QSet, f: qsets.QuatElem, side: str) -> qsets.QSet:
    """Pointwise left or right multiplication of a set by a quaternion.

    Multiplication by a fixed quaternion is a similarity of H, so the set
    maps to a component of the same kind.
    """
    if f.norm == 0.0:
        return qsets.QPoint(qsets.QZERO)

    def mp(q: qsets.QuatElem) -> qsets.QuatElem:
        return f.times(q) if side == "left" else q.times(f)

    if isinstance(s, qsets.QPoint):
        out = qsets.QPoint(mp(s.elem))
    elif isinstance(s, qsets.QBall):
        out = qsets.QBall(s.radius * f.norm)
    elif isinstance(s, qsets.QArc):
        out = qsets.QArc(mp(s.a), mp(s.b))
    else:
        out = qsets.QCone(tuple(mp(v) for v in s.vertices))
    return qsets.qnormalize([out])
