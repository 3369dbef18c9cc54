"""Tropical addition over C, R, the phase circle, and the quaternions.

The binary sum of complex numbers is the dominant operand when moduli differ,
the shortest arc between them on their common circle when moduli tie, and the
whole closed disk when the operands cancel.  Set-extended sums are computed by
closed-form component rules, never by discretization, so set equalities can
be certified exactly.

Every value set over C or H is one component, so a set sum is the sum of
two components, and one dispatcher per carrier family decides its branch:
`_ct_add_comps` over C and `_quat_add_comps` over H.  Point pairs go to
`ct_add` and `quat_add`.  Otherwise the component of larger radius wins by
more than eps; on a tie a disk or ball absorbs the other component, and the
remaining tied pairs go to the circle rules (`_point_arc`, `_arc_arc`,
`_qarc_point`, `_qcone_point`).  Each returns one component: a disk or ball
when the operands hold an antipodal pair, otherwise the shorter arc (or the
cone) that holds both.  The one exception is the phase hyperfield, whose
whole carrier, the unit circle with 0, is the sum of two tied units that
cancel.  `deq.c_add_0`, the h -> 0 limit of the
complex dequantization family, reads its branch from the type of `ct_add`
and takes the arc's midpoint on a tie.
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
    arc,
    full_circle,
    normalize_parts,
)
from . import _Deferred
from .tolerance import DEFAULT_TOL, TWO_PI, RepresentationClosureError, Tolerance, wrap_angle

# imported at their first use, so that a complex sum imports neither
qsets = _Deferred(globals(), "qsets")
rsets = _Deferred(globals(), "rsets")


# ---------------------------------------------------------------------------
# binary sums


def ct_add(a: ComplexElem, b: ComplexElem, tol: Tolerance = DEFAULT_TOL) -> CSet:
    ra, rb = a.modulus, b.modulus
    if abs(ra - rb) > tol.eps:
        return CPoint(a if ra > rb else b)
    if max(ra, rb) <= tol.eps:
        return CPoint(CZERO)
    r = max(ra, rb)
    alpha, beta = a.argument, b.argument
    # |a + b| bit for bit as abs(a.as_complex() + b.as_complex()); math.hypot
    # rounds differently and could flip the antipodal cutoff
    z = complex(ra * math.cos(alpha) + rb * math.cos(beta),
                ra * math.sin(alpha) + rb * math.sin(beta))
    if abs(z) < tol.eps * r:  # antipodal cutoff: discontinuous branch
        return CDisk(r)
    return _minor_arc(r, alpha, beta)


def _minor_arc(radius: float, alpha: float, beta: float) -> CArc | CPoint:
    """The minor arc between two angles on one circle."""
    delta = wrap_angle(beta - alpha)
    if delta <= DEFAULT_TOL.eps or delta >= TWO_PI - DEFAULT_TOL.eps:
        return CPoint(ComplexElem(radius, alpha))
    if delta <= math.pi:
        return CArc(radius, alpha, delta)
    return CArc(radius, beta, TWO_PI - delta)


def _hull(radius: float, s1: float, w1: float, s2: float, w2: float) -> CArc:
    """The shorter arc of `radius` that holds the arcs from s1 by w1 and from
    s2 by w2 (a point has sweep 0), which hold no antipodal pair.  It starts
    at s1 or at s2, so it is the shorter of the two arcs from them."""
    w12 = max(w1, wrap_angle(s2 - s1) + w2)
    w21 = max(w2, wrap_angle(s1 - s2) + w1)
    return CArc(radius, s1, w12) if w12 <= w21 else CArc(radius, s2, w21)


def _point_arc(p: ComplexElem, a: CArc) -> CSet:
    """The circle rule for a point and an arc of tied radius."""
    eps = DEFAULT_TOL.eps
    if a.full or a.contains_angle(wrap_angle(p.argument + math.pi), eps):
        return CDisk(max(p.modulus, a.radius))
    if a.contains_angle(p.argument, eps):
        return a
    return _hull(a.radius, a.start, a.sweep, p.argument, 0.0)


def _arcs_have_antipodes(a1: CArc, a2: CArc) -> bool:
    """Does a2 contain -x for some x in a1 (same radius assumed)?"""
    if a1.full or a2.full:
        return True
    s2 = wrap_angle(a2.start + math.pi)  # a2 rotated by pi
    # circular interval intersection of [a1.start, +sweep] and [s2, +sweep]
    off = wrap_angle(s2 - a1.start)
    if off <= a1.sweep + DEFAULT_TOL.eps:
        return True
    off2 = wrap_angle(a1.start - s2)
    return off2 <= a2.sweep + DEFAULT_TOL.eps


def _arc_arc(a1: CArc, a2: CArc) -> CSet:
    """The circle rule for two arcs of tied radius."""
    r = max(a1.radius, a2.radius)
    if _arcs_have_antipodes(a1, a2):
        return CDisk(r)
    return _hull(r, a1.start, a1.sweep, a2.start, a2.sweep)


# order of component kinds in _ct_add_comps: the lower rank comes first
_CRANK = {CDisk: 0, CArc: 1, CPoint: 2}


def _ct_add_comps(c1, c2) -> CSet:
    """Sum of two components: the larger radius wins by more than eps; on a
    tie a disk absorbs the other component, else the circle rule applies."""
    if _CRANK[type(c2)] < _CRANK[type(c1)]:  # the sum is commutative
        c1, c2 = c2, c1
    if isinstance(c1, CPoint):
        return ct_add(c1.elem, c2.elem)
    r1 = c1.radius
    r2 = c2.elem.modulus if isinstance(c2, CPoint) else c2.radius
    if abs(r1 - r2) > DEFAULT_TOL.eps:
        return c1 if r1 > r2 else c2
    if isinstance(c1, CDisk):
        return c2 if isinstance(c2, CDisk) and r2 > r1 else c1
    if isinstance(c2, CPoint):
        return _point_arc(c2.elem, c1)
    return _arc_arc(c1, c2)


def ct_add_sets(s1: CSet, s2: CSet) -> CSet:
    if isinstance(s1, CPoint) and isinstance(s2, CPoint):
        # already canonical: a point, a minor arc or a disk of radius > eps
        return ct_add(s1.elem, s2.elem)
    return normalize_parts([_ct_add_comps(s1, s2)])


# ---------------------------------------------------------------------------
# pointwise multiplication of value sets (rotation/scaling closed forms)


def _scale_comp(c, f: ComplexElem):
    """A component times a nonzero factor: scaled by |f| and turned by arg f."""
    if isinstance(c, CPoint):
        return CPoint(c.elem.times(f))
    if isinstance(c, CDisk):
        return CDisk(c.radius * f.modulus)
    if c.full:
        return full_circle(c.radius * f.modulus)
    return CArc(c.radius * f.modulus, c.start + f.argument, c.sweep)


def _cmul_comps(c1, c2):
    """The product of two components, itself one component."""
    if isinstance(c2, CPoint) and not isinstance(c1, CPoint):  # commutative
        c1, c2 = c2, c1
    if isinstance(c1, CPoint):
        return CPoint(CZERO) if c1.elem.modulus == 0.0 else _scale_comp(c2, c1.elem)
    if isinstance(c1, CDisk) or isinstance(c2, CDisk):
        return CDisk(c1.radius * c2.radius)
    # arc times arc: moduli multiply, angle intervals add
    r = c1.radius * c2.radius
    if c1.full or c2.full:
        return full_circle(r)
    return arc(r, c1.start + c2.start, c1.sweep + c2.sweep)


def ct_mul_sets(s1: CSet, s2: CSet) -> CSet:
    return normalize_parts([_cmul_comps(s1, s2)])


# ---------------------------------------------------------------------------
# n-ary sums and the convex-hull criterion


def zero_in_convex_hull(points: list[ComplexElem]) -> bool:
    """Is the origin inside the closed convex hull of the given points?

    Decided on the circular gaps between point directions; points within
    tolerance of the origin count as the origin itself.
    """
    eps = DEFAULT_TOL.eps
    scale = max((p.modulus for p in points), default=0.0)
    if scale <= eps:
        return True
    angles = sorted(
        wrap_angle(p.argument) for p in points if p.modulus > eps * scale
    )
    if any(p.modulus <= eps * scale for p in points):
        return True
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + TWO_PI - angles[-1])
    return max(gaps) <= math.pi + eps


def ct_sum_n(values: list[ComplexElem]) -> CSet:
    """Closed form of the iterated tropical sum: only maximal-modulus summands
    contribute; the result is a disk exactly when their hull captures 0,
    otherwise the minor arc spanned by the extreme summands (or a point)."""
    if not values:
        raise ValueError("empty sum")
    eps = DEFAULT_TOL.eps
    rmax = max(v.modulus for v in values)
    if rmax <= eps:
        return CPoint(CZERO)
    tops = [v for v in values if v.modulus >= rmax - eps]
    if zero_in_convex_hull(tops):
        return CDisk(rmax)
    # all tops sit in an open half-plane; take the angular hull
    sx = sum(math.cos(v.argument) for v in tops)
    sy = sum(math.sin(v.argument) for v in tops)
    ref = math.atan2(sy, sx)
    offs = []
    for v in tops:
        d = wrap_angle(v.argument - ref)
        if d > math.pi:
            d -= TWO_PI
        offs.append(d)
    lo, hi = min(offs), max(offs)
    if hi - lo <= eps:
        return CPoint(ComplexElem(rmax, ref + lo))
    return CArc(rmax, wrap_angle(ref + lo), hi - lo)


# ---------------------------------------------------------------------------
# real tropical hyperfield


def rt_add(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> rsets.RSet:
    ma, mb = abs(a), abs(b)
    if max(ma, mb) <= tol.eps:
        return rsets.rpoint(0.0)
    if abs(ma - mb) > tol.eps:
        return rsets.rpoint(a if ma > mb else b)
    m = max(ma, mb)
    if abs(a + b) <= tol.eps * m:
        return rsets.rinterval(-m, m)
    return rsets.rpoint(a if ma >= mb else b)


def rt_add_sets(s1: rsets.RSet, s2: rsets.RSet) -> rsets.RSet:
    """Set extension over the real tropical carrier.

    Components are points and symmetric intervals [-m, m]; nothing else can
    arise from rt_add.
    """
    (lo1, hi1), (lo2, hi2) = s1.intervals[0], s2.intervals[0]
    p1 = lo1 == hi1
    p2 = lo2 == hi2
    if p1 and p2:
        return rt_add(lo1, lo2)
    if p1 or p2:
        point, lo, hi = (lo1, lo2, hi2) if p1 else (lo2, lo1, hi1)
        if abs(lo + hi) > DEFAULT_TOL.eps * max(abs(lo), abs(hi), 1.0):
            raise RepresentationClosureError(
                f"asymmetric interval [{lo},{hi}] in real tropical sum"
            )
        if abs(point) > hi + DEFAULT_TOL.eps:
            return rsets.rpoint(point)
        return s2 if p1 else s1
    # two symmetric intervals: the larger absorbs the smaller
    m = max(hi1, hi2)
    return rsets.RSet(((-m, m),))


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
    if abs(na - nb) > tol.eps:
        return qsets.QPoint(a if na > nb else b)
    if max(na, nb) <= tol.eps:
        return qsets.QPoint(qsets.QZERO)
    r = max(na, nb)
    s = a.add(b)
    if s.norm < tol.eps * r:
        return qsets.QBall(r)
    if a.dist(b) <= tol.eps:
        return qsets.QPoint(a)
    return qsets.QArc(a, b)


def _qarc_point(a: qsets.QArc, p: qsets.QuatElem) -> list:
    """The sum of an arc and a tied point p: the ball when -p is in a, the
    circle rule when p lies on a great circle through both ends of a, and
    otherwise the cone over a and p."""
    eps = DEFAULT_TOL.eps
    cut = max(eps, 1e-9)
    r = a.radius
    up = p.unit()
    minus = tuple(-x for x in up)
    if qsets.in_cone(minus, a, eps):
        return [qsets.QBall(r)]
    q, cols = qsets._cone_of(a)[0][0]  # an orthonormal basis of the arc's plane
    if len(q) == 2:
        coords, res = qsets._project(q, up)
        ub_coords = cols[1]
    elif qsets.in_cone(up, a, eps):
        return [a]
    else:
        # a degenerate arc spans no plane: take the plane of its first end and
        # p, which holds its other end when p is on a great circle with both
        plane = qsets._factor((a.units[0], up), qsets._THIN)
        if plane is None:  # p is within 1e-9 rad of that end
            return [a]
        q, cols = plane
        coords = cols[1]
        ub_coords, res = qsets._project(q, a.units[1])
    if res > cut:
        return [qsets.QCone((a.a, a.b, qsets.QuatElem(*(x * r for x in up))))]

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
        return [qsets.QBall(c.radius)]
    if c.sweep <= eps:
        return [qsets.QPoint(at(c.start))]
    return [qsets.QArc(at(c.start), at(c.start + c.sweep))]


def _qcone_point(c: qsets.QCone, p: qsets.QuatElem) -> list:
    eps = DEFAULT_TOL.eps
    r = c.radius
    up = p.unit()
    minus = tuple(-x for x in up)
    if qsets.in_cone(minus, c, eps):
        return [qsets.QBall(r)]
    if qsets.in_cone(up, c, eps):
        return [c]
    return [qsets.QCone(c.vertices + (qsets.QuatElem(*(x * r for x in up)),))]


# order of component kinds in _quat_add_comps, by class name (naming the
# classes here would import qsets): the lower rank comes first
_QRANK = {"QBall": 0, "QArc": 1, "QCone": 1, "QPoint": 2}


def _quat_add_comps(c1, c2) -> list:
    """The rule of _ct_add_comps over H; two tied arcs or cones have no
    closed form."""
    if _QRANK[type(c2).__name__] < _QRANK[type(c1).__name__]:  # the sum is commutative
        c1, c2 = c2, c1
    if isinstance(c1, qsets.QPoint):
        return [quat_add(c1.elem, c2.elem)]
    r1 = c1.radius
    r2 = c2.elem.norm if isinstance(c2, qsets.QPoint) else c2.radius
    if abs(r1 - r2) > DEFAULT_TOL.eps:
        return [c1 if r1 > r2 else c2]
    if isinstance(c1, qsets.QBall):
        return [c2 if isinstance(c2, qsets.QBall) and r2 > r1 else c1]
    if isinstance(c2, qsets.QPoint):
        if isinstance(c1, qsets.QArc):
            return _qarc_point(c1, c2.elem)
        return _qcone_point(c1, c2.elem)
    raise RepresentationClosureError(
        f"unsupported quaternion pair {type(c1).__name__} + {type(c2).__name__}"
    )


def quat_add_sets(s1: qsets.QSet, s2: qsets.QSet) -> qsets.QSet:
    return qsets.qnormalize(_quat_add_comps(s1, s2))


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
