"""Quaternion carrier points and symbolic subsets of H.

The tropical sum of quaternions produces points, minor geodesic arcs on
origin-centred 3-spheres, closed balls, and (one level of set extension
later) geodesic cones: the union of minor arcs from a point to every point
of an arc).  A cone with generator set V is exactly the set of norm-r points
whose direction is a nonnegative combination of the unit generators, which
gives an exact membership test: one modified Gram-Schmidt factorization of a
generator subset whose size is the rank of the generators (see in_cone).  An
arc or cone derives its radius and unit directions once, at construction, and
factors its cone at its first membership test.

Canonical form is a contract: every operation builds its set under the library
tolerance DEFAULT_TOL and returns a fixed point of qnormalize, which the
predicates and set-extended sums take as is; a predicate may compare wider.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .tolerance import DEFAULT_TOL, InvalidSetError, Tolerance, fmt_num, match_parts


@dataclass(frozen=True, slots=True)
class QuatElem:
    x: float
    y: float
    z: float
    t: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z + self.t * self.t)

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.z, self.t)

    def unit(self) -> tuple[float, float, float, float]:
        n = self.norm
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion has no direction")
        return (self.x / n, self.y / n, self.z / n, self.t / n)

    def __neg__(self) -> "QuatElem":
        return QuatElem(-self.x, -self.y, -self.z, -self.t)

    def add(self, o: "QuatElem") -> "QuatElem":
        return QuatElem(self.x + o.x, self.y + o.y, self.z + o.z, self.t + o.t)

    def times(self, o: "QuatElem") -> "QuatElem":
        a1, b1, c1, d1 = self.coords()
        a2, b2, c2, d2 = o.coords()
        return QuatElem(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def conj(self) -> "QuatElem":
        return QuatElem(self.x, -self.y, -self.z, -self.t)

    def inv(self) -> "QuatElem":
        n2 = self.norm**2
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        c = self.conj()
        return QuatElem(c.x / n2, c.y / n2, c.z / n2, c.t / n2)

    def dist(self, o: "QuatElem") -> float:
        return math.sqrt(
            (self.x - o.x) ** 2 + (self.y - o.y) ** 2 + (self.z - o.z) ** 2 + (self.t - o.t) ** 2
        )

    def eq(self, o: "QuatElem", tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.dist(o) <= tol.eps


QZERO = QuatElem(0.0, 0.0, 0.0, 0.0)
QONE = QuatElem(1.0, 0.0, 0.0, 0.0)


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def _scale(u, f):
    return (u[0] * f, u[1] * f, u[2] * f, u[3] * f)


def _direction(e: QuatElem, n: float) -> tuple:
    """e.unit(), given the norm n of e."""
    return (e.x / n, e.y / n, e.z / n, e.t / n)


# a generator whose residual against the span of the generators before it
# has a squared norm below this share of its own is taken as dependent on them
_DEPENDENT = 1e-13


def _factor(gens) -> tuple[list, list] | None:
    """Modified Gram-Schmidt: orthonormal `q` and the upper-triangular `r`,
    stored by columns (r[j] holds the coordinates of gens[j] along q[0..j]),
    or None when the generators are (nearly) linearly dependent."""
    q: list = []
    r: list = []
    for g in gens:
        col = []
        v = g
        for qi in q:
            d = _dot(qi, v)
            col.append(d)
            v = (v[0] - d * qi[0], v[1] - d * qi[1], v[2] - d * qi[2], v[3] - d * qi[3])
        nn = _dot(v, v)
        if nn <= _DEPENDENT * _dot(g, g):
            return None
        n = math.sqrt(nn)
        col.append(n)
        r.append(col)
        q.append(_scale(v, 1.0 / n))
    return q, r


def _project(q: list, u) -> tuple[list, float]:
    """Coordinates of `u` along the orthonormal `q`, taken one at a time, and
    the norm of the residual u - sum_i <q_i, u> q_i."""
    y = []
    for qi in q:
        d = _dot(qi, u)
        y.append(d)
        u = (u[0] - d * qi[0], u[1] - d * qi[1], u[2] - d * qi[2], u[3] - d * qi[3])
    return y, math.sqrt(_dot(u, u))


def _factor_cone(gens) -> list:
    """The factors (q, r) of the generator subsets that in_cone tests: every
    linearly independent subset whose size is the rank of `gens`, in the
    order of itertools.combinations."""
    for k in range(min(len(gens), 4), 0, -1):
        factors = [f for f in map(_factor, itertools.combinations(gens, k)) if f is not None]
        if factors:
            return factors
    return []


def _in_factors(u: tuple, factors: list, eps: float) -> bool:
    """in_cone of the generators whose factored cone is `factors`."""
    cut = max(eps, 1e-9)
    for q, r in factors:
        y, res = _project(q, u)
        if res > cut:
            continue
        k = len(q)
        coeffs = y  # back substitution, in place
        for j in range(k - 1, -1, -1):
            c = coeffs[j]
            for i in range(j + 1, k):
                c -= r[i][j] * coeffs[i]
            coeffs[j] = c / r[j][j]
        if all(c >= -1e-7 for c in coeffs):
            return True
    return False


def _chord_gap(u: tuple, ua: tuple, ub: tuple) -> float:
    """The distance of `u` to the segment between `ua` and `ub`."""
    d = (ub[0] - ua[0], ub[1] - ua[1], ub[2] - ua[2], ub[3] - ua[3])
    w = (u[0] - ua[0], u[1] - ua[1], u[2] - ua[2], u[3] - ua[3])
    dd = _dot(d, d)
    t = min(1.0, max(0.0, _dot(w, d) / dd)) if dd > 0.0 else 0.0
    return math.dist(w, _scale(d, t))


def in_cone(u: tuple, gens: list[tuple] | QArc | QCone, eps: float) -> bool:
    """Is the unit 4-vector `u` a nonnegative combination of the generators:
    the unit vectors `gens`, or the directions of `gens` when it is a QArc
    or QCone, whose factored cone is then kept on the component?

    By conic Caratheodory, `u` is in the cone iff it is a nonnegative
    combination of a linearly independent subset, and every independent
    subset extends to one whose size is the rank of `gens`.  So only subsets
    of that size are factored: one, when the generators are independent.
    `u` is in the cone of such a subset iff its residual is at most
    max(eps, 1e-9) and its back-substituted coefficients are all >= -1e-7.
    The ends of a QArc under about 3e-7 rad apart span no plane (rank 1),
    so the arc also holds every direction within max(eps, 1e-9) of the chord
    between them, which lies within angle^2/8 < 2e-14 of the arc.
    """
    if not isinstance(gens, (QArc, QCone)):
        return _in_factors(u, _factor_cone(gens), eps)
    factors = _cone_factors(gens)
    if _in_factors(u, factors, eps):
        return True
    degenerate_arc = isinstance(gens, QArc) and len(factors[0][0]) < 2
    return degenerate_arc and _chord_gap(u, *gens.units) <= max(eps, 1e-9)


def slerp(u: tuple, v: tuple, t: float) -> tuple:
    """Point at fraction t along the minor great-circle arc between units u, v."""
    d = max(-1.0, min(1.0, _dot(u, v)))
    omega = math.acos(d)
    if omega < 1e-12:
        return u
    s = math.sin(omega)
    a = math.sin((1.0 - t) * omega) / s
    b = math.sin(t * omega) / s
    return tuple(a * u[i] + b * v[i] for i in range(4))


# ---------------------------------------------------------------------------
# set components


@dataclass(frozen=True, slots=True)
class QPoint:
    elem: QuatElem


@dataclass(frozen=True, slots=True)
class QArc:
    """Minor geodesic arc between two non-antipodal points of equal norm.

    `radius` and `units`, the directions of the ends, are derived at
    construction, and `cone`, their factored cone, at the first membership
    test; none of them takes part in ==, hash or repr."""

    a: QuatElem
    b: QuatElem
    radius: float = field(init=False, repr=False, compare=False)
    units: tuple = field(init=False, repr=False, compare=False)
    cone: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        na, nb = self.a.norm, self.b.norm
        if na == 0.0 or nb == 0.0:
            raise InvalidSetError("geodesic arc endpoints must be nonzero")
        if self.b.coords() < self.a.coords():
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)
            na, nb = nb, na
        object.__setattr__(self, "radius", 0.5 * (na + nb))
        object.__setattr__(self, "units", (_direction(self.a, na), _direction(self.b, nb)))


@dataclass(frozen=True, slots=True)
class QBall:
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise InvalidSetError("ball of negative radius")


@dataclass(frozen=True, slots=True)
class QCone:
    """Norm-r points whose direction lies in the nonnegative span of vertices.

    `radius`, `units` and `cone` are derived as for QArc, over the vertices
    in their sorted order."""

    vertices: tuple[QuatElem, ...]
    radius: float = field(init=False, repr=False, compare=False)
    units: tuple = field(init=False, repr=False, compare=False)
    cone: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise InvalidSetError("cone needs at least three vertices")
        vs = tuple(sorted(self.vertices, key=lambda q: q.coords()))
        norms = [v.norm for v in vs]
        if 0.0 in norms:
            raise InvalidSetError("cone vertices must be nonzero")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "radius", sum(norms) / len(vs))
        object.__setattr__(self, "units", tuple(map(_direction, vs, norms)))


@dataclass(frozen=True, slots=True)
class QUnion:
    parts: tuple


QSet = QPoint | QArc | QBall | QCone | QUnion


def qparts_of(s: QSet) -> list:
    return list(s.parts) if isinstance(s, QUnion) else [s]


def _comp_radius(c) -> float:
    if isinstance(c, QPoint):
        return c.elem.norm
    return c.radius


def _cone_factors(c) -> list:
    """The factored cone of an arc's or cone's directions, kept on the
    component from its first use."""
    if c.cone is None:
        object.__setattr__(c, "cone", _factor_cone(c.units))
    return c.cone


def qmember(x: QuatElem, s: QSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    n = x.norm
    u = None  # the direction of x, taken at the first arc or cone of its norm
    for c in qparts_of(s):
        if isinstance(c, QPoint):
            if x.eq(c.elem, tol):
                return True
        elif isinstance(c, QBall):
            if n <= c.radius + tol.eps:
                return True
        elif abs(n - c.radius) <= tol.eps and n > 0.0:
            if u is None:
                u = _direction(x, n)
            if in_cone(u, c, tol.eps):
                return True
    return False


def qnormalize(parts: list) -> QSet:
    if len(parts) == 1:
        # a lone point, arc, cone or non-degenerate ball is already a fixed point
        c = parts[0]
        if isinstance(c, (QPoint, QArc, QCone)) or (
            isinstance(c, QBall) and c.radius > DEFAULT_TOL.eps
        ):
            return c
    flat: list = []
    for p in parts:
        flat.extend(qparts_of(p))
    if not flat:
        raise InvalidSetError("quaternion value set must be nonempty")
    ball_r = -1.0
    for c in flat:
        if isinstance(c, QBall):
            ball_r = max(ball_r, c.radius)
    rest = [
        c
        for c in flat
        if not isinstance(c, QBall) and _comp_radius(c) > ball_r + DEFAULT_TOL.eps
    ]
    out: list = []
    if ball_r >= 0.0:
        if ball_r <= DEFAULT_TOL.eps:
            # added after the filter above, which would drop it
            rest.append(QPoint(QZERO))
        else:
            out.append(QBall(ball_r))
    # absorb points lying on arcs/cones, then dedup
    arcs = [c for c in rest if isinstance(c, (QArc, QCone))]
    points = [c.elem for c in rest if isinstance(c, QPoint)]
    kept_pts: list[QuatElem] = []
    for p in sorted(points, key=lambda e: e.coords()):
        if any(qmember(p, a) for a in arcs):
            continue
        if any(p.eq(q) for q in kept_pts):
            continue
        kept_pts.append(p)
    kept_arcs: list = []
    for a in arcs:
        if not any(_qcomp_eq(a, b, DEFAULT_TOL) for b in kept_arcs):
            kept_arcs.append(a)
    out.extend(sorted(kept_arcs, key=_qsort_key))
    out.extend(QPoint(p) for p in kept_pts)
    if not out:
        raise InvalidSetError("normalization emptied the quaternion set")
    if len(out) == 1:
        return out[0]
    return QUnion(tuple(out))


def _qsort_key(c) -> tuple:
    if isinstance(c, QArc):
        return (0, c.a.coords(), c.b.coords())
    return (1, tuple(v.coords() for v in c.vertices), ())


def _qcomp_eq(c1, c2, tol: Tolerance) -> bool:
    if isinstance(c1, QPoint) and isinstance(c2, QPoint):
        return c1.elem.eq(c2.elem, tol)
    if isinstance(c1, QBall) and isinstance(c2, QBall):
        return tol.close(c1.radius, c2.radius)
    if isinstance(c1, QArc) and isinstance(c2, QArc):
        return (c1.a.eq(c2.a, tol) and c1.b.eq(c2.b, tol)) or (
            c1.a.eq(c2.b, tol) and c1.b.eq(c2.a, tol)
        )
    if isinstance(c1, QCone) and isinstance(c2, QCone):
        return match_parts(c1.vertices, c2.vertices, QuatElem.eq, tol)
    return False


def qset_eq(s1: QSet, s2: QSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    return match_parts(qparts_of(s1), qparts_of(s2), _qcomp_eq, tol)


def qpick(s: QSet, rng, count: int = 4) -> list[QuatElem]:
    pts: list[QuatElem] = []

    def _rand_unit() -> tuple:
        while True:
            v = tuple(rng.gauss(0.0, 1.0) for _ in range(4))
            n = math.sqrt(_dot(v, v))
            if n > 1e-6:
                return _scale(v, 1.0 / n)

    for c in qparts_of(s):
        if isinstance(c, QPoint):
            pts.append(c.elem)
        elif isinstance(c, QArc):
            r = c.radius
            ua, ub = c.units
            for t in (0.0, 1.0, 0.5):
                pts.append(QuatElem(*_scale(slerp(ua, ub, t), r)))
            for _ in range(count):
                pts.append(QuatElem(*_scale(slerp(ua, ub, rng.random()), r)))
        elif isinstance(c, QBall):
            pts.append(QZERO)
            pts.append(QuatElem(*_scale(_rand_unit(), c.radius)))
            for _ in range(count):
                pts.append(QuatElem(*_scale(_rand_unit(), c.radius * rng.random())))
        else:
            r = c.radius
            units = c.units
            for u in units:
                pts.append(QuatElem(*_scale(u, r)))
            for _ in range(count + 2):
                ws = [rng.random() for _ in units]
                mix = (0.0, 0.0, 0.0, 0.0)
                for w, u in zip(ws, units):
                    mix = tuple(mix[i] + w * u[i] for i in range(4))
                n = math.sqrt(_dot(mix, mix))
                if n > 1e-9:
                    pts.append(QuatElem(*_scale(mix, r / n)))
    return pts


def qsubset(s1: QSet, s2: QSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Containment judged on three points of s1 sampled at a fixed seed: a
    True verdict is sampled, not proven."""
    return all(qmember(p, s2, tol) for p in qpick(s1, random.Random(7), 3))


def format_qelem(q: QuatElem) -> str:
    return ",".join(fmt_num(v) for v in q.coords())


def parse_qelem(text: str) -> QuatElem:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 4:
        raise InvalidSetError(f"quaternion literal needs 4 components: {text!r}")
    if not all(map(math.isfinite, vals)):
        raise InvalidSetError(f"quaternion coordinates must be finite: {text!r}")
    return QuatElem(*vals)


def format_qset(s: QSet) -> str:
    out = []
    for c in qparts_of(s):
        if isinstance(c, QPoint):
            out.append(f"point {format_qelem(c.elem)}")
        elif isinstance(c, QBall):
            out.append(f"ball r={fmt_num(c.radius)}")
        elif isinstance(c, QArc):
            out.append(f"garc {format_qelem(c.a)} to {format_qelem(c.b)}")
        else:
            verts = " ".join(format_qelem(v) for v in c.vertices)
            out.append(f"gcone {verts}")
    return " | ".join(out)
