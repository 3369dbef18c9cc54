"""Quaternion carrier points and symbolic subsets of H.

The tropical sum of quaternions produces points, minor geodesic arcs on
origin-centred 3-spheres, closed balls, and (one level of set extension
later) geodesic cones: the union of minor arcs from a point to every point
of an arc.  Every value set is one of these components; there is no union.
A cone with generator set V is exactly the set of norm-r points whose
direction is a nonnegative combination of the unit generators, which gives an
exact membership test: one modified Gram-Schmidt factorization of a generator
subset whose size is the rank of the generators (see in_cone).  An arc or
cone with dependent directions also tests its thin subsets under a finer rank
cutoff, and holds the chord of two directions too close to span a plane.  An
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

from .tolerance import DEFAULT_TOL, InvalidSetError, RepresentationClosureError, Tolerance, fmt_num, match_parts


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
        """The distance to o; inf, as `norm` gives, beyond the float range."""
        return QuatElem(self.x - o.x, self.y - o.y, self.z - o.z, self.t - o.t).norm

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
# the finer share that in_cone uses for the thin parts of a cone: a residual
# under 1e-9 is within the membership cut of a face
_THIN = 1e-18


def _factor(gens, dependent: float = _DEPENDENT) -> tuple[list, list] | None:
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
        if nn <= dependent * _dot(g, g):
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


def _factor_cone(gens, dependent: float = _DEPENDENT) -> list:
    """The factors (q, r) of the generator subsets that in_cone tests: every
    linearly independent subset whose size is the rank of `gens`, both under
    the cutoff `dependent`, in the order of itertools.combinations."""
    for k in range(min(len(gens), 4), 0, -1):
        subsets = itertools.combinations(gens, k)
        factors = [f for sub in subsets if (f := _factor(sub, dependent)) is not None]
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


def _chords(units) -> list:
    """The pairs of `units` that _factor takes as dependent and whose dot
    product is positive: too close to span a plane, they bound a chord."""
    return [
        (ua, ub)
        for ua, ub in itertools.combinations(units, 2)
        if _dot(ua, ub) > 0.0 and _factor((ua, ub)) is None
    ]


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

    The rank cutoff misses thin parts of a cone: the cone over two
    directions under about 3e-7 rad apart and a third has rank 2, yet holds
    points off the planes of both its faces.  So unless each min(n, 4) of
    its n directions are independent under that cutoff, a QArc or QCone also
    tests the subsets of the rank that the finer cutoff _THIN gives: it takes
    a generator as dependent only when its residual is under 1e-9 rad, within
    the cut of a face.  And it holds every direction within max(eps, 1e-9)
    of the chord between two such close directions that are not opposite,
    which lies within angle^2/8 < 2e-14 of their arc.
    """
    if not isinstance(gens, (QArc, QCone)):
        return _in_factors(u, _factor_cone(gens), eps)
    factors, chords = _cone_of(gens)
    cut = max(eps, 1e-9)
    return _in_factors(u, factors, eps) or any(
        _chord_gap(u, ua, ub) <= cut for ua, ub in chords
    )


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
    construction, and `cone`, their factored cone and its chords, at the
    first membership test; none of them takes part in ==, hash or repr."""

    a: QuatElem
    b: QuatElem
    radius: float = field(init=False, repr=False, compare=False)
    units: tuple = field(init=False, repr=False, compare=False)
    cone: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    cone: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


QSet = QPoint | QArc | QBall | QCone


def qparts_of(s: QSet) -> list:
    return [s]


def _cone_of(c) -> tuple:
    """The factored cone of an arc's or cone's directions and its chords,
    kept on the component from its first use.  Unless each min(n, 4) of its
    n directions are independent, the factors end with the thin subsets of
    in_cone."""
    if c.cone is None:
        units = c.units
        factors, chords = _factor_cone(units), _chords(units)
        full = min(len(units), 4)
        if len(factors[0][0]) < full or len(factors) < math.comb(len(units), full):
            factors += [f for f in _factor_cone(units, _THIN) if f not in factors]
        object.__setattr__(c, "cone", (factors, chords))
    return c.cone


def qmember(x: QuatElem, s: QSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    if isinstance(s, QPoint):
        return x.eq(s.elem, tol)
    n = x.norm
    if isinstance(s, QBall):
        return n <= s.radius + tol.eps
    return abs(n - s.radius) <= tol.eps and n > 0.0 and in_cone(_direction(x, n), s, tol.eps)


def qnormalize(parts: list) -> QSet:
    """The one component of `parts`, where a ball of radius at most eps is the
    point 0: every quaternion sum is one point, arc, ball or cone."""
    if len(parts) != 1:
        raise RepresentationClosureError(
            f"a quaternion value set is one component, not {len(parts)}"
        )
    c = parts[0]
    if isinstance(c, QBall) and c.radius <= DEFAULT_TOL.eps:
        return QPoint(QZERO)
    return c


def qset_eq(s1: QSet, s2: QSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    if isinstance(s1, QPoint) and isinstance(s2, QPoint):
        return s1.elem.eq(s2.elem, tol)
    if isinstance(s1, QBall) and isinstance(s2, QBall):
        return tol.close(s1.radius, s2.radius)
    if isinstance(s1, QArc) and isinstance(s2, QArc):
        return (s1.a.eq(s2.a, tol) and s1.b.eq(s2.b, tol)) or (
            s1.a.eq(s2.b, tol) and s1.b.eq(s2.a, tol)
        )
    if isinstance(s1, QCone) and isinstance(s2, QCone):
        return match_parts(s1.vertices, s2.vertices, QuatElem.eq, tol)
    return False


def qpick(s: QSet, rng, count: int = 4) -> list[QuatElem]:
    if isinstance(s, QPoint):
        return [s.elem]
    if isinstance(s, QBall):

        def _rand_unit() -> tuple:
            while True:
                v = tuple(rng.gauss(0.0, 1.0) for _ in range(4))
                n = math.sqrt(_dot(v, v))
                if n > 1e-6:
                    return _scale(v, 1.0 / n)

        pts = [QZERO, QuatElem(*_scale(_rand_unit(), s.radius))]
        for _ in range(count):
            pts.append(QuatElem(*_scale(_rand_unit(), s.radius * rng.random())))
        return pts
    r = s.radius
    if isinstance(s, QArc):
        ua, ub = s.units
        ts = [0.0, 1.0, 0.5] + [rng.random() for _ in range(count)]
        return [QuatElem(*_scale(slerp(ua, ub, t), r)) for t in ts]
    units = s.units
    pts = [QuatElem(*_scale(u, r)) for u in units]
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
    q = QuatElem(*vals)
    if not math.isfinite(q.norm):  # also rejects infinite and NaN coordinates
        raise InvalidSetError(f"quaternion literal must have a finite norm: {text!r}")
    return q


def format_qset(s: QSet) -> str:
    if isinstance(s, QPoint):
        return f"point {format_qelem(s.elem)}"
    if isinstance(s, QBall):
        return f"ball r={fmt_num(s.radius)}"
    if isinstance(s, QArc):
        return f"garc {format_qelem(s.a)} to {format_qelem(s.b)}"
    return "gcone " + " ".join(format_qelem(v) for v in s.vertices)
