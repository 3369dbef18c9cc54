"""Dequantization families: log-sum semirings, triangle-to-ultratriangle,
and the complex family degenerating ordinary addition to the tropical sum.

All h-parameterized formulas are computed in the log domain with the maximum
factored out, since e.g. e^(a/h) overflows already at h = 1e-3.
"""
from __future__ import annotations

import math
import random

from . import _Deferred
from .realhf import trop_add, ultra_add
from .rsets import RSet, format_rset, rinterval, rmember, rpoint
from .tolerance import NEG_INF, Tolerance

# imported at their first use: only the checker and the complex family need them
axioms = _Deferred(globals(), "axioms")
csets = _Deferred(globals(), "csets")
ctrop = _Deferred(globals(), "ctrop")

H_SCHEDULE = (1.0, 0.1, 0.01, 0.001)


def _check_h(h: float) -> None:
    if h < 0.0 or math.isnan(h):
        raise ValueError(f"dequantization parameter must be >= 0, got {h}")


def parse_h_schedule(text: str) -> list[float]:
    """The `--h` option: comma-separated finite reals >= 0."""
    try:
        hs = [float(t) for t in text.split(",")]
    except ValueError:
        hs = [math.nan]
    if not all(0.0 <= h < math.inf for h in hs):
        raise ValueError(f"--h takes comma-separated finite reals >= 0, got {text!r}")
    return hs


def _beyond_floats(family: str, h: float) -> ValueError:
    return ValueError(f"the {family} sum at h={h:g} is beyond the float range")


def lm_add(a: float, b: float, h: float) -> float:
    """h*ln(e^(a/h) + e^(b/h)) for h > 0, max(a, b) at h = 0.  A sum beyond
    the float range raises ValueError."""
    _check_h(h)
    m = max(a, b)
    if h == 0.0 or m == NEG_INF:
        return m
    s = m + h * math.log1p(math.exp(-abs(a - b) / h))
    if s == math.inf:
        raise _beyond_floats("Litvinov-Maslov", h)
    return s


def d_h(x: float, h: float) -> float:
    """The semiring isomorphism (R>0, +, *) -> (R, +_h, *_h)."""
    if h <= 0.0:
        raise ValueError("d_h needs h > 0")
    if x <= 0.0:
        raise ValueError("d_h is defined on positive reals")
    return h * math.log(x)


def tri_add_h(a: float, b: float, h: float) -> RSet:
    """Triangle addition pulled back along x -> x^(1/h); ultratriangle at 0.
    A sum beyond the float range raises ValueError."""
    _check_h(h)
    if a < 0.0 or b < 0.0:
        raise ValueError("carrier is the nonnegative reals")
    if h == 0.0:
        return ultra_add(a, b)
    if a == 0.0 or b == 0.0:
        return rpoint(a + b)
    m, mn = max(a, b), min(a, b)
    ratio_pow = (mn / m) ** (1.0 / h)  # underflows to 0 harmlessly
    try:
        hi = m * math.exp(h * math.log1p(ratio_pow))
    except OverflowError:
        hi = math.inf
    if hi == math.inf:
        raise _beyond_floats("triangle", h)
    lo = 0.0 if ratio_pow == 1.0 else m * math.exp(h * math.log1p(-ratio_pow))
    return rinterval(lo, hi)


def c_add_h(a: csets.ComplexElem, b: csets.ComplexElem, h: float) -> csets.ComplexElem:
    """Ordinary complex addition conjugated by the modulus rescaling
    S_h(z) = |z|^(1/h) e^(i arg z): the result is S_h^-1(S_h(a) + S_h(b)),
    computed without forming S_h, which overflows already at h = 1e-3.

    Writing m = max|.|, the sum S_h(a) + S_h(b) = m^(1/h) * w with
    w = (|a|/m)^(1/h) e^(i arg a) + (|b|/m)^(1/h) e^(i arg b), so the result
    has modulus m*|w|^h and the argument of w.  |w| below tolerance is exact
    cancellation.  At h = 0 it is the limit c_add_0.  A modulus beyond the
    float range raises ValueError.
    """
    _check_h(h)
    if h == 0.0:
        return c_add_0(a, b)
    ra, rb = a.modulus, b.modulus
    if ra == 0.0:
        return b
    if rb == 0.0:
        return a
    m = max(ra, rb)
    ta = (ra / m) ** (1.0 / h)
    tb = (rb / m) ** (1.0 / h)
    wx = ta * math.cos(a.argument) + tb * math.cos(b.argument)
    wy = ta * math.sin(a.argument) + tb * math.sin(b.argument)
    wmod = math.hypot(wx, wy)
    if wmod <= 1e-12 * (ta + tb):
        return csets.CZERO
    try:
        modulus = m * wmod**h
    except OverflowError:
        modulus = math.inf
    if modulus == math.inf:
        raise _beyond_floats("complex", h)
    return csets.ComplexElem(modulus, math.atan2(wy, wx))


def c_add_0(a: csets.ComplexElem, b: csets.ComplexElem) -> csets.ComplexElem:
    """Pointwise limit of +_h, a point of the tropical sum: the dominant
    operand, the arc's midpoint at tied moduli, or 0 on cancellation.  Not
    associative."""
    s = ctrop.ct_add(a, b)
    if isinstance(s, csets.CPoint):
        return s.elem
    if isinstance(s, csets.CDisk):
        return csets.CZERO
    return csets.ComplexElem(s.radius, s.start + s.sweep / 2)


def graph_witness(
    a: csets.ComplexElem, b: csets.ComplexElem, c: csets.ComplexElem, h: float
) -> tuple[csets.ComplexElem, csets.ComplexElem]:
    """A pair (a_h, b_h) with c_add_h(a_h, b_h, h) = c, converging to (a, b).

    Arc targets use the scaling witness (lam^h a, mu^h b) with c = lam a + mu b,
    exact inside the arc; at an endpoint the zero coefficient is replaced by
    e^(-1/sqrt(h)), so c_add_h(a_h, b_h, h) only tends to c.  The branch is
    the type of ct_add(a, b): a point sum (dominant, zero or a degenerate
    tie) keeps (a, b); a disk (cancellation) uses (a +_h c, -a), which
    reproduces c only up to a rounding error near 2^-53 (|a|/|c|)^(1/h), and
    returns 0 once (|c|/|a|)^(1/h) falls below 2^-53: for a = 1.3∠0.4 and
    c = 0.6∠2.5 it misses c by 5e-10 at h = 0.05 and by 0.6 at h = 0.01.
    """
    if h <= 0.0:
        raise ValueError("graph_witness needs h > 0")
    s = ctrop.ct_add(a, b)
    if not csets.member(c, s):
        raise ValueError("target must lie in the tropical sum of a and b")
    if isinstance(s, csets.CPoint):
        return (a, b)
    if isinstance(s, csets.CDisk):  # cancellation: target anywhere in the disk
        return (c_add_h(a, c, h), -a)
    # arc target: solve c = lam*a + mu*b in real coordinates
    ax, ay = a.re, a.im
    bx, by = b.re, b.im
    det = ax * by - ay * bx
    lam = (c.re * by - c.im * bx) / det
    mu = (ax * c.im - ay * c.re) / det
    # at an arc endpoint one coefficient is 0, and 0^h = 0 would pin that
    # operand at 0 for every h; e^(-1/sqrt(h)) tends to 0 while its h-th
    # power tends to 1, so the pair still converges to (a, b)
    floor = math.exp(-1.0 / math.sqrt(h))
    lam = lam if lam > 0.0 else floor
    mu = mu if mu > 0.0 else floor
    return (
        csets.ComplexElem(lam**h * a.modulus, a.argument),
        csets.ComplexElem(mu**h * b.modulus, b.argument),
    )


def amoeba_add_h(x: float, y: float, h: float) -> RSet:
    """The amoeba-family addition [h ln|e^(x/h) - e^(y/h)|, h ln(e^(x/h) + e^(y/h))],
    with m = max(x, y) and d = |x - y| factored out; the lower end is -inf
    only where -expm1(-d/h) is 0, as in realhf.amoeba_add.  trop_add at h = 0."""
    _check_h(h)
    if h == 0.0:
        return trop_add(x, y)
    if x == NEG_INF:
        return rpoint(y)
    if y == NEG_INF:
        return rpoint(x)
    m, d = max(x, y), abs(x - y)
    gap = -math.expm1(-d / h)
    lo = m + h * math.log(gap) if gap else NEG_INF
    return rinterval(lo, m + h * math.log1p(math.exp(-d / h)))


_GRAPH_LIMIT_SCOPE = (
    "tied non-antipodal pairs with c strictly inside the arc; dominant and cancellation "
    "targets are not covered, since their witnesses reproduce c only in the limit or need "
    "(|c|/|a|)^(1/h), which underflows in floats at h = 0.001"
)


def check_diagram(budget: int = 200, rng: random.Random | None = None) -> axioms.AxiomReport:
    """Verify the dequantization of C into TC on sampled pairs (a, b).

    At every h in H_SCHEDULE: the complex family commutes with the modulus
    map into the triangle family (modulus-containment) and the amoeba family
    is the triangle family transported along log (log-transfer); d_h carries
    (+, *) onto (+_h, +) (semiring-isomorphism); and for tied, non-antipodal
    pairs, graph_witness hits a target c strictly inside the arc a + b
    exactly while its distance to (a, b) does not grow (graph-limit).  At
    h = 0, c_add_0 lands in the ultratriangle sum (limit-row).
    """
    rng = rng or random.Random(0)
    wide = Tolerance(1e-7)
    failed: dict = {}  # verdict -> its first failing (a, b, h)
    for _ in range(budget):
        m = math.exp(rng.uniform(-1.0, 1.0))
        a = csets.ComplexElem(m, rng.uniform(0.0, 2 * math.pi))
        mode = rng.random()
        if mode < 0.4:
            b = csets.ComplexElem(m, rng.uniform(0.0, 2 * math.pi))
        elif mode < 0.5:
            b = -a
        else:
            b = csets.ComplexElem(math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi))
        x, y = a.modulus, b.modulus
        s = ctrop.ct_add(a, b)
        c = csets.ComplexElem(s.radius, s.start + rng.uniform(0.0, 1.0) * s.sweep) if isinstance(s, csets.CArc) else None
        drift_prev = math.inf  # the distance of the graph witness to (a, b) at the previous h
        for h in H_SCHEDULE:
            tri_h = tri_add_h(x, y, h)
            if not rmember(c_add_h(a, b, h).modulus, tri_h, wide):
                failed.setdefault("modulus-containment", (a, b, h))
            am = amoeba_add_h(math.log(x), math.log(y), h)
            lo_ref = NEG_INF if tri_h.lo <= 0.0 else math.log(tri_h.lo)
            if not (wide.close(am.hi, math.log(tri_h.hi)) and (am.lo == lo_ref or wide.close(am.lo, lo_ref))):
                failed.setdefault("log-transfer", (a, b, h))
            dx, dy = d_h(x, h), d_h(y, h)
            if not (wide.close(lm_add(dx, dy, h), d_h(x + y, h)) and wide.close(dx + dy, d_h(x * y, h))):
                failed.setdefault("semiring-isomorphism", (a, b, h))
            if c is not None:
                ah, bh = graph_witness(a, b, c, h)
                drift = abs(ah.as_complex() - a.as_complex()) + abs(bh.as_complex() - b.as_complex())
                hit = abs(c_add_h(ah, bh, h).as_complex() - c.as_complex()) <= wide.eps * c.modulus
                if not (hit and drift <= drift_prev + 1e-12):
                    failed.setdefault("graph-limit", (a, b, h))
                drift_prev = drift
        if not rmember(c_add_0(a, b).modulus, ultra_add(x, y), wide):
            failed.setdefault("limit-row", (a, b, 0.0))
    rep = axioms.AxiomReport(structure="dequantization-diagram", tuples_checked=budget)
    for name in ("modulus-containment", "log-transfer", "limit-row", "semiring-isomorphism", "graph-limit"):
        w = failed.get(name)
        rep.add(name, w is None, w, _fmt3(w), _GRAPH_LIMIT_SCOPE if name == "graph-limit" else "")
    return rep


def _fmt3(w) -> str:
    if w is None:
        return ""
    a, b, h = w
    return f"({csets.format_celem(a)}, {csets.format_celem(b)}, h={h})"


# ---------------------------------------------------------------------------
# CSV traces for the CLI


# family -> (the registry carrier whose literals its operands are, its h-sum,
# the text of a value, the distance of a value to the h = 0 limit)
_TRACES = {
    "lm": ("trop", lm_add, repr, lambda v, ref: 0.0 if v == ref else abs(v - ref)),
    "tri": ("tri", tri_add_h, format_rset, lambda s, ref: max(abs(s.lo - ref.lo), abs(s.hi - ref.hi))),
    "complex": (
        "C",
        c_add_h,
        lambda z: csets.format_celem(z),
        lambda z, ref: abs(z.as_complex() - ref.as_complex()),
    ),
}


def trace_rows(family: str, a_text: str, b_text: str, schedule: list[float]) -> list[dict]:
    from .structures import get_structure

    if family not in _TRACES:
        raise ValueError(f"unknown dequantization family {family!r}")
    carrier, add_h, text, distance = _TRACES[family]
    X = get_structure(carrier)
    a, b = X.parse_elem(a_text), X.parse_elem(b_text)
    ref = add_h(a, b, 0.0)
    rows = []
    for h in schedule:
        val = add_h(a, b, h)
        rows.append(
            {"h": h, "a": a_text, "b": b_text, "result": text(val), "reference": text(ref), "error": distance(val, ref)}
        )
    return rows
