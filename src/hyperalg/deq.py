"""Dequantization families: log-sum semirings, triangle-to-ultratriangle,
and the complex family degenerating ordinary addition to the tropical sum.

All h-parameterized formulas are computed in the log domain with the maximum
factored out, since e.g. e^(a/h) overflows already at h = 1e-3.
"""
from __future__ import annotations

import math
import random

from .axioms import AxiomReport
from .csets import CZERO, ComplexElem, member as cmember
from .ctrop import ct_add
from .realhf import trop_add, ultra_add
from .rsets import RSet, rinterval, rmember, rpoint
from .tolerance import DEFAULT_TOL, NEG_INF, Tolerance

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


def lm_add(a: float, b: float, h: float) -> float:
    """h*ln(e^(a/h) + e^(b/h)) for h > 0, max(a, b) at h = 0."""
    _check_h(h)
    m = max(a, b)
    if h == 0.0 or m == NEG_INF:
        return m
    return m + h * math.log1p(math.exp(-abs(a - b) / h))


def lm_mul(a: float, b: float) -> float:
    return a + b


def d_h(x: float, h: float) -> float:
    """The semiring isomorphism (R>0, +, *) -> (R, +_h, *_h)."""
    if h <= 0.0:
        raise ValueError("d_h needs h > 0")
    if x <= 0.0:
        raise ValueError("d_h is defined on positive reals")
    return h * math.log(x)


def tri_add_h(a: float, b: float, h: float) -> RSet:
    """Triangle addition pulled back along x -> x^(1/h); ultratriangle at 0."""
    _check_h(h)
    if a < 0.0 or b < 0.0:
        raise ValueError("carrier is the nonnegative reals")
    if h == 0.0:
        return ultra_add(a, b)
    if a == 0.0 or b == 0.0:
        return rpoint(a + b)
    m, mn = max(a, b), min(a, b)
    ratio_pow = (mn / m) ** (1.0 / h)  # underflows to 0 harmlessly
    hi = m * math.exp(h * math.log1p(ratio_pow))
    if abs(a - b) <= DEFAULT_TOL.eps:
        lo = 0.0
    else:
        lo = m * math.exp(h * math.log1p(-ratio_pow))
    return rinterval(lo, hi)


def s_h(z: ComplexElem, h: float) -> ComplexElem:
    """Modulus rescaling |z|^(1/h) keeping the argument."""
    if h <= 0.0:
        raise ValueError("s_h needs h > 0")
    if z.modulus == 0.0:
        return CZERO
    return ComplexElem(z.modulus ** (1.0 / h), z.argument)


def s_h_inv(z: ComplexElem, h: float) -> ComplexElem:
    if h <= 0.0:
        raise ValueError("s_h_inv needs h > 0")
    if z.modulus == 0.0:
        return CZERO
    return ComplexElem(z.modulus**h, z.argument)


def c_add_h(a: ComplexElem, b: ComplexElem, h: float) -> ComplexElem:
    """Ordinary complex addition conjugated by s_h, overflow-free.

    Writing m = max|.|, the sum s_h(a) + s_h(b) = m^(1/h) * w with
    w = (|a|/m)^(1/h) e^(i arg a) + (|b|/m)^(1/h) e^(i arg b), so the result
    has modulus m*|w|^h and the argument of w.  |w| below tolerance is exact
    cancellation.
    """
    if h <= 0.0:
        raise ValueError("c_add_h needs h > 0")
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
        return CZERO
    return ComplexElem(m * wmod**h, math.atan2(wy, wx))


def c_add_0(a: ComplexElem, b: ComplexElem) -> ComplexElem:
    """Pointwise limit of +_h: dominant operand, or the bisector direction at
    tied moduli, or 0 on cancellation.  Not associative."""
    eps = DEFAULT_TOL.eps
    ra, rb = a.modulus, b.modulus
    if abs(ra - rb) > eps:
        return a if ra > rb else b
    if max(ra, rb) <= eps:
        return CZERO
    zx = math.cos(a.argument) + math.cos(b.argument)
    zy = math.sin(a.argument) + math.sin(b.argument)
    if math.hypot(zx, zy) <= eps:
        return CZERO
    return ComplexElem(max(ra, rb), math.atan2(zy, zx))


def graph_witness(
    a: ComplexElem, b: ComplexElem, c: ComplexElem, h: float
) -> tuple[ComplexElem, ComplexElem]:
    """A pair (a_h, b_h) with c_add_h(a_h, b_h, h) = c, converging to (a, b).

    Arc targets use the scaling witness (lam^h a, mu^h b) with c = lam a + mu b;
    dominant targets keep (a, b); cancellation targets use (a +_h c, -a),
    which reproduces c exactly for every h.
    """
    if h <= 0.0:
        raise ValueError("graph_witness needs h > 0")
    if not cmember(c, ct_add(a, b)):
        raise ValueError("target must lie in the tropical sum of a and b")
    eps = DEFAULT_TOL.eps
    ra, rb = a.modulus, b.modulus
    if abs(ra - rb) > eps:
        return (a, b)
    if max(ra, rb) <= eps:
        return (a, b)
    z = a.as_complex() + b.as_complex()
    if abs(z) < eps * max(ra, rb):  # cancellation: target anywhere in the disk
        return (c_add_h(a, c, h), -a)
    # arc target: solve c = lam*a + mu*b in real coordinates
    ax, ay = a.re, a.im
    bx, by = b.re, b.im
    det = ax * by - ay * bx
    if abs(det) <= eps * max(ra, rb) ** 2:  # a and b parallel: degenerate arc
        return (a, b)
    lam = (c.re * by - c.im * bx) / det
    mu = (ax * c.im - ay * c.re) / det
    lam, mu = max(lam, 0.0), max(mu, 0.0)
    return (
        ComplexElem(lam**h * ra, a.argument),
        ComplexElem(mu**h * rb, b.argument),
    )


def amoeba_add_h(x: float, y: float, h: float) -> RSet:
    """The amoeba-family addition: tri_add_h transported along log."""
    _check_h(h)
    if h == 0.0:
        return trop_add(x, y)
    if x == NEG_INF:
        return rpoint(y)
    if y == NEG_INF:
        return rpoint(x)
    s = tri_add_h(math.exp(x), math.exp(y), h)
    lo, hi = s.lo, s.hi
    return rinterval(NEG_INF if lo <= 0.0 else math.log(lo), math.log(hi))


def check_diagram(
    budget: int = 200,
    rng: random.Random | None = None,
    schedule: tuple = H_SCHEDULE,
) -> AxiomReport:
    """Verify that the three dequantization families commute with the
    modulus and log maps, and that the h -> 0 rows land in the tropical sums."""
    rng = rng or random.Random(0)
    rep = AxiomReport(structure="dequantization-diagram")
    wide = Tolerance(1e-7)

    def sample_pair() -> tuple[ComplexElem, ComplexElem]:
        m = math.exp(rng.uniform(-1.0, 1.0))
        a = ComplexElem(m, rng.uniform(0.0, 2 * math.pi))
        mode = rng.random()
        if mode < 0.4:
            b = ComplexElem(m, rng.uniform(0.0, 2 * math.pi))
        elif mode < 0.5:
            b = -a
        else:
            b = ComplexElem(math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi))
        return a, b

    mod_ok = log_ok = limit_ok = True
    mod_w = log_w = limit_w = None
    for _ in range(budget):
        a, b = sample_pair()
        for h in schedule:
            if h == 0.0:
                continue
            s = c_add_h(a, b, h)
            tri_h = tri_add_h(a.modulus, b.modulus, h)
            if not rmember(s.modulus, tri_h, wide):
                mod_ok = False
                mod_w = mod_w or (a, b, h)
            la = NEG_INF if a.modulus == 0.0 else math.log(a.modulus)
            lb = NEG_INF if b.modulus == 0.0 else math.log(b.modulus)
            am = amoeba_add_h(la, lb, h)
            lo_ref = NEG_INF if tri_h.lo <= 0.0 else math.log(tri_h.lo)
            if not (wide.close(am.hi, math.log(tri_h.hi)) and (am.lo == lo_ref or wide.close(am.lo, lo_ref))):
                log_ok = False
                log_w = log_w or (a, b, h)
        limit = c_add_0(a, b)
        if not rmember(limit.modulus, ultra_add(a.modulus, b.modulus), wide):
            limit_ok = False
            limit_w = limit_w or (a, b, 0.0)
    rep.tuples_checked = budget
    rep.add("modulus-containment", mod_ok, mod_w, _fmt3(mod_w))
    rep.add("log-transfer", log_ok, log_w, _fmt3(log_w))
    rep.add("limit-row", limit_ok, limit_w, _fmt3(limit_w))
    return rep


def _fmt3(w) -> str:
    if w is None:
        return ""
    from .csets import format_celem

    a, b, h = w
    return f"({format_celem(a)}, {format_celem(b)}, h={h})"


# ---------------------------------------------------------------------------
# CSV traces for the CLI


# the registry carrier whose literals each family's operands are
_TRACE_CARRIERS = {"lm": "trop", "tri": "tri", "complex": "C"}


def trace_rows(family: str, a_text: str, b_text: str, schedule: list[float]) -> list[dict]:
    from .csets import format_celem
    from .rsets import format_rset
    from .structures import get_structure

    if family not in _TRACE_CARRIERS:
        raise ValueError(f"unknown dequantization family {family!r}")
    carrier = get_structure(_TRACE_CARRIERS[family])
    a, b = carrier.parse_elem(a_text), carrier.parse_elem(b_text)
    rows = []
    if family == "lm":
        ref = max(a, b)
        for h in schedule:
            val = lm_add(a, b, h)
            err = 0.0 if val == ref else abs(val - ref)
            rows.append(
                {"h": h, "a": a_text, "b": b_text, "result": repr(val), "reference": repr(ref), "error": err}
            )
    elif family == "tri":
        ref = ultra_add(a, b)
        for h in schedule:
            s = tri_add_h(a, b, h) if h > 0 else ultra_add(a, b)
            err = max(abs(s.lo - ref.lo), abs(s.hi - ref.hi))
            rows.append(
                {"h": h, "a": a_text, "b": b_text, "result": format_rset(s), "reference": format_rset(ref), "error": err}
            )
    else:
        ref = c_add_0(a, b)
        for h in schedule:
            val = c_add_h(a, b, h) if h > 0 else ref
            err = abs(val.as_complex() - ref.as_complex())
            rows.append(
                {
                    "h": h,
                    "a": a_text,
                    "b": b_text,
                    "result": format_celem(val),
                    "reference": format_celem(ref),
                    "error": err,
                }
            )
    return rows
