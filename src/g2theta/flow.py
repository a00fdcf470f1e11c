"""Flow constants, inversion differential equations, addition and derivative formulas.

The recovered pair (x1(u,v), x2(u,v)) obeys first-order flow equations

    dx1/du = (A + B x2) sigma1 / (x2 - x1)
    dx2/du = -(A + B x1) sigma2 / (x2 - x1)

(and the same in v with constants C, D), where A, B, C, D come from four
scalars a_u, b_u, c_v, d_v built out of theta-null derivatives.  Inverting
the 2x2 system gives the Abelian differentials

    du = sum_i (P + Q x_i) dx_i / sigma_i,   dv = sum_i (R + S x_i) dx_i / sigma_i

with P = -C/det, Q = -D/det, R = A/det, S = B/det, det = AD - BC.

Closed forms are certified against central finite differences of the
recovered pair.  The sigma_i carry one essential overall sign (the class
choice of recover_pair is only fixed up to simultaneous negation by the
squared parameterizations), so residuals are minimized over that single
global sign; the relative sign between sigma1 and sigma2 is fixed and
meaningful, and a wrong relative sign fails loudly.

Derivative nulls are always term-wise differentiated series, never finite
differences; the finite-difference noise budget is reserved for the outer
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    PointError,
    SingularDenominator,
    SingularJacobian,
    StencilCrossesDivisor,
    TildeMismatch,
)
from .inversion import _pair_from_thetas, _pair_tables
from .theta import (
    CurveData,
    HalfCharacteristic,
    PeriodMatrix,
    Point2,
    SeriesControl,
    _rel,
    curve_data,
)

__all__ = [
    "FlowConstants",
    "flow_constants",
    "stencil_residuals",
    "addition_formula_residuals",
    "derivative_formula_residuals",
]


@dataclass(frozen=True)
class FlowConstants:
    a_u: complex
    b_u: complex
    c_v: complex
    d_v: complex
    A: complex
    B: complex
    C: complex
    D: complex
    P: complex
    Q: complex
    R: complex
    S: complex
    det: complex


def _chars(*bits_seq) -> tuple[HalfCharacteristic, ...]:
    return tuple(HalfCharacteristic(*bits) for bits in bits_seq)


def flow_constants(
    tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> FlowConstants:
    """The flow constants of tau, built once per period matrix (CurveData.flow_constants)."""
    return curve_data(tau, ctrl).flow_constants


def build_flow_constants(cd: CurveData) -> FlowConstants:
    """Build the flow constants from theta-null derivatives at the origin.

    a_u and b_u have a second, independent expression (different null
    prefactors); both are computed and must agree to 1e-8 relative, else the
    moduli-root branch bookkeeping upstream is broken and we refuse to
    return.
    """
    ms = cd.moduli
    n = cd.nulls
    grads = cd.null_grads
    du1010, dv1010 = grads[(1, 0, 1, 0)]
    du1110, dv1110 = grads[(1, 1, 1, 0)]
    den = n[(1, 0, 0, 1)] * n[(0, 0, 0, 1)]
    den_tilde = n[(1, 0, 0, 1)] * n[(0, 0, 1, 1)]

    a_u = 2.0 / (ms.kp2 * ms.k02 * ms.k12) * n[(0, 0, 1, 0)] * du1010 / den
    b_u = 2.0 / (ms.kp1 * ms.k01 * ms.k12) * n[(0, 1, 1, 0)] * du1110 / den
    a_tilde = 2.0 / (ms.k02 * ms.k12) * n[(0, 0, 0, 0)] * du1010 / den_tilde
    b_tilde = 2.0 / (ms.k01 * ms.k12) * n[(0, 1, 0, 0)] * du1110 / den_tilde
    if abs(a_u - a_tilde) > 1e-8 * abs(a_u):
        raise TildeMismatch(f"a = {a_u} but tilde expression gives {a_tilde}")
    if abs(b_u - b_tilde) > 1e-8 * abs(b_u):
        raise TildeMismatch(f"b = {b_u} but tilde expression gives {b_tilde}")

    c_v = 2.0 / (ms.kp2 * ms.k02 * ms.k12) * n[(0, 0, 1, 0)] * dv1010 / den
    d_v = 2.0 / (ms.kp1 * ms.k01 * ms.k12) * n[(0, 1, 1, 0)] * dv1110 / den

    big_a = -a_u + b_u
    big_b = a_u * ms.k2_sq - b_u * ms.k1_sq
    big_c = -c_v + d_v
    big_d = c_v * ms.k2_sq - d_v * ms.k1_sq
    det = big_a * big_d - big_b * big_c
    scale = max(abs(big_a * big_d), abs(big_b * big_c))
    if abs(det) <= 1e-12 * scale:
        raise SingularJacobian(f"AD - BC = {det} is numerically singular")
    return FlowConstants(
        a_u=a_u, b_u=b_u, c_v=c_v, d_v=d_v,
        A=big_a, B=big_b, C=big_c, D=big_d,
        P=-big_c / det, Q=-big_d / det, R=big_a / det, S=big_b / det,
        det=det,
    )


def _match_to_reference(ref: tuple[complex, complex], cand) -> tuple[complex, complex]:
    """Label an unordered pair consistently with a nearby reference pair."""
    a1, a2 = cand
    keep = abs(a1 - ref[0]) + abs(a2 - ref[1])
    swap = abs(a2 - ref[0]) + abs(a1 - ref[1])
    return (a1, a2) if keep <= swap else (a2, a1)


_STENCIL_SIZE = 5


def _stencil_points(point: Point2, h: float) -> list[Point2]:
    """The center, then (u +- h, v) and (u, v +- h)."""
    return [point] + [Point2(point.u + du, point.v + dv) for du, dv in _offsets(h)]


def _offsets(h: float):
    return ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))


def _pair_stencil(cd: CurveData, points, tables, h: float):
    """Center pair plus the four offset pairs matched to it, and the central differences.

    points are the five of _stencil_points, and tables holds what
    recover_pair reads at each (_pair_tables).  An error at the center is
    raised as it is; a PointError at an offset is raised as
    StencilCrossesDivisor.
    """
    ms = cd.moduli
    center = _pair_from_thetas(cd, ms, tables[0], points[0])
    ref = (center.x1, center.x2)

    matched = []
    for (du, dv), point, th in zip(_offsets(h), points[1:], tables[1:], strict=True):
        try:
            p = _pair_from_thetas(cd, ms, th, point)
        except PointError as exc:
            raise StencilCrossesDivisor(
                f"stencil point at offset ({du}, {dv}) failed: {exc}"
            ) from exc
        matched.append(_match_to_reference(ref, (p.x1, p.x2)))

    up, um, vp, vm = matched
    d_du = ((up[0] - um[0]) / (2 * h), (up[1] - um[1]) / (2 * h))
    d_dv = ((vp[0] - vm[0]) / (2 * h), (vp[1] - vm[1]) / (2 * h))
    return center, d_du, d_dv


def _flow_rows(fc: FlowConstants, center, d_du, d_dv) -> list[float]:
    x1, x2 = center.x1, center.x2
    dx = x2 - x1

    best = None
    for s in (1.0, -1.0):
        sg1, sg2 = s * center.sigma1, s * center.sigma2
        closed = (
            (fc.A + fc.B * x2) * sg1 / dx,
            -(fc.A + fc.B * x1) * sg2 / dx,
            (fc.C + fc.D * x2) * sg1 / dx,
            -(fc.C + fc.D * x1) * sg2 / dx,
        )
        fd = (d_du[0], d_du[1], d_dv[0], d_dv[1])
        res = [_rel(f, c) for f, c in zip(fd, closed)]
        if best is None or max(res) < max(best):
            best = res
    return best


def _abelian_rows(fc: FlowConstants, center, d_du, d_dv) -> list[float]:
    x1, x2 = center.x1, center.x2
    if center.sigma1 == 0 or center.sigma2 == 0:
        # a branch point of the pair, as at the collapsed root of a split tau
        raise SingularDenominator(f"sigma vanishes at the pair ({x1}, {x2})")

    best = None
    for s in (1.0, -1.0):
        sg1, sg2 = s * center.sigma1, s * center.sigma2
        du_rec = (fc.P + fc.Q * x1) * d_du[0] / sg1 + (fc.P + fc.Q * x2) * d_du[1] / sg2
        dv_rec = (fc.R + fc.S * x1) * d_dv[0] / sg1 + (fc.R + fc.S * x2) * d_dv[1] / sg2
        res = [abs(du_rec - 1.0), abs(dv_rec - 1.0)]
        if best is None or max(res) < max(best):
            best = res
    return best


def stencil_residuals(
    point: Point2,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
    h: float = 1e-5,
) -> tuple[list[float], list[float]]:
    """Flow and Abelian-differential residuals from one shared stencil.

    Returns (flow, abelian).  flow holds the relative residuals of the
    central finite differences of the pair against the closed-form flow
    equations, for dx1/du, dx2/du, dx1/dv and dx2/dv.  abelian holds
    |du - 1| and |dv - 1| for du and dv recovered from the same
    differences through the inverted system.  Both are minimized over the
    global sign of the sigma_i.  The Abelian residuals divide by sigma_i,
    so a pair at a branch point (sigma_i = 0) raises SingularDenominator.
    """
    return _stencils(curve_data(tau, ctrl), (point,), h)[0]


def _stencils(cd: CurveData, points, h: float) -> list[tuple[list[float], list[float]]]:
    """stencil_residuals at each point, (flow, abelian), with what recover_pair
    reads at every stencil point from one _pair_tables call."""
    fc = cd.flow_constants
    stencil_points = [s for point in points for s in _stencil_points(point, h)]
    tables = _pair_tables(cd, stencil_points)
    out = []
    for i in range(0, len(stencil_points), _STENCIL_SIZE):
        at = slice(i, i + _STENCIL_SIZE)
        stencil = _pair_stencil(cd, stencil_points[at], tables[at], h)
        out.append((_flow_rows(fc, *stencil), _abelian_rows(fc, *stencil)))
    return out


def _tables(chars, rows) -> list[dict]:
    """Key each point's row of per-characteristic results by c.bits."""
    bits = [c.bits for c in chars]
    return [dict(zip(bits, row)) for row in rows]


# characteristics the addition theorems read at p + q and p - q, and at p and q
_SHIFTED_CHARS = _chars((1, 0, 1, 1), (0, 0, 1, 1), (1, 0, 0, 1))
_ADDITION_CHARS = _chars(
    (1, 0, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0),
    (0, 0, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0), (0, 1, 1, 0),
)


def addition_formula_residuals(
    p: Point2, q: Point2, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> list[float]:
    """Residuals of the two four-point addition theorems at (p, q)."""
    return _addition_formulas(curve_data(tau, ctrl), ((p, q),))[0]


def _addition_formulas(cd: CurveData, pairs) -> list[list[float]]:
    """addition_formula_residuals at each (p, q): one values_at call for
    every p + q and p - q, one for every p and q."""
    shifted = [
        x for p, q in pairs for x in (Point2(p.u + q.u, p.v + q.v), Point2(p.u - q.u, p.v - q.v))
    ]
    points = [x for pq in pairs for x in pq]
    at_shifted = _tables(_SHIFTED_CHARS, cd.values_at(_SHIFTED_CHARS, shifted))
    at_points = _tables(_ADDITION_CHARS, cd.values_at(_ADDITION_CHARS, points))
    return [
        _addition_rows(cd.nulls, *at_shifted[i : i + 2], *at_points[i : i + 2])
        for i in range(0, len(at_points), 2)
    ]


def _addition_rows(n, plus, minus, tp, tq) -> list[float]:
    lhs1 = (
        n[(1, 0, 0, 1)]
        * n[(0, 0, 0, 1)]
        * (
            plus[(1, 0, 1, 1)] * minus[(0, 0, 1, 1)]
            - plus[(0, 0, 1, 1)] * minus[(1, 0, 1, 1)]
        )
    )
    rhs1 = 2.0 * (
        tp[(1, 0, 0, 0)]
        * tp[(0, 0, 0, 0)]
        * tq[(0, 0, 1, 0)]
        * tq[(1, 0, 1, 0)]
        - tp[(1, 1, 0, 0)]
        * tp[(0, 1, 0, 0)]
        * tq[(1, 1, 1, 0)]
        * tq[(0, 1, 1, 0)]
    )

    lhs2 = (
        n[(1, 0, 0, 1)]
        * n[(0, 0, 1, 1)]
        * (
            plus[(1, 0, 0, 1)] * minus[(0, 0, 1, 1)]
            - plus[(0, 0, 1, 1)] * minus[(1, 0, 0, 1)]
        )
    )
    rhs2 = 2.0 * (
        -tp[(0, 0, 0, 0)]
        * tp[(1, 0, 1, 0)]
        * tq[(0, 0, 0, 0)]
        * tq[(1, 0, 1, 0)]
        + tp[(0, 1, 0, 0)]
        * tp[(1, 1, 1, 0)]
        * tq[(0, 1, 0, 0)]
        * tq[(1, 1, 1, 0)]
    )
    return [_rel(lhs1, rhs1), _rel(lhs2, rhs2)]


# what the derivative formulas read at their point, values and gradients
# from one grid; the gradients of the first three enter the formulas
_DERIVATIVE_CHARS = _chars(
    (0, 0, 1, 1), (1, 0, 1, 1), (1, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 0),
    (1, 1, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0),
)


def derivative_formula_residuals(
    point: Point2, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> list[float]:
    """Residuals of the four closed forms for d/du, d/dv of two theta ratios.

    The derivative of theta[10;11]/theta[00;11] (and of theta[10;01]/theta[00;11])
    is evaluated through term-wise gradients and the quotient rule, and
    compared against products of nulls, null derivatives, and theta values.
    Both sides here are the quotient-rule numerators (derivative times the
    squared denominator), which avoids dividing by small values twice.
    """
    return _derivative_formulas(curve_data(tau, ctrl), (point,))[0]


def _derivative_formulas(cd: CurveData, points) -> list[list[float]]:
    """derivative_formula_residuals at each point, values and gradients from
    one grads_at call."""
    values, grads = cd.grads_at(_DERIVATIVE_CHARS, points)
    return [
        _derivative_rows(cd, th, g)
        for th, g in zip(_tables(_DERIVATIVE_CHARS, values), _tables(_DERIVATIVE_CHARS, grads))
    ]


def _derivative_rows(cd: CurveData, th: dict, g: dict) -> list[float]:
    n = cd.nulls
    ref = th[(0, 0, 1, 1)]
    scale = max(abs(n[(0, 0, 0, 0)]), abs(n[(0, 0, 1, 1)]))
    if abs(ref) <= 1e-10 * scale:
        raise SingularDenominator("theta[00;11] vanishes at the point")

    g1011, g1001, g0011 = g[(1, 0, 1, 1)], g[(1, 0, 0, 1)], g[(0, 0, 1, 1)]
    t1011 = th[(1, 0, 1, 1)]
    t1001 = th[(1, 0, 0, 1)]
    null_grads = cd.null_grads
    d1010 = null_grads[(1, 0, 1, 0)]
    d1110 = null_grads[(1, 1, 1, 0)]

    out = []
    for idx in (0, 1):
        lhs = n[(1, 0, 0, 1)] * n[(0, 0, 0, 1)] * (g1011[idx] * ref - t1011 * g0011[idx])
        rhs = (
            n[(0, 0, 1, 0)] * d1010[idx] * th[(1, 0, 0, 0)] * th[(0, 0, 0, 0)]
            - n[(0, 1, 1, 0)] * d1110[idx] * th[(1, 1, 0, 0)] * th[(0, 1, 0, 0)]
        )
        out.append(_rel(lhs, rhs))
    for idx in (0, 1):
        lhs = n[(1, 0, 0, 1)] * n[(0, 0, 1, 1)] * (g1001[idx] * ref - t1001 * g0011[idx])
        rhs = (
            -n[(0, 0, 0, 0)] * d1010[idx] * th[(0, 0, 0, 0)] * th[(1, 0, 1, 0)]
            + n[(0, 1, 0, 0)] * d1110[idx] * th[(0, 1, 0, 0)] * th[(1, 1, 1, 0)]
        )
        out.append(_rel(lhs, rhs))
    return out
