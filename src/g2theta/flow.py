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
recovered pair, the center pair read off its theta values by
inversion._pair_from_thetas, the one path from theta values to a pair,
and each offset's x1 and x2 by its first stage, inversion._pair_xs.
The sigma_i carry one essential overall sign (the class choice of
recover_pair is only fixed up to simultaneous negation by the squared
parameterizations), so residuals are minimized over that single global
sign; the relative sign between sigma1 and sigma2 is fixed and meaningful,
and a wrong relative sign fails loudly.

Derivative nulls are always term-wise differentiated series, never finite
differences; the finite-difference noise budget is reserved for the outer
comparisons.

Each check takes the CurveData of the period matrix and a batch (points,
or (p, q) pairs for the addition theorems) and returns one result per
item.  The theta values of the whole batch come from one kernel call, and
no result depends on which items share a batch.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    PointError,
    SingularDenominator,
    SingularJacobian,
    StencilCrossesDivisor,
    TildeMismatch,
)
from .inversion import _pair_from_thetas, _pair_tables, _pair_xs
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


class FlowConstants(namedtuple("FlowConstants", "a_u b_u c_v d_v A B C D P Q R S det")):
    __slots__ = ()


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
    recover_pair reads at each (_pair_tables).  The offsets' x1 and x2 come
    from the first stage of the pair path (inversion._pair_xs), without the
    sigma_i and sign class they do not read.  An error at the center is
    raised as it is; a PointError at an offset is raised as
    StencilCrossesDivisor.
    """
    center = _pair_from_thetas(cd, tables[0], points[0])[0]
    ref = (center.x1, center.x2)

    matched = []
    for (du, dv), point, th in zip(_offsets(h), points[1:], tables[1:], strict=True):
        try:
            x1, x2, _ = _pair_xs(cd, th, point)
        except PointError as exc:
            raise StencilCrossesDivisor(
                f"stencil point at offset ({du}, {dv}) failed: {exc}"
            ) from exc
        matched.append(_match_to_reference(ref, (x1, x2)))

    up, um, vp, vm = matched
    d_du = ((up[0] - um[0]) / (2 * h), (up[1] - um[1]) / (2 * h))
    d_dv = ((vp[0] - vm[0]) / (2 * h), (vp[1] - vm[1]) / (2 * h))
    return center, d_du, d_dv


def _flow_rows(fc: FlowConstants, center, d_du, d_dv) -> list[float]:
    x1, x2, sigma1, sigma2, _ = center
    A, B, C, D = fc[4:8]
    dx = x2 - x1

    best = None
    for s in (1.0, -1.0):
        sg1, sg2 = s * sigma1, s * sigma2
        closed = (
            (A + B * x2) * sg1 / dx,
            -(A + B * x1) * sg2 / dx,
            (C + D * x2) * sg1 / dx,
            -(C + D * x1) * sg2 / dx,
        )
        fd = (d_du[0], d_du[1], d_dv[0], d_dv[1])
        res = [_rel(f, c) for f, c in zip(fd, closed)]
        if best is None or max(res) < max(best):
            best = res
    return best


def _abelian_rows(fc: FlowConstants, center, d_du, d_dv) -> list[float]:
    x1, x2, sigma1, sigma2, _ = center
    P, Q, R, S = fc[8:12]
    small, large = sorted((abs(sigma1), abs(sigma2)))
    if small <= 1e-10 * large:
        # a branch point of the pair, as at the collapsed root of a split tau
        raise SingularDenominator(f"sigma vanishes at the pair ({x1}, {x2})")

    best = None
    for s in (1.0, -1.0):
        sg1, sg2 = s * sigma1, s * sigma2
        du_rec = (P + Q * x1) * d_du[0] / sg1 + (P + Q * x2) * d_du[1] / sg2
        dv_rec = (R + S * x1) * d_dv[0] / sg1 + (R + S * x2) * d_dv[1] / sg2
        res = [abs(du_rec - 1.0), abs(dv_rec - 1.0)]
        if best is None or max(res) < max(best):
            best = res
    return best


def stencil_residuals(cd: CurveData, points, h: float) -> list[tuple[list[float], list[float]]]:
    """Flow and Abelian-differential residuals at each point, each from one
    shared stencil of step h.

    Returns (flow, abelian) per point.  flow holds the relative residuals of
    the central finite differences of the pair against the closed-form flow
    equations, for dx1/du, dx2/du, dx1/dv and dx2/dv.  abelian holds
    |du - 1| and |dv - 1| for du and dv recovered from the same
    differences through the inverted system.  Both are minimized over the
    global sign of the sigma_i.  The Abelian residuals divide by sigma_i,
    so a pair at a branch point, one |sigma_i| at most 1e-10 times the
    other, raises SingularDenominator.  What recover_pair reads at every
    stencil point comes from one _pair_tables call.
    """
    fc = cd.flow_constants
    stencil_points = [s for point in points for s in _stencil_points(point, h)]
    tables = _pair_tables(cd, stencil_points)
    out = []
    for i in range(0, len(stencil_points), _STENCIL_SIZE):
        at = slice(i, i + _STENCIL_SIZE)
        stencil = _pair_stencil(cd, stencil_points[at], tables[at], h)
        out.append((_flow_rows(fc, *stencil), _abelian_rows(fc, *stencil)))
    return out


# characteristics the addition theorems read at p + q and p - q, and at p and q
_SHIFTED_CHARS = _chars((1, 0, 1, 1), (0, 0, 1, 1), (1, 0, 0, 1))
_ADDITION_CHARS = _chars(
    (1, 0, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0),
    (0, 0, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0), (0, 1, 1, 0),
)


def addition_formula_residuals(cd: CurveData, pairs) -> list[list[float]]:
    """Residuals of the two four-point addition theorems at each (p, q): one
    values_at call for every p + q and p - q, one for every p and q.  The
    null products that lead each left-hand side are taken once per batch."""
    shifted = [
        x for p, q in pairs for x in (Point2(p.u + q.u, p.v + q.v), Point2(p.u - q.u, p.v - q.v))
    ]
    points = [x for pq in pairs for x in pq]
    at_shifted = cd.values_at(_SHIFTED_CHARS, shifted)
    at_points = cd.values_at(_ADDITION_CHARS, points)
    n = cd.nulls
    lhs_nulls = (n[(1, 0, 0, 1)] * n[(0, 0, 0, 1)], n[(1, 0, 0, 1)] * n[(0, 0, 1, 1)])
    return [
        _addition_rows(lhs_nulls, *at_shifted[i : i + 2], *at_points[i : i + 2])
        for i in range(0, len(at_points), 2)
    ]


def _addition_rows(lhs_nulls, plus, minus, tp, tq) -> list[float]:
    """The two residuals at one (p, q) from the _SHIFTED_CHARS values at
    p + q and p - q and the _ADDITION_CHARS values at p and q."""
    n1, n2 = lhs_nulls
    s1011, s0011, s1001 = plus
    d1011, d0011, d1001 = minus
    p1000, p0000, p1100, p0100, p0010, p1010, p1110, p0110 = tp
    q1000, q0000, q1100, q0100, q0010, q1010, q1110, q0110 = tq
    lhs1 = n1 * (s1011 * d0011 - s0011 * d1011)
    rhs1 = 2.0 * (p1000 * p0000 * q0010 * q1010 - p1100 * p0100 * q1110 * q0110)
    lhs2 = n2 * (s1001 * d0011 - s0011 * d1001)
    rhs2 = 2.0 * (-p0000 * p1010 * q0000 * q1010 + p0100 * p1110 * q0100 * q1110)
    return [_rel(lhs1, rhs1), _rel(lhs2, rhs2)]


# what the derivative formulas read at their point: the values of all nine,
# and the gradients of the first three, which enter the formulas
_DERIVATIVE_CHARS = _chars(
    (0, 0, 1, 1), (1, 0, 1, 1), (1, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 0),
    (1, 1, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0),
)


def derivative_formula_residuals(cd: CurveData, points) -> list[list[float]]:
    """Residuals at each point of the four closed forms for d/du, d/dv of
    two theta ratios.

    The derivative of theta[10;11]/theta[00;11] (and of theta[10;01]/theta[00;11])
    is evaluated through term-wise gradients and the quotient rule, and
    compared against products of nulls, null derivatives, and theta values.
    Both sides here are the quotient-rule numerators (derivative times the
    squared denominator), which avoids dividing by small values twice.
    Values and the three gradients the formulas read come from one grid
    request; the null and null-derivative products that lead each side are
    taken once per batch.
    """
    n = cd.nulls
    d1010, d1110 = cd.null_grads[(1, 0, 1, 0)], cd.null_grads[(1, 1, 1, 0)]
    scale = max(abs(n[(0, 0, 0, 0)]), abs(n[(0, 0, 1, 1)]))
    lhs_nulls = (n[(1, 0, 0, 1)] * n[(0, 0, 0, 1)], n[(1, 0, 0, 1)] * n[(0, 0, 1, 1)])
    # per derivative (d/du, then d/dv), the leading factors of the rhs terms
    rhs_nulls = [
        (n[(0, 0, 1, 0)] * d1010[i], n[(0, 1, 1, 0)] * d1110[i], -n[(0, 0, 0, 0)] * d1010[i], n[(0, 1, 0, 0)] * d1110[i])
        for i in (0, 1)
    ]
    rows = cd.rows_at(_DERIVATIVE_CHARS, _DERIVATIVE_CHARS[:3], points)
    return [_derivative_rows(scale, lhs_nulls, rhs_nulls, row) for row in rows]


def _derivative_rows(scale: float, lhs_nulls, rhs_nulls, row) -> list[float]:
    """The four residuals at one point from its row: the _DERIVATIVE_CHARS
    values, then d/du and d/dv of the first three."""
    ref, t1011, t1001, t1000, t0000, t1100, t0100, t1010, t1110 = row[:9]
    if abs(ref) <= 1e-10 * scale:
        raise SingularDenominator("theta[00;11] vanishes at the point")
    grads = (row[9:12], row[12:15])  # (theta[00;11], theta[10;11], theta[10;01]) per derivative
    n1, n2 = lhs_nulls
    out = [
        _rel(n1 * (g1011 * ref - t1011 * g0011), a * t1000 * t0000 - b * t1100 * t0100)
        for (g0011, g1011, _), (a, b, _, _) in zip(grads, rhs_nulls)
    ]
    out += [
        _rel(n2 * (g1001 * ref - t1001 * g0011), c * t0000 * t1010 + d * t0100 * t1110)
        for (g0011, _, g1001), (_, _, c, d) in zip(grads, rhs_nulls)
    ]
    return out
