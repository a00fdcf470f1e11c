"""Jacobi inversion for the genus-2 curve: recover {x1, x2} from (u, v).

The symmetric functions of the unordered pair come from two theta ratios,

    x1*x2           = theta^2[10;11](u,v) / (k0 k1 k2 theta^2[00;11](u,v))
    (1-x1)(1-x2)    = -(k'0 k'1 k'2 / (k0 k1 k2))
                      * theta^2[10;01](u,v) / theta^2[00;11](u,v)

and x1 + x2 = 1 + x1*x2 - (1-x1)(1-x2).  The pair is then read off a
quadratic, and the square-root data sigma_i = sqrt(f5(x_i)) is resolved up
to the one essential sign class (simultaneous negation drops out of every
squared formula).  Fifteen theta-squared ratios are parameterized by the
pair; all are certified against the recovered data with one consistent
sign class.  recover_pair inverts one point on the curve of a period
matrix; parameterization_residuals takes the CurveData and a batch of
points, reads all sixteen theta values of the batch from one kernel call,
and gives each point's residuals with the pair recovered there.

One path turns theta values into a pair, _pair_from_thetas: recover_pair,
the parameterization rows, flow's stencil centers and the degeneration rows
all take it, and flow's stencil offsets, which read only x1 and x2, take
its first stage, _pair_xs.  Both read the four thetas of _PAIR_CHARS by
position: recover_pair and flow pass the kernel's rows as they are, the
parameterization and degeneration rows pick their four of sixteen once
(_pick_pair).  It computes the five linear factors of f5 once per
recovered x, in the order x, 1 - x, 1 - k0^2 x, 1 - k1^2 x, 1 - k2^2 x,
and from them f5, its square roots and the sign-class test inline, the
products the test's two residuals share once; the fifteen rows read the
factors by index, and every bracket row goes through one residual, _bracket.

Moduli roots always come from a single ModuliSet, each signed as its
unsquared theta-null quotient (see moduli.build_moduli), so one sign
convention holds across all formulas.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from operator import itemgetter

from .errors import (
    CoincidentPoints,
    DivisionByZeroModulus,
    SingularDenominator,
    TruncationOverflow,
)
from .theta import (
    ALL_CHARACTERISTICS,
    CurveData,
    HalfCharacteristic,
    PeriodMatrix,
    Point2,
    SeriesControl,
    _rel,
    curve_data,
)

__all__ = [
    "PointPair",
    "recover_pair",
    "parameterization_residuals",
    "PARAMETERIZATION_LABELS",
]

# what recover_pair reads at its point: the reference denominator theta[00;11],
# the two numerators of the symmetric functions, and the bracket that fixes the sign class
_PAIR_CHARS = tuple(HalfCharacteristic(*bits) for bits in ((0, 0, 1, 1), (1, 0, 1, 1), (1, 0, 0, 1), (0, 0, 0, 1)))
# each characteristic's position in a row of the sixteen values (ALL_CHARACTERISTICS
# order), and the pair's four of such a row
_POSITION = {c: i for i, c in enumerate(ALL_CHARACTERISTICS)}
_pick_pair = itemgetter(*map(_POSITION.get, _PAIR_CHARS))


class PointPair(namedtuple("PointPair", "x1 x2 sigma1 sigma2 sign_flipped")):
    """The pair (x_i, sigma_i) on the curve; sign_flipped is True if the
    chosen class negates the principal sigma2."""

    __slots__ = ()


def _bracket(ratio, pref, f1, f2, gap, sigma1, sigma2) -> float:
    """_rel of ratio = pref F(x1)F(x2)/(x2-x1)^2 (sigma1/F(x1) - sigma2/F(x2))^2
    with denominators cleared, for f_i = F(x_i), F = F_ij, and gap = (x2-x1)^2:
    regular when some F(x_i) = 0 (then also sigma_i = 0)."""
    return _rel(ratio * f1 * f2 * gap, pref * (sigma1 * f2 - sigma2 * f1) ** 2)


def recover_pair(
    point: Point2, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> PointPair:
    """The pair at point = (u, v) on the curve of tau, a PointPair: x1 has the
    larger real part (ties broken by the imaginary part), sigma_i^2 = f5(x_i),
    and the sign class is the one the bracket of F_01 fits best.  It reads
    the four thetas of _PAIR_CHARS at the point from one kernel call on
    curve_data(tau, ctrl), its one-point row (theta._point_row: the point's
    terms from its factors, certified once on Python floats).  Raises
    SingularDenominator on the theta divisor, CoincidentPoints where
    x1 ~ x2, DivisionByZeroModulus where k0 k1 k2, or k0 k1 k2 times the
    squared reference theta, is 0 (an underflow too), and TruncationOverflow
    past max_radius or where the pair's arithmetic leaves double range (the
    CLI exits 2 for each), and DegenerateTau where the moduli do not exist
    (exit 3).  So a pair is finite.  Each theta is the correctly rounded sum of
    its series, alone or in any batch, so the pair's bits are a function of
    (point, tau, ctrl), as the parameterization and stencil rows read it.
    """
    cd = curve_data(tau, ctrl)
    return _pair_from_thetas(cd, cd.values_at(_PAIR_CHARS, (point,))[0], point)[0]


def _pair_tables(cd: CurveData, points) -> list[list[complex]]:
    """What recover_pair reads at each point, in _PAIR_CHARS order, from one values_at call."""
    return cd.values_at(_PAIR_CHARS, points)


def _pair_xs(cd: CurveData, th, point) -> tuple[complex, complex, complex]:
    """The first stage of _pair_from_thetas: x1 and x2 at the point, and the
    squared reference theta den, with the errors of a point the pair is not
    defined at.  Flow's offset stencil pairs read no more than this."""
    ref, num, comp, _ = th
    try:
        if abs(ref) <= 1e-10 * cd.null_scale:
            raise SingularDenominator(f"theta[00;11]({point.u}, {point.v}) ~ 0: point on the theta divisor")
        den = ref * ref
        # s1 = x1 + x2 and s2 = x1 x2 from the symmetric_factors
        kkk, factor = cd.symmetric_factors
        if not (kkk_den := kkk * den):  # as when the product underflows
            raise DivisionByZeroModulus("k0 k1 k2 theta[00;11]^2 = 0 in a denominator")
        s2 = num**2 / kkk_den
        s1 = 1.0 + s2 - factor * comp**2 / den
        # roots of t^2 - s1 t + s2, larger-magnitude root first for stability
        disc = cmath.sqrt(s1 * s1 - 4.0 * s2)
        x1 = (s1 + disc) / 2.0
        alt = (s1 - disc) / 2.0
        if abs(alt) > abs(x1):
            x1 = alt
        x2 = s2 / x1 if x1 != 0 else s1 - x1
        # canonical order: x1 has the larger real part, ties broken by imag part
        if (x2.real, x2.imag) > (x1.real, x1.imag):
            x1, x2 = x2, x1
        scale = 1.0 + abs(x1) + abs(x2)
    except OverflowError as exc:
        raise _overflow(point, exc) from exc
    if not scale < math.inf:  # x1 or x2 is not finite
        raise _overflow(point, "x1 or x2 is not finite")
    if abs(x2 - x1) <= 1e-8 * scale:
        raise CoincidentPoints(f"x1 ~ x2 ~ {x1}: sign resolution ill-posed")
    return x1, x2, den


def _overflow(point, why) -> TruncationOverflow:
    """The error of a pair whose arithmetic left double range."""
    return TruncationOverflow(f"the pair at ({point.u}, {point.v}) left double range: {why}")


def _pair_from_thetas(cd: CurveData, th, point) -> tuple[PointPair, complex, tuple]:
    """The PointPair at the point from its four theta values th, in
    _PAIR_CHARS order, with the squared reference theta den that the ratios
    divide by and the linear factors of f5 at x1 and at x2, x, 1 - x and
    1 - k_i^2 x for i = 0, 1, 2, which the parameterization rows read.  Of
    the moduli only k0 k1 k2 and k'0 k'1 k'2 enter, so a pair is recovered
    where some k_ij vanish.  x1 and x2 come from _pair_xs; the sigma_i and
    their sign class are this stage's.  Where a value on the way leaves
    double range it raises TruncationOverflow, so a pair is finite and its
    sign class was chosen on finite values."""
    ms = cd.moduli
    x1, x2, den = _pair_xs(cd, th, point)
    k0, k1, k2 = ms.k0_sq, ms.k1_sq, ms.k2_sq
    lin1 = (x1, 1.0 - x1, 1.0 - k0 * x1, 1.0 - k1 * x1, 1.0 - k2 * x1)
    lin2 = (x2, 1.0 - x2, 1.0 - k0 * x2, 1.0 - k1 * x2, 1.0 - k2 * x2)
    # f5 multiplied left to right
    sigma1 = cmath.sqrt(x1 * lin1[1] * lin1[2] * lin1[3] * lin1[4])
    sigma2 = cmath.sqrt(x2 * lin2[1] * lin2[2] * lin2[3] * lin2[4])

    # resolve the essential sign class against the bracket row of F_01 = x (1-x)
    # (_bracket of each class, the products both share once): negate sigma2
    # only when that fits strictly better.  The sigma_i enter both classes'
    # sizes, so finite sizes mean finite sigma_i.
    f1, f2, pref = x1 * lin1[1], x2 * lin2[1], cd.bracket_prefactor
    try:
        lhs = th[3] ** 2 / den * f1 * f2 * (x2 - x1) ** 2
        size, s1f2 = abs(lhs), sigma1 * f2
        principal, negated = pref * (s1f2 - sigma2 * f1) ** 2, pref * (s1f2 - -sigma2 * f1) ** 2
        p_size, n_size = abs(principal), abs(negated)
    except OverflowError as exc:
        raise _overflow(point, exc) from exc
    if not (size < math.inf and p_size < math.inf and n_size < math.inf):
        raise _overflow(point, "the sign class test is not finite")
    flipped = abs(lhs - negated) / (1.0 + (n_size if n_size > size else size)) < abs(lhs - principal) / (
        1.0 + (p_size if p_size > size else size)
    )
    return PointPair(x1, x2, sigma1, -sigma2 if flipped else sigma2, flipped), den, (lin1, lin2)


def _parameterization_table(cd: CurveData):
    """(theta, prefactor) of the polynomial rows, row i reading linear factor i,
    (theta, F-factor indices, prefactor) of the bracket rows, and of each unit
    sum its null square and (signed null square, theta) per term: the
    left-most factors of its products, once per batch.  Each theta is the
    position of its bits in a row of the sixteen values."""
    ms = cd.moduli
    for name in ("kp0", "kp1", "kp2", "k01", "k02", "k12"):
        if getattr(ms, name) == 0:
            raise DivisionByZeroModulus(f"modulus {name} vanishes")
    k0, k1, k2, kp0, kp1, kp2, k01, k02, k12 = ms[9:]
    kkk = cd.symmetric_factors[0]

    poly = [
        ((1, 0, 1, 1), kkk),
        ((1, 0, 0, 1), -kkk / (kp0 * kp1 * kp2)),
        ((0, 1, 0, 1), -k1 * k2 / (kp0 * k01 * k02)),
        ((0, 1, 0, 0), k0 * k2 / (kp1 * k01 * k12)),
        ((0, 0, 0, 0), k0 * k1 / (kp2 * k02 * k12)),
    ]
    bracket = [
        ((0, 0, 0, 1), (0, 1), cd.bracket_prefactor),
        ((0, 1, 1, 1), (3, 4), k1 * k2 / (kp1 * kp2 * k01 * k02)),
        ((0, 1, 1, 0), (2, 4), -k0 * k2 / (kp0 * kp2 * k01 * k12)),
        ((0, 0, 1, 0), (2, 3), -k0 * k1 / (kp0 * kp1 * k02 * k12)),
        ((1, 1, 1, 1), (1, 2), k0 / (kp1 * kp2 * k01 * k02)),
        ((1, 1, 1, 0), (1, 3), -k1 / (kp0 * kp2 * k01 * k12)),
        ((1, 0, 1, 0), (1, 4), -k2 / (kp0 * kp1 * k02 * k12)),
        ((1, 1, 0, 1), (0, 2), -k0 / (kp0 * k01 * k02)),
        ((1, 1, 0, 0), (0, 3), k1 / (kp1 * k01 * k12)),
        ((1, 0, 0, 0), (0, 4), k2 / (kp2 * k02 * k12)),
    ]
    null_sq, at = cd.null_squares, _POSITION.get
    unit = [
        (null_sq[den_bits], *[(sign * null_sq[nb], at(tb)) for sign, nb, tb in terms])
        for den_bits, terms in _UNIT_SUM_TERMS
    ]
    return [(at(bits), pref) for bits, pref in poly], [(at(bits), *rest) for bits, *rest in bracket], unit


# the three decompositions of unity tying parameterizations 1..5 together:
# 1 = sum of three signed null-weighted theta-squared ratios, one per k_i;
# each term is (sign, null bits, theta bits), after the null of the sum
_UNIT_SUM_TERMS = (
    ((1, 0, 0, 1), ((1, (0, 0, 0, 1), (1, 0, 1, 1)), (1, (0, 0, 1, 1), (1, 0, 0, 1)), (-1, (1, 1, 1, 1), (0, 1, 0, 1)))),
    ((1, 0, 0, 0), ((1, (0, 0, 0, 0), (1, 0, 1, 1)), (1, (0, 0, 1, 0), (1, 0, 0, 1)), (1, (1, 1, 1, 1), (0, 1, 0, 0)))),
    ((1, 1, 0, 0), ((1, (0, 1, 0, 0), (1, 0, 1, 1)), (1, (0, 1, 1, 0), (1, 0, 0, 1)), (1, (1, 1, 1, 1), (0, 0, 0, 0)))),
)

PARAMETERIZATION_LABELS = tuple(f"param-{i:02d}" for i in range(1, 16)) + tuple(
    f"unit-sum-{i}" for i in range(1, 4)
)


def parameterization_residuals(cd: CurveData, points) -> list[tuple[list[float], PointPair]]:
    """At each point, the residuals in PARAMETERIZATION_LABELS order and the
    pair recovered there.

    The residuals are relative: those of the 15 theta-squared ratio
    parameterizations, then of the three theta identities expressing 1 as a
    signed sum.

    Residuals 1-5 compare the ratio against a moduli prefactor times a
    symmetric polynomial in (x1, x2); 6-15 are the square-root bracket
    forms, evaluated with denominators cleared so that points where a
    linear factor vanishes stay regular.  All use the single sign class
    recovered by recover_pair.  Every row and the pair read one row of the
    sixteen theta values at the point, the pair its four of _PAIR_CHARS, and
    the rows of all the points come from one values_at call.  The moduli
    prefactors and the unit sums' null factors are taken once per batch
    (_parameterization_table).
    """
    values = cd.values_at(ALL_CHARACTERISTICS, points)
    results, table = [], None
    for point, th in zip(points, values):
        pair, den, factors = _pair_from_thetas(cd, _pick_pair(th), point)
        if table is None:  # after the first pair, so a point error raises first
            table = _parameterization_table(cd)
        results.append((_parameterization_rows(th, den, pair, factors, table), pair))
    return results


def _parameterization_rows(th: list, den: complex, pair: PointPair, factors, table):
    """The rows of one point, th its sixteen values.  Each unit sum's terms are summed left to
    right from an int 0, and its scale's max taken over the three, as sum()
    and max() did."""
    poly, bracket, unit = table
    (l1, l2), gap, sg1, sg2 = factors, (pair.x2 - pair.x1) ** 2, pair.sigma1, pair.sigma2
    out = [_rel(th[bits] ** 2 / den, pref * l1[i] * l2[i]) for i, (bits, pref) in enumerate(poly)]
    out += [
        _bracket(th[bits] ** 2 / den, pref, l1[i] * l1[j], l2[i] * l2[j], gap, sg1, sg2)
        for bits, (i, j), pref in bracket
    ]
    for null_sq, (w1, t1), (w2, t2), (w3, t3) in unit:
        den_sum = null_sq * den
        v1, v2, v3 = w1 * th[t1] ** 2 / den_sum, w2 * th[t2] ** 2 / den_sum, w3 * th[t3] ** 2 / den_sum
        out.append(abs(0 + v1 + v2 + v3 - 1.0) / (1.0 + max(abs(v1), abs(v2), abs(v3))))
    return out
