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

Moduli roots always come from a single ModuliSet, each signed as its
unsquared theta-null quotient (see moduli.build_moduli), so one sign
convention holds across all formulas.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import (
    CoincidentPoints,
    DivisionByZeroModulus,
    InvalidFactorIndex,
    SingularDenominator,
)
from .moduli import ModuliSet
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
    "CurveSpec",
    "SymmetricFunctions",
    "PointPair",
    "f5",
    "f_factor",
    "symmetric_functions",
    "recover_pair",
    "parameterization_residuals",
    "PARAMETERIZATION_LABELS",
]

_TH_REF = HalfCharacteristic(0, 0, 1, 1)  # reference denominator theta
# what recover_pair reads at its point: the reference, the two numerators of
# the symmetric functions, and the bracket that fixes the sign class
_PAIR_CHARS = (
    _TH_REF, HalfCharacteristic(1, 0, 1, 1), HalfCharacteristic(1, 0, 0, 1), HalfCharacteristic(0, 0, 0, 1)
)


@dataclass(frozen=True)
class CurveSpec:
    """Branch data of f5; the k_i^2 must be pairwise distinct and not 0 or 1."""

    k0_sq: complex
    k1_sq: complex
    k2_sq: complex


@dataclass(frozen=True)
class SymmetricFunctions:
    s1: complex  # x1 + x2
    s2: complex  # x1 * x2


@dataclass(frozen=True)
class PointPair:
    x1: complex
    x2: complex
    sigma1: complex
    sigma2: complex
    sign_flipped: bool  # True if the chosen class negates the principal sigma2


def f5(x: complex, curve: CurveSpec | ModuliSet) -> complex:
    return (
        x
        * (1.0 - x)
        * (1.0 - curve.k0_sq * x)
        * (1.0 - curve.k1_sq * x)
        * (1.0 - curve.k2_sq * x)
    )


def _linear_factor(i: int, x: complex, curve: CurveSpec | ModuliSet) -> complex:
    if i == 0:
        return x
    if i == 1:
        return 1.0 - x
    if i == 2:
        return 1.0 - curve.k0_sq * x
    if i == 3:
        return 1.0 - curve.k1_sq * x
    return 1.0 - curve.k2_sq * x


def f_factor(i: int, j: int, x: complex, curve: CurveSpec) -> complex:
    """F_ij(x): product of two of the five linear factors of f5.

    Index labels: 0 <-> x, 1 <-> (1-x), 2 <-> (1-k0^2 x), 3 <-> (1-k1^2 x),
    4 <-> (1-k2^2 x).
    """
    if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j <= 4):
        raise InvalidFactorIndex(f"need 0 <= i < j <= 4, got ({i}, {j})")
    return _factor_product(i, j, x, curve)


def _factor_product(i: int, j: int, x: complex, curve: CurveSpec | ModuliSet) -> complex:
    """f_factor without its index check, for the fixed indices of this module."""
    return _linear_factor(i, x, curve) * _linear_factor(j, x, curve)


def _reference_denominator(th: dict, point, cd: CurveData) -> complex:
    ref = th[_TH_REF]
    if abs(ref) <= 1e-10 * cd.null_scale:
        raise SingularDenominator(
            f"theta[00;11]({point.u}, {point.v}) ~ 0: point on the theta divisor"
        )
    return ref * ref


def _symmetric_from_thetas(ms: ModuliSet, th: dict, den: complex) -> SymmetricFunctions:
    kkk = ms.k0 * ms.k1 * ms.k2
    s2 = th[(1, 0, 1, 1)] ** 2 / (kkk * den)
    one_minus = -(ms.kp0 * ms.kp1 * ms.kp2 / kkk) * th[(1, 0, 0, 1)] ** 2 / den
    s1 = 1.0 + s2 - one_minus
    return SymmetricFunctions(s1=s1, s2=s2)


def symmetric_functions(
    point: Point2, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> SymmetricFunctions:
    cd = curve_data(tau, ctrl)
    ms = cd.moduli
    [th] = _pair_tables(cd, (point,))
    return _symmetric_from_thetas(ms, th, _reference_denominator(th, point, cd))


def _solve_pair(sf: SymmetricFunctions) -> tuple[complex, complex]:
    # roots of t^2 - s1 t + s2, larger-magnitude root first for stability
    disc = cmath.sqrt(sf.s1 * sf.s1 - 4.0 * sf.s2)
    big = (sf.s1 + disc) / 2.0
    alt = (sf.s1 - disc) / 2.0
    if abs(alt) > abs(big):
        big = alt
    other = sf.s2 / big if big != 0 else sf.s1 - big
    # canonical order: x1 has the larger real part, ties broken by imag part
    if (other.real, other.imag) > (big.real, big.imag):
        big, other = other, big
    return big, other


def _bracket_residual_terms(
    lhs_ratio: complex,
    pref: complex,
    fx1: complex,
    fx2: complex,
    x1: complex,
    x2: complex,
    sigma1: complex,
    sigma2: complex,
) -> tuple[complex, complex]:
    # denominator-cleared form of pref * F(x1)F(x2)/(x2-x1)^2 * (s1/F(x1)-s2/F(x2))^2,
    # regular when some F(x_i) = 0 (then also sigma_i = 0)
    lhs = lhs_ratio * fx1 * fx2 * (x2 - x1) ** 2
    rhs = pref * (sigma1 * fx2 - sigma2 * fx1) ** 2
    return lhs, rhs


def recover_pair(
    point: Point2, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> PointPair:
    cd = curve_data(tau, ctrl)
    ms = cd.moduli
    [th] = _pair_tables(cd, (point,))
    return _pair_from_thetas(cd, ms, th, point)


def _pair_tables(cd: CurveData, points) -> list[dict]:
    """What recover_pair reads at each point, keyed by characteristic, from one values_at call."""
    return [dict(zip(_PAIR_CHARS, values)) for values in cd.values_at(_PAIR_CHARS, points)]


def _pair_from_thetas(cd: CurveData, ms: ModuliSet, th: dict, point) -> PointPair:
    """recover_pair from theta values already evaluated at the point."""
    return _pair_at(ms, th, _reference_denominator(th, point, cd))


def _pair_at(ms: ModuliSet, th: dict, den: complex) -> PointPair:
    """_pair_from_thetas with the reference denominator already computed."""
    x1, x2 = _solve_pair(_symmetric_from_thetas(ms, th, den))
    if abs(x2 - x1) <= 1e-8 * (1.0 + abs(x1) + abs(x2)):
        raise CoincidentPoints(f"x1 ~ x2 ~ {x1}: sign resolution ill-posed")
    sigma1 = cmath.sqrt(f5(x1, ms))
    sigma2 = cmath.sqrt(f5(x2, ms))

    # resolve the essential sign class against one bracket parameterization
    lhs_ratio = th[(0, 0, 0, 1)] ** 2 / den
    pref = -1.0 / (ms.kp0 * ms.kp1 * ms.kp2)
    fx1 = _factor_product(0, 1, x1, ms)
    fx2 = _factor_product(0, 1, x2, ms)
    best_flip = False
    best_res = None
    for flip in (False, True):
        s2_signed = -sigma2 if flip else sigma2
        lhs, rhs = _bracket_residual_terms(
            lhs_ratio, pref, fx1, fx2, x1, x2, sigma1, s2_signed
        )
        res = _rel(lhs, rhs)
        if best_res is None or res < best_res:
            best_res = res
            best_flip = flip
    return PointPair(
        x1=x1,
        x2=x2,
        sigma1=sigma1,
        sigma2=-sigma2 if best_flip else sigma2,
        sign_flipped=best_flip,
    )


# (characteristic bits, F-factor indices or None, prefactor builder, polynomial builder)
def _parameterization_table(ms: ModuliSet):
    for name in ("kp0", "kp1", "kp2", "k01", "k02", "k12"):
        if getattr(ms, name) == 0:
            raise DivisionByZeroModulus(f"modulus {name} vanishes")
    k0, k1, k2 = ms.k0, ms.k1, ms.k2
    kp0, kp1, kp2 = ms.kp0, ms.kp1, ms.kp2
    k01, k02, k12 = ms.k01, ms.k02, ms.k12
    k0s, k1s, k2s = ms.k0_sq, ms.k1_sq, ms.k2_sq

    poly = [
        ((1, 0, 1, 1), k0 * k1 * k2, lambda x: x),
        ((1, 0, 0, 1), -k0 * k1 * k2 / (kp0 * kp1 * kp2), lambda x: 1.0 - x),
        ((0, 1, 0, 1), -k1 * k2 / (kp0 * k01 * k02), lambda x: 1.0 - k0s * x),
        ((0, 1, 0, 0), k0 * k2 / (kp1 * k01 * k12), lambda x: 1.0 - k1s * x),
        ((0, 0, 0, 0), k0 * k1 / (kp2 * k02 * k12), lambda x: 1.0 - k2s * x),
    ]
    bracket = [
        ((0, 0, 0, 1), (0, 1), -1.0 / (kp0 * kp1 * kp2)),
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
    return poly, bracket


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
    recovered by recover_pair.  Every row and the pair read one table of the
    sixteen theta values at the point, and the tables of all the points come
    from one values_at call.  The moduli table of the rows is built once.
    """
    ms = cd.moduli
    values = cd.values_at(ALL_CHARACTERISTICS, points)
    results, table = [], None
    for point, row in zip(points, values):
        th = dict(zip(ALL_CHARACTERISTICS, row))
        den = _reference_denominator(th, point, cd)
        pair = _pair_at(ms, th, den)
        if table is None:  # after the first pair, so a point error raises first
            table = _parameterization_table(ms)
        results.append((_parameterization_rows(cd, ms, th, den, pair, table), pair))
    return results


def _parameterization_rows(cd: CurveData, ms: ModuliSet, th: dict, den: complex, pair, table):
    x1, x2, sg1, sg2 = pair.x1, pair.x2, pair.sigma1, pair.sigma2
    poly, bracket = table

    out = [_rel(th[bits] ** 2 / den, pref * lin(x1) * lin(x2)) for bits, pref, lin in poly]
    for bits, (i, j), pref in bracket:
        lhs_ratio = th[bits] ** 2 / den
        fx1 = _factor_product(i, j, x1, ms)
        fx2 = _factor_product(i, j, x2, ms)
        lhs, rhs = _bracket_residual_terms(lhs_ratio, pref, fx1, fx2, x1, x2, sg1, sg2)
        out.append(_rel(lhs, rhs))
    nulls = cd.nulls
    for den_bits, terms in _UNIT_SUM_TERMS:
        den_sum = nulls[den_bits] ** 2 * den
        vals = [sign * nulls[nb] ** 2 * th[tb] ** 2 / den_sum for sign, nb, tb in terms]
        out.append(abs(sum(vals) - 1.0) / (1.0 + max(abs(t) for t in vals)))
    return out
