"""Genus-1 limit: theta splitting at tau12 = 0, Jacobi functions, elliptic integrals.

When the off-diagonal period vanishes the two-variable series factors,

    theta[a c; b d]((u, v); tau1, tau2, 0) = theta[a; b](u; tau1) theta[c; d](v; tau2),

the three moduli collapse to a single elliptic modulus, and the recovered
inversion pair (inversion._pair_from_thetas) becomes {x^2, 1/k0^2} with x
the theta-ratio form of -sn (_sn_ratio, which sn and the sn ODE read too).
This module certifies that entire chain plus the classical one-variable
theory it lands on: squared-theta identities, the sn differential equation,
and the complete-integral relation tau = iK'/K.

The checks are batched: degeneration_residuals takes a batch of points and
the diagonal (tau1, tau2) of the split period matrix, elliptic_residuals a
batch of theta arguments z and tau.  Each returns one result per item and
reads the theta values of the whole batch together.

Conventions: genus-1 characteristics are column vectors [a; b] with the odd
one [1; 1]; sn, cn, dn take the theta argument z with u = 2Kz, where
K = (pi/2) theta^2[0;0](0) links the two normalizations.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import (
    ConfigInvalid,
    DegenerateTau,
    SingularDenominator,
)
from .inversion import PointPair, _pair_from_thetas
from .quadrature import tanh_sinh_01
from .theta import (
    _NULL_CACHE_TAUS,
    ALL_CHARACTERISTICS,
    _by_grid,
    _decay,
    _radius,
    PeriodMatrix,
    Point2,
    SeriesControl,
    _rel,
    complex_row_sums,
    curve_data,
)

__all__ = [
    "Genus1Characteristic",
    "EllipticModulus",
    "theta1",
    "elliptic_modulus",
    "jacobi_functions",
    "elliptic_residuals",
    "degeneration_residuals",
    "complete_integral_residuals",
    "DEGENERATION_LABELS",
]


class Genus1Characteristic(namedtuple("Genus1Characteristic", "a b")):
    """Two bits [a; b]; equals and hashes as its bit tuple (a, b)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a not in (0, 1) or b not in (0, 1):
            raise ValueError("characteristic entries must be bits")
        return super().__new__(cls, a, b)

    @property
    def is_odd(self) -> bool:
        return self.a * self.b == 1

    def label(self) -> str:
        return f"{self.a}{self.b}"


@dataclass(frozen=True)
class EllipticModulus:
    """k = (theta[1;0]/theta[0;0])^2(0), k' = (theta[0;1]/theta[0;0])^2(0).

    k_sq + kp_sq = 1 is the quartic null identity; roots are principal.
    """

    k_sq: complex
    kp_sq: complex
    k: complex
    kp: complex


def _radius1(z: complex, tau: complex, ctrl: SeriesControl) -> int:
    """The truncation radius of the genus-1 series: the genus-2 rule at (z, 0)
    with the decay rate Im tau."""
    return _radius(Point2(z, 0j), *_decay(tau.imag, ctrl.tol), ctrl.max_radius)


def _theta1_values(rows, ctrl: SeriesControl) -> list[complex]:
    """theta1 of each (characteristic, z, tau) row, in input order.

    The rows are evaluated on bounded grids of one radius each (_radius1 of
    each distinct (z, tau)), 2N+1 terms a row (theta._by_grid).  Each term
    goes through the operations of the one-row series,
    i pi (tau m^2 + 2 m (z + b/2)) with m = k + a/2, in the same order, and
    each row is summed exactly, so a value does not depend on the other rows
    of its grid.
    """
    for _, _, tau in rows:
        if tau.imag <= 0:
            raise DegenerateTau(f"Im tau = {tau.imag} is not positive")
    # four characteristics share each (z, tau)
    radius = {key: _radius1(*key, ctrl) for key in dict.fromkeys((z, tau) for _, z, tau in rows)}
    radii = [radius[z, tau] for _, z, tau in rows]
    return _by_grid(
        radii, lambda n: 2 * n + 1, lambda n, idx: _theta1_grid([rows[i] for i in idx], n)
    )


def _theta1_grid(rows, n: int) -> list[complex]:
    """theta1 of rows that share the radius n, from one (R, 2n+1) grid."""
    half_a = np.array([c.a / 2.0 for c, _, _ in rows])[:, None]
    m = np.arange(-n, n + 1, dtype=float) + half_a
    taus = np.array([tau for _, _, tau in rows], dtype=complex)[:, None]
    shift = np.array([z + c.b / 2.0 for c, z, _ in rows], dtype=complex)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms raise below
        terms = np.exp(1j * math.pi * (taus * m * m + 2.0 * m * shift))
    return complex_row_sums(terms).tolist()


def theta1(
    c: Genus1Characteristic,
    z: complex,
    tau: complex,
    ctrl: SeriesControl = SeriesControl(),
) -> complex:
    """One-variable theta with half-integer characteristic [a; b]."""
    return _theta1_values([(c, z, tau)], ctrl)[0]


_GENUS1_CHARS = tuple(Genus1Characteristic(a, b) for a in (0, 1) for b in (0, 1))
_ODE_CHARS = (Genus1Characteristic(0, 1), Genus1Characteristic(1, 1))  # what x reads


def _theta1_table(z: complex, tau: complex, ctrl: SeriesControl) -> dict:
    """All four theta1[a; b](z), keyed by (a, b), from one grid."""
    return dict(zip(_GENUS1_CHARS, _theta1_values([(c, z, tau) for c in _GENUS1_CHARS], ctrl)))


@lru_cache(maxsize=_NULL_CACHE_TAUS)
def _nulls1(tau: complex, ctrl: SeriesControl) -> Mapping[tuple[int, int], complex]:
    """All four theta[a; b](0), keyed by (a, b); one memoized evaluation per tau."""
    return MappingProxyType(_theta1_table(0.0, tau, ctrl))


def elliptic_modulus(tau: complex, ctrl: SeriesControl = SeriesControl()) -> EllipticModulus:
    nulls = _nulls1(tau, ctrl)
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    k_sq = (n10 / n00) ** 4
    kp_sq = (n01 / n00) ** 4
    return EllipticModulus(
        k_sq=k_sq, kp_sq=kp_sq, k=cmath.sqrt(k_sq), kp=cmath.sqrt(kp_sq)
    )


def jacobi_functions(
    z: complex, tau: complex, ctrl: SeriesControl = SeriesControl()
) -> tuple[complex, complex, complex, EllipticModulus]:
    """sn, cn, dn at theta argument z (the sn argument is u = 2Kz)."""
    sn, cn, dn = _jacobi(_nulls1(tau, ctrl), _theta1_table(z, tau, ctrl), z)
    return sn, cn, dn, elliptic_modulus(tau, ctrl)


def _sn_ratio(nulls, t01: complex, t11: complex, z) -> complex:
    """x = theta[0;0](0) theta[1;1](z) / (theta[1;0](0) theta[0;1](z)) = -sn(2Kz)
    from t01, t11 at z; SingularDenominator where theta[0;1](z) vanishes."""
    n00 = nulls[0, 0]
    if abs(t01) <= 1e-10 * abs(n00):
        raise SingularDenominator(f"theta[0;1]({z}) vanishes")
    return (n00 * t11) / (nulls[1, 0] * t01)


def _jacobi(nulls, t, z) -> tuple[complex, complex, complex]:
    """sn, cn, dn from the nulls and the four theta1 values t at z."""
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    t00, t01, t10 = t[0, 0], t[0, 1], t[1, 0]
    sn = -_sn_ratio(nulls, t01, t[1, 1], z)
    cn = (n01 * t10) / (n10 * t01)
    dn = (n01 * t00) / (n00 * t01)
    return sn, cn, dn


def _identity_rows(nulls, t) -> list[float]:
    """Residuals of the three squared-theta identities and the null quartic."""
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    t00, t01, t10, t11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    return [
        _rel(n00**2 * t00**2, n01**2 * t01**2 + n10**2 * t10**2),
        _rel(n00**2 * t11**2, n10**2 * t01**2 - n01**2 * t10**2),
        _rel(n00**2 * t01**2, n01**2 * t00**2 + n10**2 * t11**2),
        _rel(n00**4, n01**4 + n10**4),
    ]


def elliptic_residuals(zs, tau: complex, ctrl: SeriesControl, h: float) -> list[list[float]]:
    """The seven residuals of the genus-1 theory at each theta argument z.

    In order: the three squared-theta identities and the null quartic, the
    Jacobi-function identities sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1, and
    the sn ODE (dx/du)^2 = (1 - x^2)(1 - k^2 x^2) with dx/du by a central
    difference of step h.  All the z read one genus-1 evaluation: the four
    values at each z, and theta1[0;1], theta1[1;1] at z + h and z - h.
    """
    nulls = _nulls1(tau, ctrl)
    mod = elliptic_modulus(tau, ctrl)
    rows = []
    for z in zs:
        rows += [(c, z, tau) for c in _GENUS1_CHARS]
        rows += [(c, arg, tau) for arg in (z + h, z - h) for c in _ODE_CHARS]
    values = _theta1_values(rows, ctrl)
    return [_elliptic_rows(nulls, mod, z, values[8 * i : 8 * i + 8], h) for i, z in enumerate(zs)]


def _elliptic_rows(nulls, mod: EllipticModulus, z, values, h: float) -> list[float]:
    t = dict(zip(_GENUS1_CHARS, values[:4]))
    sn, cn, dn = _jacobi(nulls, t, z)
    return _identity_rows(nulls, t) + [
        abs(sn * sn + cn * cn - 1.0),
        abs(dn * dn + mod.k_sq * sn * sn - 1.0),
        _sn_ode(nulls, mod, values[4:], z, -sn, h),
    ]


def _sn_ode(nulls, mod: EllipticModulus, stencil, z, x: complex, h: float) -> float:
    """Residual of (dx/du)^2 = (1 - x^2)(1 - k^2 x^2) at z, for x = -sn (_sn_ratio)
    there, with dx/du by a central difference of step h from theta1[0;1],
    theta1[1;1] at z + h, then at z - h (stencil).

    u = 2Kz with K = (pi/2) theta^2[0;0](0), so dx/du = (dx/dz) / (2K).
    """
    n00 = nulls[0, 0]
    big_k = math.pi / 2.0 * n00 * n00
    x_plus = _sn_ratio(nulls, *stencil[:2], z + h)
    x_minus = _sn_ratio(nulls, *stencil[2:], z - h)
    dxdu = (x_plus - x_minus) / (2.0 * h) / (2.0 * big_k)
    return _rel(dxdu * dxdu, (1.0 - x * x) * (1.0 - mod.k_sq * x * x))


DEGENERATION_LABELS = tuple(f"split-{c.label()}" for c in ALL_CHARACTERISTICS) + (
    "x1x2-product", "complement-product", "third-factor",
    "collapse-k1sq", "collapse-k2sq", "pair-match",
)


def degeneration_residuals(
    points, tau1: complex, tau2: complex, ctrl: SeriesControl
) -> list[tuple[list[float], PointPair]]:
    """At each point, the residuals in DEGENERATION_LABELS order and the pair
    recovered at tau12 = 0.

    The split-* rows are the relative gaps between the sixteen genus-2 values
    at tau12 = 0 and their genus-1 products at (u, tau1) and (v, tau2).  The
    others check the inversion at tau12 = 0 against the elliptic prediction
    {x^2, 1/k0^2}, x the theta-ratio form of -sn at theta argument u, so
    x^2 = sn^2(2Ku): the three symmetric-function relations, the collapse of
    the three moduli to one and the unordered pair match.  All the points
    read one values_at call and one genus-1 evaluation.
    """
    cd = curve_data(PeriodMatrix(tau1, tau2, 0.0), ctrl)
    g2 = cd.values_at(ALL_CHARACTERISTICS, points)
    args = [(z, t) for point in points for z, t in ((point.u, tau1), (point.v, tau2))]
    g1 = _theta1_values([(c, z, t) for z, t in args for c in _GENUS1_CHARS], ctrl)
    tables = [dict(zip(_GENUS1_CHARS, g1[i : i + 4])) for i in range(0, len(g1), 4)]
    nulls = _nulls1(tau1, ctrl)
    return [
        _degeneration_rows(cd, nulls, point, row, tables[2 * i], tables[2 * i + 1])
        for i, (point, row) in enumerate(zip(points, g2))
    ]


def _degeneration_rows(cd, nulls, point: Point2, g2, g1u, g1v):
    pair = _pair_from_thetas(cd, dict(zip(ALL_CHARACTERISTICS, g2)), point)[0]
    x1, x2 = pair.x1, pair.x2
    x = _sn_ratio(nulls, g1u[0, 1], g1u[1, 1], point.u)

    ms = cd.moduli
    k0sq = ms.k0_sq
    predicted = (x * x, 1.0 / k0sq)
    direct = max(_rel(x1, predicted[0]), _rel(x2, predicted[1]))
    crossed = max(_rel(x1, predicted[1]), _rel(x2, predicted[0]))
    split = [
        _rel(value, g1u[c.a, c.b] * g1v[c.c, c.d]) for c, value in zip(ALL_CHARACTERISTICS, g2)
    ]
    return split + [
        _rel(k0sq * x1 * x2, x * x),
        _rel((k0sq / (1.0 - k0sq)) * (1.0 - x1) * (1.0 - x2), -(1.0 - x * x)),
        _rel((1.0 - k0sq * x1) * (1.0 - k0sq * x2), 0.0),
        _rel(k0sq, ms.k1_sq),
        _rel(k0sq, ms.k2_sq),
        min(direct, crossed),
    ], pair


def complete_integral_residuals(
    tau: complex, ctrl: SeriesControl = SeriesControl()
) -> list[float]:
    """Check tau = iK'/K and theta^2[0;0](0) = 2K/pi by tanh-sinh quadrature.

    Restricted to purely imaginary tau with Im in [0.5, 3]: there the modulus
    is real in (0, 1) and the integrals are the classical real ones.
    """
    if abs(tau.real) > 1e-12 or not (0.5 <= tau.imag <= 3.0):
        raise ConfigInvalid(
            f"tau = {tau} must be purely imaginary with Im in [0.5, 3]"
        )
    mod = elliptic_modulus(tau, ctrl)
    m = mod.k_sq.real
    mp = mod.kp_sq.real

    def integrand(msq: float):
        def f(x: float, dist: float) -> float:
            omx2 = dist * (2.0 - dist) if x > 0.5 else 1.0 - x * x
            return 1.0 / math.sqrt(omx2 * (1.0 - msq * x * x))

        return f

    big_k = tanh_sinh_01(integrand(m))
    big_kp = tanh_sinh_01(integrand(mp))
    n00 = _nulls1(tau, ctrl)[0, 0]
    return [
        abs(1j * big_kp / big_k - tau) / (1.0 + abs(tau)),
        _rel(n00 * n00, 2.0 * big_k / math.pi),
    ]
