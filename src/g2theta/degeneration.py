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
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, a: int, b: int):
        if a not in (0, 1) or b not in (0, 1):
            raise ValueError("characteristic entries must be bits")
        return super().__new__(cls, a, b)

    @property
    def is_odd(self) -> bool:
        return self.a * self.b == 1

    def label(self) -> str:
        return f"{self.a}{self.b}"


class EllipticModulus(namedtuple("EllipticModulus", "k_sq kp_sq k kp")):
    """k = (theta[1;0]/theta[0;0])^2(0), k' = (theta[0;1]/theta[0;0])^2(0).

    k_sq + kp_sq = 1 is the quartic null identity; roots are principal.
    """

    __slots__ = ()


def _radii1(args, ctrl: SeriesControl) -> dict:
    """The truncation radius of the genus-1 series at each distinct (z, tau)
    of args: the genus-2 rule at (z, 0) with the decay rate Im tau, whose
    _decay is taken once per tau."""
    decay, radii = {}, {}
    for z, tau in args:
        if (z, tau) not in radii:
            if tau not in decay:
                decay[tau] = _decay(tau.imag, ctrl.tol)
            radii[z, tau] = _radius(Point2(z, 0j), *decay[tau], ctrl.max_radius)
    return radii


def _theta1_values(rows, ctrl: SeriesControl) -> list[complex]:
    """theta1 of each (characteristic, z, tau) row, in input order.

    The rows are evaluated on bounded grids of one radius each (_radii1),
    2N+1 terms a row (theta._by_grid).  Each term goes through the
    operations of the one-row series, i pi (tau m^2 + 2 m (z + b/2)) with
    m = k + a/2, in the same order, and each row is summed exactly, so a
    value does not depend on the other rows of its grid.
    """
    for _, _, tau in rows:
        if tau.imag <= 0:
            raise DegenerateTau(f"Im tau = {tau.imag} is not positive")
    radius = _radii1([(z, tau) for _, z, tau in rows], ctrl)
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


@lru_cache(maxsize=_NULL_CACHE_TAUS)
def _nulls1(tau: complex, ctrl: SeriesControl) -> Mapping[tuple[int, int], complex]:
    """All four theta[a; b](0), keyed by (a, b); one memoized evaluation per tau."""
    values = _theta1_values([(c, 0.0, tau) for c in _GENUS1_CHARS], ctrl)
    return MappingProxyType(dict(zip(_GENUS1_CHARS, values)))


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
    t = _theta1_values([(c, z, tau) for c in _GENUS1_CHARS], ctrl)
    sn, cn, dn = _jacobi(_nulls1(tau, ctrl), t, z)
    return sn, cn, dn, elliptic_modulus(tau, ctrl)


def _sn_ratio(nulls, t01: complex, t11: complex, z) -> complex:
    """x = theta[0;0](0) theta[1;1](z) / (theta[1;0](0) theta[0;1](z)) = -sn(2Kz)
    from t01, t11 at z; SingularDenominator where theta[0;1](z) vanishes."""
    n00 = nulls[0, 0]
    if abs(t01) <= 1e-10 * abs(n00):
        raise SingularDenominator(f"theta[0;1]({z}) vanishes")
    return (n00 * t11) / (nulls[1, 0] * t01)


def _jacobi(nulls, t, z) -> tuple[complex, complex, complex]:
    """sn, cn, dn from the nulls and the four theta1 values t at z, in
    _GENUS1_CHARS order."""
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    t00, t01, t10, t11 = t
    sn = -_sn_ratio(nulls, t01, t11, z)
    cn = (n01 * t10) / (n10 * t01)
    dn = (n01 * t00) / (n00 * t01)
    return sn, cn, dn


def elliptic_residuals(zs, tau: complex, ctrl: SeriesControl, h: float) -> list[list[float]]:
    """The seven residuals of the genus-1 theory at each theta argument z.

    In order: the three squared-theta identities and the null quartic, the
    Jacobi-function identities sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1, and
    the sn ODE (dx/du)^2 = (1 - x^2)(1 - k^2 x^2) with dx/du by a central
    difference of step h.  All the z read one genus-1 evaluation: the four
    values at each z, and theta1[0;1], theta1[1;1] at z + h and z - h.
    What depends on tau alone is taken once: the null quartic's row, the
    squared nulls that lead the identities' products, and 2K.
    """
    nulls = _nulls1(tau, ctrl)
    k_sq = elliptic_modulus(tau, ctrl).k_sq
    rows = []
    for z in zs:
        rows += [(c, z, tau) for c in _GENUS1_CHARS]
        rows += [(c, arg, tau) for arg in (z + h, z - h) for c in _ODE_CHARS]
    values = _theta1_values(rows, ctrl)
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    s00, s01, s10 = n00**2, n01**2, n10**2
    quartic = _rel(n00**4, n01**4 + n10**4)
    two_k = 2.0 * (math.pi / 2.0 * n00 * n00)  # u = 2Kz, K = (pi/2) theta^2[0;0](0)
    out = []
    for i, z in enumerate(zs):
        t00, t01, t10, t11 = t = values[8 * i : 8 * i + 4]
        q00, q01, q10, q11 = t00**2, t01**2, t10**2, t11**2
        sn, cn, dn = _jacobi(nulls, t, z)
        out.append([
            _rel(s00 * q00, s01 * q01 + s10 * q10),
            _rel(s00 * q11, s10 * q01 - s01 * q10),
            _rel(s00 * q01, s01 * q00 + s10 * q11),
            quartic,
            abs(sn * sn + cn * cn - 1.0),
            abs(dn * dn + k_sq * sn * sn - 1.0),
            _sn_ode(nulls, k_sq, two_k, values[8 * i + 4 : 8 * i + 8], z, -sn, h),
        ])
    return out


def _sn_ode(nulls, k_sq: complex, two_k: complex, stencil, z, x: complex, h: float) -> float:
    """Residual of (dx/du)^2 = (1 - x^2)(1 - k^2 x^2) at z, for x = -sn (_sn_ratio)
    there, with dx/du by a central difference of step h from theta1[0;1],
    theta1[1;1] at z + h, then at z - h (stencil).

    u = 2Kz, so dx/du = (dx/dz) / (2K), two_k.
    """
    x_plus = _sn_ratio(nulls, *stencil[:2], z + h)
    x_minus = _sn_ratio(nulls, *stencil[2:], z - h)
    dxdu = (x_plus - x_minus) / (2.0 * h) / two_k
    return _rel(dxdu * dxdu, (1.0 - x * x) * (1.0 - k_sq * x * x))


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
    read one values_at call and one genus-1 evaluation, and what the split
    curve gives every point, the collapse rows among it, is taken once.
    """
    cd = curve_data(PeriodMatrix(tau1, tau2, 0.0), ctrl)
    g2 = cd.values_at(ALL_CHARACTERISTICS, points)
    args = [(z, t) for point in points for z, t in ((point.u, tau1), (point.v, tau2))]
    g1 = _theta1_values([(c, z, t) for z, t in args for c in _GENUS1_CHARS], ctrl)
    nulls = _nulls1(tau1, ctrl)
    out, curve = [], None
    for i, (point, row) in enumerate(zip(points, g2)):
        pair = _pair_from_thetas(cd, dict(zip(ALL_CHARACTERISTICS, row)), point)[0]
        g1u, g1v = g1[8 * i : 8 * i + 4], g1[8 * i + 4 : 8 * i + 8]
        x = _sn_ratio(nulls, g1u[1], g1u[3], point.u)
        if curve is None:  # after the first point's pair and x, so its errors raise first
            curve = _split_curve_rows(cd.moduli)
        out.append((_degeneration_rows(curve, x, pair, row, g1u, g1v), pair))
    return out


def _split_curve_rows(ms):
    """What the rows of every point of the split curve share: k0^2, 1/k0^2,
    the prefactor k0^2/(1 - k0^2) that leads the complement product, and
    the two collapse rows."""
    k0sq = ms.k0_sq
    return k0sq, 1.0 / k0sq, k0sq / (1.0 - k0sq), [_rel(k0sq, ms.k1_sq), _rel(k0sq, ms.k2_sq)]


def _degeneration_rows(curve, x: complex, pair, g2, g1u, g1v) -> list[float]:
    """The rows of one point from x = -sn there, its pair, its sixteen
    genus-2 values g2, and its genus-1 values at u and at v, each in
    _GENUS1_CHARS order."""
    k0sq, inverse, complement, collapse = curve
    x1, x2 = pair.x1, pair.x2
    predicted = x * x
    direct = max(_rel(x1, predicted), _rel(x2, inverse))
    crossed = max(_rel(x1, inverse), _rel(x2, predicted))
    split = [
        _rel(value, g1u[2 * a + b] * g1v[2 * c + d])
        for (a, c, b, d), value in zip(ALL_CHARACTERISTICS, g2)
    ]
    return split + [
        _rel(k0sq * x1 * x2, predicted),
        _rel(complement * (1.0 - x1) * (1.0 - x2), -(1.0 - predicted)),
        _rel((1.0 - k0sq * x1) * (1.0 - k0sq * x2), 0.0),
        *collapse,
        min(direct, crossed),
    ]


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
