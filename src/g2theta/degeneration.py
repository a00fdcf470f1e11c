"""Genus-1 limit: theta splitting at tau12 = 0, Jacobi functions, elliptic integrals.

When the off-diagonal period vanishes the two-variable series factors,

    theta[a c; b d]((u, v); tau1, tau2, 0) = theta[a; b](u; tau1) theta[c; d](v; tau2),

the three moduli collapse to a single elliptic modulus, and the recovered
inversion pair (inversion._pair_from_thetas) becomes {x^2, 1/k0^2} with x
the theta-ratio form of -sn (_sn_ratio, which sn and the sn ODE read too).
This module certifies that entire chain plus the classical one-variable
theory it lands on: squared-theta identities, the sn differential equation,
and the complete-integral relation tau = iK'/K.

The checks are batched and take their per-tau data as arguments, as the
genus-2 checks take a CurveData: degeneration_residuals the CurveData of
the split period matrix, the Genus1Data of its tau1 and of its tau2 and a
batch of points, elliptic_residuals the Genus1Data of a tau and a batch
of theta arguments z, and complete_integral_residuals the Genus1Data of a
tau.  Each returns one result per item and reads the theta values of the
whole batch together.  A Genus1Data keeps the nulls of its tau and the
squared modulus k^2 and its complement k'^2, an EllipticModulus, that
come from them.  Genus 1 has no kernel of its own: Genus1Data is theta's
kernel driver on the boxes (N, 0) of diag(t, t), so the splitting rows
compare a square-box sum with two (N, 0) sums.

Conventions: genus-1 characteristics are column vectors [a; b] with the odd
one [1; 1]; sn, cn, dn take the theta argument z with u = 2Kz, where
K = (pi/2) theta^2[0;0](0) links the two normalizations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from .errors import ConfigInvalid, SingularDenominator
from .inversion import PointPair, _pair_from_thetas, _pick_pair
from .quadrature import tanh_sinh_01
from .theta import (
    ALL_CHARACTERISTICS,
    CurveData,
    HalfCharacteristic,
    PeriodMatrix,
    Point2,
    SeriesControl,
    _Kernel,
    _rel,
)

__all__ = [
    "Genus1Characteristic",
    "EllipticModulus",
    "Genus1Data",
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


class EllipticModulus(namedtuple("EllipticModulus", "k_sq kp_sq")):
    """k^2 = (theta[1;0]/theta[0;0])^4(0), k'^2 = (theta[0;1]/theta[0;0])^4(0).

    k_sq + kp_sq = 1 is the quartic null identity.
    """

    __slots__ = ()


_GENUS1_CHARS = tuple(Genus1Characteristic(a, b) for a in (0, 1) for b in (0, 1))


class Genus1Data(_Kernel):
    """What the genus-1 thetas of one tau share at every theta argument z:
    theta[a; b](z, tau) is theta[a 0; b 0]((z, 0); diag(tau, tau)), summed
    over the box (N, 0), whose terms are those of the one-variable series.
    self.tau is diag(tau, tau), validated on construction; rows_at and
    values_at take genus-1 characteristics and z, a gradient being d/dz.
    Built on first read and then kept: nulls, all four theta[a; b](0) keyed
    by (a, b), the odd [1; 1] exactly 0 and not summed (on the box its terms
    leave only the unpaired edge, a sum far below the terms that only
    math.fsum can round), and modulus, the EllipticModulus; a build that
    raises keeps nothing, so every later read raises again.
    """

    _shape = staticmethod(lambda n: (n, 0))  # the box of radius n

    def __init__(self, tau: complex, ctrl: SeriesControl):
        super().__init__(PeriodMatrix(tau, tau, 0j), ctrl)

    def rows_at(self, values, grads, zs) -> list[list[complex]]:
        values, grads = ([HalfCharacteristic(c.a, 0, c.b, 0) for c in chars] for chars in (values, grads))
        return super().rows_at(values, grads, [Point2(z, 0j) for z in zs])

    @cached_property
    def nulls(self) -> Mapping[tuple[int, int], complex]:
        [values] = self.values_at(_GENUS1_CHARS[:3], (0.0,))
        return MappingProxyType(dict(zip(_GENUS1_CHARS, [*values, 0j])))

    @cached_property
    def modulus(self) -> EllipticModulus:
        n00, n01, n10, _ = self.nulls.values()  # in _GENUS1_CHARS order
        return EllipticModulus((n10 / n00) ** 4, (n01 / n00) ** 4)


def _sn_ratio(nulls, t01: complex, t11: complex, z) -> complex:
    """x = theta[0;0](0) theta[1;1](z) / (theta[1;0](0) theta[0;1](z)) = -sn(2Kz)
    from t01, t11 at z; SingularDenominator where theta[0;1](z) vanishes."""
    n00 = nulls[0, 0]
    if abs(t01) <= 1e-10 * abs(n00):
        raise SingularDenominator(f"theta[0;1]({z}) vanishes")
    return (n00 * t11) / (nulls[1, 0] * t01)


def _jacobi(nulls, t, z) -> tuple[complex, complex, complex]:
    """sn, cn, dn from the nulls and the four genus-1 values t at z, in
    _GENUS1_CHARS order."""
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    t00, t01, t10, t11 = t
    sn = -_sn_ratio(nulls, t01, t11, z)
    cn = (n01 * t10) / (n10 * t01)
    dn = (n01 * t00) / (n00 * t01)
    return sn, cn, dn


def elliptic_residuals(g: Genus1Data, zs, h: float) -> list[list[float]]:
    """The seven residuals of the genus-1 theory at the tau of g, the
    Genus1Data of that tau, at each theta argument z.

    In order: the three squared-theta identities and the null quartic, the
    Jacobi-function identities sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1, and
    the sn ODE (dx/du)^2 = (1 - x^2)(1 - k^2 x^2) with dx/du by a central
    difference of step h.  All the z read one genus-1 evaluation: the four
    values at each z, at z + h and at z - h.
    What depends on tau alone is taken once: the null quartic's row, the
    squared nulls that lead the identities' products, and 2K.
    """
    nulls, k_sq = g.nulls, g.modulus.k_sq
    values = g.values_at(_GENUS1_CHARS, [arg for z in zs for arg in (z, z + h, z - h)])
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    s00, s01, s10 = n00**2, n01**2, n10**2
    quartic = _rel(n00**4, n01**4 + n10**4)
    two_k = 2.0 * (math.pi / 2.0 * n00 * n00)  # u = 2Kz, K = (pi/2) theta^2[0;0](0)
    out = []
    for i, z in enumerate(zs):
        t00, t01, t10, t11 = t = values[3 * i]
        q00, q01, q10, q11 = t00**2, t01**2, t10**2, t11**2
        sn, cn, dn = _jacobi(nulls, t, z)
        out.append([
            _rel(s00 * q00, s01 * q01 + s10 * q10),
            _rel(s00 * q11, s10 * q01 - s01 * q10),
            _rel(s00 * q01, s01 * q00 + s10 * q11),
            quartic,
            abs(sn * sn + cn * cn - 1.0),
            abs(dn * dn + k_sq * sn * sn - 1.0),
            _sn_ode(nulls, k_sq, two_k, values[3 * i + 1 : 3 * i + 3], z, -sn, h),
        ])
    return out


def _sn_ode(nulls, k_sq: complex, two_k: complex, stencil, z, x: complex, h: float) -> float:
    """Residual of (dx/du)^2 = (1 - x^2)(1 - k^2 x^2) at z, for x = -sn (_sn_ratio)
    there, with dx/du by a central difference of step h from the four
    genus-1 values at z + h, then at z - h (stencil), in _GENUS1_CHARS order.

    u = 2Kz, so dx/du = (dx/dz) / (2K), two_k.
    """
    (_, t01, _, t11), (_, m01, _, m11) = stencil
    x_plus = _sn_ratio(nulls, t01, t11, z + h)
    x_minus = _sn_ratio(nulls, m01, m11, z - h)
    dxdu = (x_plus - x_minus) / (2.0 * h) / two_k
    return _rel(dxdu * dxdu, (1.0 - x * x) * (1.0 - k_sq * x * x))


DEGENERATION_LABELS = tuple(f"split-{c.label()}" for c in ALL_CHARACTERISTICS) + (
    "x1x2-product", "complement-product", "third-factor",
    "collapse-k1sq", "collapse-k2sq", "pair-match",
)


def degeneration_residuals(
    cd: CurveData, g_tau1: Genus1Data, g_tau2: Genus1Data, points
) -> list[tuple[list[float], PointPair]]:
    """At each point, the residuals in DEGENERATION_LABELS order and the pair
    recovered on cd, the CurveData of a split period matrix (tau12 = 0),
    whose tau1 and tau2 have the Genus1Data g_tau1 and g_tau2.

    The split-* rows are the relative gaps between the sixteen genus-2 values
    at tau12 = 0 and their genus-1 products at (u, tau1) and (v, tau2).  The
    others check the inversion at tau12 = 0 against the elliptic prediction
    {x^2, 1/k0^2}, x the theta-ratio form of -sn at theta argument u, so
    x^2 = sn^2(2Ku): the three symmetric-function relations, the collapse of
    the three moduli to one and the unordered pair match.  All the points
    read one values_at call of each of cd, g_tau1 (at u) and g_tau2 (at v),
    and what the split curve gives every point, the collapse rows among it,
    is taken once.
    """
    nulls = g_tau1.nulls
    g2 = cd.values_at(ALL_CHARACTERISTICS, points)
    g1u_rows = g_tau1.values_at(_GENUS1_CHARS, [point.u for point in points])
    g1v_rows = g_tau2.values_at(_GENUS1_CHARS, [point.v for point in points])
    out, curve = [], None
    for point, row, g1u, g1v in zip(points, g2, g1u_rows, g1v_rows):
        pair = _pair_from_thetas(cd, _pick_pair(row), point)[0]
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


def complete_integral_residuals(g: Genus1Data) -> list[float]:
    """Check tau = iK'/K and theta^2[0;0](0) = 2K/pi by tanh-sinh quadrature,
    from the nulls and modulus of g, the Genus1Data of tau.

    Restricted to purely imaginary tau with Im in [0.5, 3]: there the modulus
    is real in (0, 1) and the integrals are the classical real ones.
    """
    tau = g.tau.tau1
    if abs(tau.real) > 1e-12 or not (0.5 <= tau.imag <= 3.0):
        raise ConfigInvalid(
            f"tau = {tau} must be purely imaginary with Im in [0.5, 3]"
        )
    mod = g.modulus
    m = mod.k_sq.real
    mp = mod.kp_sq.real

    def integrand(msq: float):
        def f(x: float, dist: float) -> float:
            omx2 = dist * (2.0 - dist) if x > 0.5 else 1.0 - x * x
            return 1.0 / math.sqrt(omx2 * (1.0 - msq * x * x))

        return f

    big_k = tanh_sinh_01(integrand(m))
    big_kp = tanh_sinh_01(integrand(mp))
    n00 = g.nulls[0, 0]
    return [
        abs(1j * big_kp / big_k - tau) / (1.0 + abs(tau)),
        _rel(n00 * n00, 2.0 * big_k / math.pi),
    ]
