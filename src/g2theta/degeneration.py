"""Genus-1 limit: theta splitting at tau12 = 0, Jacobi functions, elliptic integrals.

When the off-diagonal period vanishes the two-variable series factors,

    theta[a c; b d]((u, v); tau1, tau2, 0) = theta[a; b](u; tau1) theta[c; d](v; tau2),

the three moduli collapse to a single elliptic modulus, and the recovered
inversion pair becomes {x^2, 1/k0^2} with x = theta-ratio form of -sn.  This
module certifies that entire chain plus the classical one-variable theory it
lands on: squared-theta identities, the sn differential equation, and the
complete-integral relation tau = iK'/K.

Conventions: genus-1 characteristics are column vectors [a; b] with the odd
one [1; 1]; sn, cn, dn take the theta argument z with u = 2Kz, where
K = (pi/2) theta^2[0;0](0) links the two normalizations.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ConfigInvalid, DegenerateTau, SingularDenominator, TruncationOverflow
from .inversion import PointPair, recover_pair
from .moduli import moduli_from_tau
from .quadrature import tanh_sinh_01
from .theta import (
    ALL_CHARACTERISTICS,
    PeriodMatrix,
    Point2,
    SeriesControl,
    _NULL_CACHE_TAUS,
    fsum_rows,
    theta_values,
)

__all__ = [
    "Genus1Characteristic",
    "EllipticModulus",
    "theta1",
    "elliptic_modulus",
    "jacobi_functions",
    "elliptic_identity_residuals",
    "splitting_residuals",
    "degenerate_inversion_residuals",
    "degenerate_inversion",
    "sn_ode_residual",
    "complete_integral_residuals",
]


@dataclass(frozen=True)
class Genus1Characteristic:
    a: int
    b: int

    def __post_init__(self):
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise ValueError("characteristic entries must be bits")

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
    lam = tau.imag
    n = int(abs(z.imag) / lam + math.sqrt(math.log(1.0 / ctrl.tol) / (math.pi * lam))) + 1
    if n > ctrl.max_radius:
        raise TruncationOverflow(
            f"genus-1 series needs radius {n} > max_radius {ctrl.max_radius}"
        )
    return n


def theta1(
    c: Genus1Characteristic,
    z: complex,
    tau: complex,
    ctrl: SeriesControl = SeriesControl(),
) -> complex:
    """One-variable theta with half-integer characteristic [a; b]."""
    if tau.imag <= 0:
        raise DegenerateTau(f"Im tau = {tau.imag} is not positive")
    n = _radius1(z, tau, ctrl)
    m = np.arange(-n, n + 1, dtype=float) + c.a / 2.0
    expo = 1j * math.pi * (tau * m * m + 2.0 * m * (z + c.b / 2.0))
    return fsum_rows(np.exp(expo)[None, :])[0]


_GENUS1_BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


@lru_cache(maxsize=_NULL_CACHE_TAUS)
def _nulls1(tau: complex, ctrl: SeriesControl) -> Mapping[tuple[int, int], complex]:
    """All four theta[a; b](0), keyed by (a, b); one memoized evaluation per tau."""
    return MappingProxyType(
        {ab: theta1(Genus1Characteristic(*ab), 0.0, tau, ctrl) for ab in _GENUS1_BITS}
    )


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
    nulls = _nulls1(tau, ctrl)
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    t01 = theta1(Genus1Characteristic(0, 1), z, tau, ctrl)
    if abs(t01) <= 1e-10 * abs(n00):
        raise SingularDenominator(f"theta[0;1]({z}) vanishes")
    t00 = theta1(Genus1Characteristic(0, 0), z, tau, ctrl)
    t10 = theta1(Genus1Characteristic(1, 0), z, tau, ctrl)
    t11 = theta1(Genus1Characteristic(1, 1), z, tau, ctrl)
    sn = -(n00 * t11) / (n10 * t01)
    cn = (n01 * t10) / (n10 * t01)
    dn = (n01 * t00) / (n00 * t01)
    return sn, cn, dn, elliptic_modulus(tau, ctrl)


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def elliptic_identity_residuals(
    z: complex, tau: complex, ctrl: SeriesControl = SeriesControl()
) -> list[float]:
    """Residuals of the three squared-theta identities and the null quartic."""
    nulls = _nulls1(tau, ctrl)
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    t00, t01, t10, t11 = (
        theta1(Genus1Characteristic(a, b), z, tau, ctrl)
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    return [
        _rel(n00**2 * t00**2, n01**2 * t01**2 + n10**2 * t10**2),
        _rel(n00**2 * t11**2, n10**2 * t01**2 - n01**2 * t10**2),
        _rel(n00**2 * t01**2, n01**2 * t00**2 + n10**2 * t11**2),
        _rel(n00**4, n01**4 + n10**4),
    ]


def splitting_residuals(
    point: Point2,
    tau1: complex,
    tau2: complex,
    ctrl: SeriesControl = SeriesControl(),
) -> dict[str, float]:
    """Relative gap between the genus-2 value at tau12=0 and the genus-1 product."""
    tau = PeriodMatrix(tau1, tau2, 0.0)
    g2 = theta_values(ALL_CHARACTERISTICS, point, tau, ctrl)
    g1u = {ab: theta1(Genus1Characteristic(*ab), point.u, tau1, ctrl) for ab in _GENUS1_BITS}
    g1v = {cd: theta1(Genus1Characteristic(*cd), point.v, tau2, ctrl) for cd in _GENUS1_BITS}
    return {
        f"split-{c.label()}": _rel(value, g1u[(c.a, c.b)] * g1v[(c.c, c.d)])
        for c, value in zip(ALL_CHARACTERISTICS, g2)
    }


def degenerate_inversion_residuals(
    point: Point2,
    tau1: complex,
    tau2: complex,
    ctrl: SeriesControl = SeriesControl(),
) -> dict[str, float]:
    """Inversion at tau12=0 against the elliptic prediction {x^2, 1/k0^2}.

    x is the theta-ratio form of -sn at theta argument u, so x^2 = sn^2(2Ku).
    The three symmetric-function relations, the collapse of the three moduli
    to one, and the unordered pair match are all reported.
    """
    return degenerate_inversion(point, tau1, tau2, ctrl)[0]


def degenerate_inversion(
    point: Point2,
    tau1: complex,
    tau2: complex,
    ctrl: SeriesControl = SeriesControl(),
) -> tuple[dict[str, float], PointPair]:
    """degenerate_inversion_residuals plus the pair recovered at tau12=0."""
    tau = PeriodMatrix(tau1, tau2, 0.0)
    ms = moduli_from_tau(tau, ctrl)
    pair = recover_pair(point, tau, ctrl)
    x1, x2 = pair.x1, pair.x2

    nulls = _nulls1(tau1, ctrl)
    n00, n10 = nulls[0, 0], nulls[1, 0]
    t01 = theta1(Genus1Characteristic(0, 1), point.u, tau1, ctrl)
    if abs(t01) <= 1e-10 * abs(n00):
        raise SingularDenominator(f"theta[0;1]({point.u}) vanishes")
    x = (n00 * theta1(Genus1Characteristic(1, 1), point.u, tau1, ctrl)) / (n10 * t01)

    k0sq = ms.k0_sq
    predicted = (x * x, 1.0 / k0sq)
    direct = max(_rel(x1, predicted[0]), _rel(x2, predicted[1]))
    crossed = max(_rel(x1, predicted[1]), _rel(x2, predicted[0]))
    residuals = {
        "x1x2-product": _rel(k0sq * x1 * x2, x * x),
        "complement-product": _rel(
            (k0sq / (1.0 - k0sq)) * (1.0 - x1) * (1.0 - x2), -(1.0 - x * x)
        ),
        "third-factor": _rel((1.0 - k0sq * x1) * (1.0 - k0sq * x2), 0.0),
        "collapse-k1sq": _rel(k0sq, ms.k1_sq),
        "collapse-k2sq": _rel(k0sq, ms.k2_sq),
        "pair-match": min(direct, crossed),
    }
    return residuals, pair


def sn_ode_residual(
    z: complex,
    tau: complex,
    ctrl: SeriesControl = SeriesControl(),
    h: float = 1e-5,
) -> float:
    """Residual of (dx/du)^2 = (1 - x^2)(1 - k^2 x^2), dx/du by central FD.

    u = 2Kz with K = (pi/2) theta^2[0;0](0), so dx/du = (dx/dz) / (2K).
    """
    nulls = _nulls1(tau, ctrl)
    n00, n10 = nulls[0, 0], nulls[1, 0]
    mod = elliptic_modulus(tau, ctrl)
    big_k = math.pi / 2.0 * n00 * n00

    def xfun(zz: complex) -> complex:
        t01 = theta1(Genus1Characteristic(0, 1), zz, tau, ctrl)
        if abs(t01) <= 1e-10 * abs(n00):
            raise SingularDenominator(f"theta[0;1]({zz}) vanishes")
        return (n00 * theta1(Genus1Characteristic(1, 1), zz, tau, ctrl)) / (n10 * t01)

    dxdu = (xfun(z + h) - xfun(z - h)) / (2.0 * h) / (2.0 * big_k)
    xv = xfun(z)
    return _rel(dxdu * dxdu, (1.0 - xv * xv) * (1.0 - mod.k_sq * xv * xv))


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
