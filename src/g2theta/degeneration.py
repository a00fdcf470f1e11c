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
from .inversion import PointPair, _recover_pairs
from .quadrature import tanh_sinh_01
from .theta import (
    _NULL_CACHE_TAUS,
    ALL_CHARACTERISTICS,
    PeriodMatrix,
    Point2,
    SeriesControl,
    complex_row_sums,
    curve_data,
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


def _theta1_values(rows, ctrl: SeriesControl) -> list[complex]:
    """theta1 of each (characteristic, z, tau) row, all from one (R, 2N+1) grid.

    N is the largest radius among the rows; the terms a row's own radius
    leaves out are set to exactly 0.  Each term goes through the operations
    of the one-row series, i pi (tau m^2 + 2 m (z + b/2)) with m = k + a/2,
    in the same order, and each row is summed exactly, so a value does not
    depend on the other rows of its grid.
    """
    for _, _, tau in rows:
        if tau.imag <= 0:
            raise DegenerateTau(f"Im tau = {tau.imag} is not positive")
    radii = [_radius1(z, tau, ctrl) for _, z, tau in rows]
    n = max(radii)
    half_a = np.array([c.a / 2.0 for c, _, _ in rows])[:, None]
    m = np.arange(-n, n + 1, dtype=float) + half_a
    taus = np.array([tau for _, _, tau in rows], dtype=complex)[:, None]
    shift = np.array([z + c.b / 2.0 for c, z, _ in rows], dtype=complex)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms raise below
        terms = np.exp(1j * math.pi * (taus * m * m + 2.0 * m * shift))
    for i, radius in enumerate(radii):
        cut = n - radius
        if cut:
            terms[i, :cut] = 0.0
            terms[i, -cut:] = 0.0
    return complex_row_sums(terms).tolist()


def theta1(
    c: Genus1Characteristic,
    z: complex,
    tau: complex,
    ctrl: SeriesControl = SeriesControl(),
) -> complex:
    """One-variable theta with half-integer characteristic [a; b]."""
    return _theta1_values([(c, z, tau)], ctrl)[0]


_GENUS1_BITS = ((0, 0), (0, 1), (1, 0), (1, 1))
_GENUS1_CHARS = tuple(Genus1Characteristic(*ab) for ab in _GENUS1_BITS)
_G01, _G11 = Genus1Characteristic(0, 1), Genus1Characteristic(1, 1)


def _theta1_table(z: complex, tau: complex, ctrl: SeriesControl) -> dict:
    """All four theta1[a; b](z), keyed by (a, b), from one grid."""
    return dict(zip(_GENUS1_BITS, _theta1_values([(c, z, tau) for c in _GENUS1_CHARS], ctrl)))


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
    nulls = _nulls1(tau, ctrl)
    n00, n10, n01 = nulls[0, 0], nulls[1, 0], nulls[0, 1]
    t = _theta1_table(z, tau, ctrl)
    t00, t01, t10, t11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    if abs(t01) <= 1e-10 * abs(n00):
        raise SingularDenominator(f"theta[0;1]({z}) vanishes")
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
    t = _theta1_table(z, tau, ctrl)
    t00, t01, t10, t11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
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
    g2 = curve_data(tau, ctrl).values_at(ALL_CHARACTERISTICS, (point,))[0]
    args = ((point.u, tau1), (point.v, tau2))
    g1 = _theta1_values([(c, z, t) for z, t in args for c in _GENUS1_CHARS], ctrl)
    g1u, g1v = dict(zip(_GENUS1_BITS, g1[:4])), dict(zip(_GENUS1_BITS, g1[4:]))
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
    cd = curve_data(PeriodMatrix(tau1, tau2, 0.0), ctrl)
    ms = cd.moduli
    pair = next(_recover_pairs(cd, (point,)))
    x1, x2 = pair.x1, pair.x2

    nulls = _nulls1(tau1, ctrl)
    n00, n10 = nulls[0, 0], nulls[1, 0]
    t01, t11 = _theta1_values([(_G01, point.u, tau1), (_G11, point.u, tau1)], ctrl)
    if abs(t01) <= 1e-10 * abs(n00):
        raise SingularDenominator(f"theta[0;1]({point.u}) vanishes")
    x = (n00 * t11) / (n10 * t01)

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

    args = (z + h, z - h, z)
    values = _theta1_values([(c, zz, tau) for zz in args for c in (_G01, _G11)], ctrl)

    def xfun(k: int) -> complex:
        t01, t11 = values[2 * k], values[2 * k + 1]
        if abs(t01) <= 1e-10 * abs(n00):
            raise SingularDenominator(f"theta[0;1]({args[k]}) vanishes")
        return (n00 * t11) / (n10 * t01)

    dxdu = (xfun(0) - xfun(1)) / (2.0 * h) / (2.0 * big_k)
    xv = xfun(2)
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
