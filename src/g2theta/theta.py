"""Genus-2 theta functions with half-integer characteristics.

The basic object is the two-variable series

    theta[a c; b d](u, v) = sum_{m,n in Z} exp{ i*pi*( tau1*(m+a/2)^2
        + tau2*(n+c/2)^2 + 2*tau12*(m+a/2)*(n+c/2) )
        + 2*i*pi*( (m+a/2)*(u+b/2) + (n+c/2)*(v+d/2) ) }

for bits a, b, c, d in {0, 1} and a period matrix (tau1, tau12; tau12, tau2)
with positive-definite imaginary part.  The lattice sum is truncated to a
square box whose radius comes from the Gaussian decay of the summand.
theta_values_at evaluates any set of characteristics at any set of points
from one grid of terms, shape (points, characteristics, 2N+1, 2N+1), on the
box of the largest radius among the points; terms outside a point's own box
are set to zero.  Each row is summed correctly rounded by exact_row_sums, a
certified vectorized sum that hands the rows it cannot settle to math.fsum,
so every output is bit-reproducible run to run and does not depend on which
other points or characteristics were evaluated with it.  theta_grads_at
gives values and gradients from one grid.  theta_values, theta_grads,
theta2 and theta2_grad are the one-point forms; the sixteen nulls and null
gradients of a period matrix are one memoized evaluation each.

Also here: parity of a characteristic, and the half/full period shift rules
expressing theta at a shifted argument through theta at the original one.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DegenerateTau, TruncationOverflow

__all__ = [
    "HalfCharacteristic",
    "PeriodMatrix",
    "Point2",
    "SeriesControl",
    "ShiftKind",
    "ShiftRule",
    "ALL_CHARACTERISTICS",
    "EVEN_CHARACTERISTICS",
    "ODD_CHARACTERISTICS",
    "DEFAULT_TAU",
    "parity",
    "truncation_radius",
    "fsum_rows",
    "exact_row_sums",
    "theta_values_at",
    "theta_grads_at",
    "theta_values",
    "theta_table",
    "theta_grads",
    "theta2",
    "theta2_grad",
    "theta_nulls",
    "theta_null_grads",
    "theta_null",
    "theta_null_grad",
    "half_shift",
    "shifted_argument",
]

_IPI = 1j * math.pi


@dataclass(frozen=True)
class HalfCharacteristic:
    """Four bits laid out [a c; b d]; (a, c) index the lattice, (b, d) the argument."""

    a: int
    c: int
    b: int
    d: int

    def __post_init__(self):
        for name in ("a", "c", "b", "d"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"characteristic bit {name} must be 0 or 1")

    @property
    def is_odd(self) -> bool:
        return (self.a * self.b + self.c * self.d) % 2 == 1

    @property
    def bits(self) -> tuple[int, int, int, int]:
        return (self.a, self.c, self.b, self.d)

    def label(self) -> str:
        return f"{self.a}{self.c}{self.b}{self.d}"


def ch(a: int, c: int, b: int, d: int) -> HalfCharacteristic:
    return HalfCharacteristic(a, c, b, d)


ALL_CHARACTERISTICS = tuple(
    HalfCharacteristic(a, c, b, d)
    for a in (0, 1)
    for c in (0, 1)
    for b in (0, 1)
    for d in (0, 1)
)
ODD_CHARACTERISTICS = tuple(x for x in ALL_CHARACTERISTICS if x.is_odd)
EVEN_CHARACTERISTICS = tuple(x for x in ALL_CHARACTERISTICS if not x.is_odd)


def parity(c: HalfCharacteristic) -> int:
    """(-1)^(ab+cd); theta with an odd characteristic is an odd function."""
    return -1 if c.is_odd else 1


@dataclass(frozen=True)
class PeriodMatrix:
    tau1: complex
    tau2: complex
    tau12: complex

    def __post_init__(self):
        y1, y2, y12 = self.tau1.imag, self.tau2.imag, self.tau12.imag
        # positive definiteness of Im tau via leading minors
        if not (y1 > 0.0 and y1 * y2 - y12 * y12 > 0.0):
            raise DegenerateTau(
                f"Im tau not positive definite: Im tau1={y1}, det={y1 * y2 - y12 * y12}"
            )

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of Im tau; controls the Gaussian decay rate."""
        y1, y2, y12 = self.tau1.imag, self.tau2.imag, self.tau12.imag
        half_tr = 0.5 * (y1 + y2)
        rad = math.hypot(0.5 * (y1 - y2), y12)
        return half_tr - rad


@dataclass(frozen=True)
class Point2:
    u: complex
    v: complex


@dataclass(frozen=True)
class SeriesControl:
    tol: float = 1e-14
    max_radius: int = 64

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_radius < 4:
            raise ValueError("max_radius must be at least 4")


DEFAULT_TAU = PeriodMatrix(0.1 + 1.1j, -0.15 + 1.3j, 0.05 + 0.25j)

ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)


def truncation_radius(tau: PeriodMatrix, point: Point2, ctrl: SeriesControl) -> int:
    """Box radius N so the lattice tail beyond N is below ctrl.tol relatively.

    The summand decays like exp(-pi*lmin*(r - r0)^2) where lmin is the smallest
    eigenvalue of Im tau and r0 = (|Im u| + |Im v|)/lmin accounts for the
    argument pulling the Gaussian peak off the origin.
    """
    lmin = tau.lambda_min
    r0 = (abs(point.u.imag) + abs(point.v.imag)) / lmin
    n = int(math.floor(r0 + math.sqrt(math.log(1.0 / ctrl.tol) / (math.pi * lmin)))) + 1
    if n > ctrl.max_radius:
        raise TruncationOverflow(
            f"required radius {n} exceeds max_radius {ctrl.max_radius}"
        )
    return n


def _lattice_terms(chars, points, tau: PeriodMatrix, ctrl: SeriesControl):
    """Lattice terms of every characteristic at every point, shape (P, K, 2N+1, 2N+1).

    N is the largest truncation radius among the points.  Entry [i, k] holds
    the terms of chars[k] at points[i], m ascending along axis 2 and n along
    axis 3; the terms a point's own radius leaves out are set to exactly 0,
    so its exact row sum is the sum over its own box.  Each element goes
    through the same floating-point operations, in the same order, as a
    one-characteristic grid at one point: the quadratic form is computed
    once and shared by all points, then the linear term of each point is
    added to it.  exp overflow is not reported here; it shows up as a
    non-finite term when the rows are summed.
    """
    radii = [truncation_radius(tau, point, ctrl) for point in points]
    n = max(radii)
    idx = np.arange(-n, n + 1, dtype=np.float64)
    # half[:, j] is 0.5 * (a, c, b, d)[j] of each characteristic, shape (K, 1, 1)
    half = 0.5 * np.array([c.bits for c in chars], dtype=np.float64)[:, :, None, None]
    p = idx[None, :, None] + half[:, 0]
    q = idx[None, None, :] + half[:, 1]
    quad = tau.tau1 * p * p + tau.tau2 * q * q + 2.0 * tau.tau12 * p * q
    u = np.array([point.u for point in points], dtype=np.complex128)[:, None, None, None]
    v = np.array([point.v for point in points], dtype=np.complex128)[:, None, None, None]
    # the exponent becomes the terms in place, one (P, K, 2N+1, 2N+1) array;
    # sums and products commute exactly, so the operations are unchanged
    terms = p * (u + half[:, 2]) + q * (v + half[:, 3])
    terms *= 2.0
    np.add(quad, terms, out=terms)
    np.multiply(_IPI, terms, out=terms)
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(terms, out=terms)
    for i, radius in enumerate(radii):
        cut = n - radius
        if cut:
            terms[i, :, :cut] = 0.0
            terms[i, :, -cut:] = 0.0
            terms[i, :, :, :cut] = 0.0
            terms[i, :, :, -cut:] = 0.0
    return p, q, terms


def _fsum(row: list[float]) -> float:
    try:
        return math.fsum(row)
    except (ValueError, OverflowError) as exc:
        raise TruncationOverflow(f"lattice sum left double range: {exc}") from exc


def fsum_rows(terms: np.ndarray) -> list[complex]:
    """Correctly rounded sum of each row of a complex array, via math.fsum.

    A non-finite term (the series overflowed double range) raises
    TruncationOverflow instead of returning NaN or inf.
    """
    rows = terms.reshape(len(terms), -1)
    out = [
        complex(_fsum(re), _fsum(im))
        for re, im in zip(rows.real.tolist(), rows.imag.tolist())
    ]
    if not all(map(cmath.isfinite, out)):
        raise TruncationOverflow("lattice sum left double range: non-finite term")
    return out


# rows whose largest term reaches this go to math.fsum; below it the
# splitting constant of exact_row_sums stays far from overflow
_EXACT_MAX = 2.0**900
_TINY = 2.0**-1074  # smallest positive double


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a real (R, T) array.

    Equal bit for bit to math.fsum of each row, computed with array
    operations (Rump, Ogita and Oishi, Accurate floating-point summation,
    Part I, SIAM J. Sci. Comput. 31, 2008).  With max|x| < 2^e and
    sigma = 2^(e+M), 2^M >= T + 2, each term splits exactly into
    hi = (sigma + x) - sigma and lo = x - hi.  The hi parts are multiples of
    ulp(sigma)/2 whose partial sums stay below sigma, so their sum is exact
    in any order; the sum of the lo parts is off by at most
    2 T^2 2^-106 sigma.  TwoSum folds the two into res + err, and res is the
    correctly rounded sum when |err| plus that bound is below half the gap
    from res to its nearer neighbour.  A row that is not settled this way
    has the same exact sum as the row of its hi sum and lo parts.  When its
    terms cancelled, the largest of those is near ulp(sigma), so one more
    pass on that row works on a much finer grid.  Rows still unsettled are
    summed with math.fsum, and so is every row when some term reaches 2^900.

    A non-finite term, or a sum beyond double range, raises
    TruncationOverflow.
    """
    amax = np.abs(rows).max(axis=1, initial=0.0)
    if not amax.max(initial=0.0) < _EXACT_MAX:
        if not np.isfinite(amax).all():
            raise TruncationOverflow("lattice sum left double range: non-finite term")
        return np.array([_fsum(row) for row in rows.tolist()])
    return _split_sums(rows, amax, refine=True)


def _split_sums(rows: np.ndarray, amax: np.ndarray, refine: bool) -> np.ndarray:
    """exact_row_sums of finite rows below 2^900; amax is max|x| per row."""
    width = rows.shape[1]
    _, e = np.frexp(amax)
    sigma = np.ldexp(1.0, e + (width + 1).bit_length())
    part = np.add(sigma[:, None], rows)  # hi, then lo in place
    part -= sigma[:, None]
    high = part.sum(axis=1)
    np.subtract(rows, part, out=part)
    low = part.sum(axis=1)
    res = high + low
    back = res - high
    err = (high - (res - back)) + (low - back)
    # sigma is a power of two, so this product is exact unless it underflows,
    # and _TINY covers that rounding
    bound = sigma * (2.0 * width * width * 2.0**-106) + _TINY
    # the spacing just below |res| is the smaller of the two gaps around res
    half_gap = 0.5 * np.spacing(np.nextafter(np.abs(res), 0.0))
    bad = np.flatnonzero(~(np.abs(err) + bound < half_gap))
    if len(bad) and refine:
        exact = np.column_stack((high[bad], part[bad]))
        res[bad] = _split_sums(exact, np.abs(exact).max(axis=1), refine=False)
    elif len(bad):
        for i, row in zip(bad.tolist(), rows[bad].tolist()):
            res[i] = _fsum(row)
    return res


def _complex_sums(terms: np.ndarray) -> np.ndarray:
    """exact_row_sums of the real and imaginary parts over the last two axes."""
    flat = terms.reshape(-1, terms.shape[-2] * terms.shape[-1])
    sums = exact_row_sums(np.concatenate((flat.real, flat.imag)))
    out = np.empty(len(flat), dtype=np.complex128)
    out.real = sums[: len(flat)]
    out.imag = sums[len(flat) :]
    return out.reshape(terms.shape[:-2])


def theta_values_at(
    chars,
    points,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> list[list[complex]]:
    """theta[c](point) for every point (outer) and c in chars (inner), one grid."""
    _, _, terms = _lattice_terms(chars, points, tau, ctrl)
    return _complex_sums(terms).tolist()


def theta_grads_at(
    chars,
    points,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> tuple[list[list[complex]], list[list[tuple[complex, complex]]]]:
    """Values and (d theta/du, d theta/dv) at every point, from one grid.

    Gradients come from term-wise differentiation of the series; both lists
    are indexed [point][characteristic] like theta_values_at.
    """
    p, q, terms = _lattice_terms(chars, points, tau, ctrl)
    two_pi_i = 2j * math.pi
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms raise below
        jets = np.stack((terms, (two_pi_i * p) * terms, (two_pi_i * q) * terms))
    sums = _complex_sums(jets)
    values, du, dv = sums.tolist()
    return values, [list(zip(du_i, dv_i)) for du_i, dv_i in zip(du, dv)]


def theta_values(
    chars,
    point: Point2,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> list[complex]:
    """theta[c](point) for every c in chars, from one stacked lattice grid."""
    return theta_values_at(chars, (point,), tau, ctrl)[0]


def theta_table(
    chars,
    point: Point2,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> dict[tuple[int, int, int, int], complex]:
    """theta_values keyed by the bits of each characteristic."""
    return {c.bits: v for c, v in zip(chars, theta_values(chars, point, tau, ctrl))}


def theta_grads(
    chars,
    point: Point2,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> list[tuple[complex, complex]]:
    """(d theta/du, d theta/dv) for every c in chars by term-wise differentiation."""
    return theta_grads_at(chars, (point,), tau, ctrl)[1][0]


def theta2(
    c: HalfCharacteristic,
    point: Point2,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> complex:
    return theta_values((c,), point, tau, ctrl)[0]


def theta2_grad(
    c: HalfCharacteristic,
    point: Point2,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> tuple[complex, complex]:
    """(d theta/du, d theta/dv) by term-wise differentiation of the series."""
    return theta_grads((c,), point, tau, ctrl)[0]


_ALL_BITS = tuple(c.bits for c in ALL_CHARACTERISTICS)

# Null caches are bounded so that a process sweeping many period matrices
# keeps a fixed footprint; a verification run reuses only a few taus.
_NULL_CACHE_TAUS = 128


@lru_cache(maxsize=_NULL_CACHE_TAUS)
def theta_nulls(
    tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> Mapping[tuple[int, int, int, int], complex]:
    """All sixteen theta[c](0, 0), keyed by c.bits; one memoized evaluation per tau."""
    values = theta_values(ALL_CHARACTERISTICS, ORIGIN, tau, ctrl)
    return MappingProxyType(dict(zip(_ALL_BITS, values)))


@lru_cache(maxsize=_NULL_CACHE_TAUS)
def theta_null_grads(
    tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> Mapping[tuple[int, int, int, int], tuple[complex, complex]]:
    """All sixteen null gradients (d/du, d/dv), keyed by c.bits; memoized per tau."""
    grads = theta_grads(ALL_CHARACTERISTICS, ORIGIN, tau, ctrl)
    return MappingProxyType(dict(zip(_ALL_BITS, grads)))


def theta_null(
    c: HalfCharacteristic, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> complex:
    """theta[c](0, 0), read from the memoized all-characteristic evaluation."""
    return theta_nulls(tau, ctrl)[c.bits]


def theta_null_grad(
    c: HalfCharacteristic, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> tuple[complex, complex]:
    return theta_null_grads(tau, ctrl)[c.bits]


class ShiftKind(enum.Enum):
    U_HALF = "u_half"                    # u -> u + 1/2
    U_TAU_HALF = "u_tau_half"            # u -> u + tau1/2, v -> v + tau12/2
    U_TAU_PLUS_HALF = "u_tau_plus_half"  # u -> u + tau1/2 + 1/2, v -> v + tau12/2
    U_ONE = "u_one"                      # u -> u + 1
    U_TAU_FULL = "u_tau_full"            # u -> u + tau1, v -> v + tau12


@dataclass(frozen=True)
class ShiftRule:
    """theta[old](shifted args) = sign * exp(i*pi*(tau1_coeff*tau1 + u_coeff*u)) * theta[new](u, v)."""

    kind: ShiftKind
    new_characteristic: HalfCharacteristic
    sign: complex
    tau1_coeff: Fraction
    u_coeff: Fraction

    def factor(self, point: Point2, tau: PeriodMatrix) -> complex:
        expo = complex(self.tau1_coeff) * tau.tau1 + complex(self.u_coeff) * point.u
        return self.sign * cmath.exp(_IPI * expo)


def shifted_argument(kind: ShiftKind, point: Point2, tau: PeriodMatrix) -> Point2:
    u, v = point.u, point.v
    if kind is ShiftKind.U_HALF:
        return Point2(u + 0.5, v)
    if kind is ShiftKind.U_TAU_HALF:
        return Point2(u + tau.tau1 / 2.0, v + tau.tau12 / 2.0)
    if kind is ShiftKind.U_TAU_PLUS_HALF:
        return Point2(u + tau.tau1 / 2.0 + 0.5, v + tau.tau12 / 2.0)
    if kind is ShiftKind.U_ONE:
        return Point2(u + 1.0, v)
    if kind is ShiftKind.U_TAU_FULL:
        return Point2(u + tau.tau1, v + tau.tau12)
    raise ValueError(f"unknown shift kind {kind!r}")


def half_shift(c: HalfCharacteristic, kind: ShiftKind) -> ShiftRule:
    """Transformation rule for a half- or full-period shift in the u direction.

    Shifts act on (u, v) jointly where the period couples them (tau1 shifts in
    u drag tau12/2 shifts in v).  The v-direction rules are the mirror images
    swapping (a, b, tau1) with (c, d, tau2); they are not needed by the
    verification suites and are omitted.
    """
    a, b = c.a, c.b
    zero = Fraction(0)
    if kind is ShiftKind.U_HALF:
        sign = -1.0 if (a == 1 and b == 1) else 1.0
        return ShiftRule(kind, ch(a, c.c, 1 - b, c.d), complex(sign), zero, zero)
    if kind is ShiftKind.U_TAU_HALF:
        sign = 1.0 + 0.0j if b == 0 else -1.0j
        return ShiftRule(kind, ch(1 - a, c.c, b, c.d), sign, Fraction(-1, 4), Fraction(-1))
    if kind is ShiftKind.U_TAU_PLUS_HALF:
        if b == 0:
            sign = -1.0j
        else:
            sign = 1.0 + 0.0j if a == 0 else -1.0 + 0.0j
        return ShiftRule(kind, ch(1 - a, c.c, 1 - b, c.d), sign, Fraction(-1, 4), Fraction(-1))
    if kind is ShiftKind.U_ONE:
        return ShiftRule(kind, c, complex((-1.0) ** a), zero, zero)
    if kind is ShiftKind.U_TAU_FULL:
        return ShiftRule(kind, c, complex((-1.0) ** b), Fraction(-1), Fraction(-2))
    raise ValueError(f"unknown shift kind {kind!r}")
