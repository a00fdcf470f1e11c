"""Genus-2 theta functions with half-integer characteristics.

The basic object is the two-variable series

    theta[a c; b d](u, v) = sum_{m,n in Z} exp{ i*pi*( tau1*(m+a/2)^2
        + tau2*(n+c/2)^2 + 2*tau12*(m+a/2)*(n+c/2) )
        + 2*i*pi*( (m+a/2)*(u+b/2) + (n+c/2)*(v+d/2) ) }

for bits a, b, c, d in {0, 1} and a period matrix (tau1, tau12; tau12, tau2)
with positive-definite imaginary part.  The lattice sum is truncated to a
square box whose radius comes from the Gaussian decay of the summand.

The kernel factors each term (Deconinck et al., Computing Riemann theta
functions, Math. Comp. 73, 2004).  With p = m + a/2, q = n + c/2 and
quad = tau1 p^2 + tau2 q^2 + 2 tau12 p q, a term is

    [exp(2 pi i p u) exp(2 pi i q v)] * [exp(i pi quad) (-1)^(m b + n d) i^(a b + c d)]

The first bracket depends on the point and the lattice class (a, c) alone,
4 (2N+1) exp calls per point; the second on the characteristic alone, the
tau factor of the class times an exact unit.  So a term costs one complex
product, where the direct sum spends one complex exp.  The factors stay
within exp(+-700), and so keep full relative precision, when
pi (N + 1/2)^2 (y1 + y2 + 2|y12|) <= 700 with Y = Im tau (_in_factor_range):
that bounds the tau factor at a box corner and, as a point of radius N has
|Im u| + |Im v| < N lambda_min, the point factors too.  A radius past it
keeps the direct sum; at DEFAULT_TAU that is N >= 9, which needs
|Im u| + |Im v| above about 4.4.  Against a 30-digit mpmath sum over 80
points with |Re| <= 1 and |Im| <= 0.4, values are within 6.6e-16 and
1.25e-15 of max(1, |theta|), and gradients within 9.6e-16 and 2.7e-15, at
DEFAULT_TAU and at (0.2+1.4i, -0.1+0.95i, 0.03+0.3i): below the figures of
the direct sum, which tests/test_theta.py holds as bounds.

A component with |Re| >= 2 (_REDUCE_RE) is evaluated at u - k, k its
rounded real part, and its terms take the sign of
theta[c](u + k, v + l) = (-1)^(a k + c l) theta[c](u, v).  Both steps are
exact, and the phases no longer lose accuracy as |Re u| grows.

What depends on the period matrix alone is built once, in its CurveData:
on construction, from one grid at the origin, the ten even nulls (the six
odd nulls are exactly 0 and are not summed), the null scale
max |theta[even](0)| and the null gradients of the two odd characteristics
[10;10] and [11;10], which the flow constants read; on first use, the
moduli and the flow constants, each kept once built (a build that raises
keeps nothing and raises again on the next access); and, per truncation
radius used, the tau factors of the four lattice classes (a, c), or their
quadratic forms where the factors would leave range, from which every grid
gathers its rows.
curve_data(tau, ctrl) keeps the CurveData of the last 64 period matrices
(_NULL_CACHE_TAUS), least recently used dropped first, and each of them the
forms of at most 4 radii (_FORMS_PER_CURVE).

Theta values come two ways.  Batched: CurveData.values_at evaluates any set
of characteristics at any number of points.  It splits the points into
grids of terms, shape (points, characteristics, 2N+1, 2N+1): a grid holds
points of one truncation radius N and at most _GRID_TERMS terms, so the
kernel's memory stays bounded however many points a batch holds, and the
values come back in input order.  Each row is summed correctly rounded by
exact_row_sums, a certified vectorized sum that hands the rows it cannot
settle to math.fsum, so every output is bit-reproducible run to run and
does not depend on which other points or characteristics were evaluated
with it.  CurveData.grads_at gives values and gradients on the same grids,
whose budget counts the three jets, CurveData.table keys one point's values
by characteristic, and CurveData.nulls / null_grads hold the values and the
two odd gradients at the origin.  Scalar: theta2 and theta2_grad read one
value of curve_data.

Also here: parity of a characteristic, and the relative residual _rel that
the identity checks of every layer report.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DegenerateTau, TruncationOverflow

__all__ = [
    "HalfCharacteristic",
    "PeriodMatrix",
    "Point2",
    "SeriesControl",
    "ALL_CHARACTERISTICS",
    "EVEN_CHARACTERISTICS",
    "ODD_CHARACTERISTICS",
    "DEFAULT_TAU",
    "parity",
    "truncation_radius",
    "exact_row_sums",
    "complex_row_sums",
    "CurveData",
    "curve_data",
    "theta2",
    "theta2_grad",
]

_IPI = 1j * math.pi
_TWO_PI_I = 2j * math.pi


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


def _rel(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|)): the residual of an identity lhs = rhs."""
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


@dataclass(frozen=True)
class PeriodMatrix:
    tau1: complex
    tau2: complex
    tau12: complex

    def __post_init__(self):
        if not all(cmath.isfinite(entry) for entry in (self.tau1, self.tau2, self.tau12)):
            raise DegenerateTau(f"period matrix entries must be finite, got {self}")
        y1, y2, y12 = self.tau1.imag, self.tau2.imag, self.tau12.imag
        # positive definiteness of Im tau via leading minors
        if not (y1 > 0.0 and y1 * y2 - y12 * y12 > 0.0):
            raise DegenerateTau(
                f"Im tau not positive definite: Im tau1={y1}, det={y1 * y2 - y12 * y12}"
            )

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of Im tau; controls the Gaussian decay rate.

        Computed as det / (half_tr + rad), the determinant over the largest
        eigenvalue: half_tr - rad cancels when one diagonal entry is much
        larger than the other.
        """
        y1, y2, y12 = self.tau1.imag, self.tau2.imag, self.tau12.imag
        half_tr = 0.5 * (y1 + y2)
        rad = math.hypot(0.5 * (y1 - y2), y12)
        return (y1 * y2 - y12 * y12) / (half_tr + rad)


@dataclass(frozen=True)
class Point2:
    u: complex
    v: complex


@dataclass(frozen=True)
class SeriesControl:
    tol: float = 1e-14
    max_radius: int = 64

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
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
    reach = r0 + math.sqrt(math.log(1.0 / ctrl.tol) / (math.pi * lmin))
    if not math.isfinite(reach):
        raise TruncationOverflow(f"required radius is not finite ({reach}) at {point}")
    n = int(math.floor(reach)) + 1
    if n > ctrl.max_radius:
        raise TruncationOverflow(
            f"required radius {n} exceeds max_radius {ctrl.max_radius}"
        )
    return n


# On the factored path every factor has |log|factor|| <= _FACTOR_LOG, and so
# does the product of a row and a column factor: exp(-_FACTOR_LOG) is a
# normal double and exp(_FACTOR_LOG) is finite, so each keeps its full
# relative precision.  Only a term that underflows when the tau factor
# multiplies in loses precision, and it is below 2^-1022.
_FACTOR_LOG = 700.0


def _in_factor_range(tau: PeriodMatrix, n: int) -> bool:
    """Whether the lattice terms of radius n may be built from factors.

    Every lattice row p and column q of the box has |p|, |q| <= n + 1/2, so
    pi Im quad, the -log of the tau factor, is at most its value at a box
    corner, pi (n + 1/2)^2 (y1 + y2 + 2|y12|) with Y = Im tau.  A point of
    truncation radius n has |Im u| + |Im v| < n lambda_min, so the log of
    its row times column factor is below 2 pi (n + 1/2) n lambda_min, and
    y1 + y2 >= 2 lambda_min makes that smaller than the corner bound.  So
    one test on the corner bound keeps every factor in range.
    """
    y1, y2, y12 = tau.tau1.imag, tau.tau2.imag, tau.tau12.imag
    corner = math.pi * (n + 0.5) ** 2 * (y1 + y2 + 2.0 * abs(y12))
    return corner <= _FACTOR_LOG


@dataclass(frozen=True)
class _LatticeForm:
    """The tau-only factors of the lattice terms on the box of one radius N.

    offsets[a] holds m + a/2 for m in [-N, N]; p[a] holds it down axis 1 and
    q[c] along axis 2.  With quad[2a + c] = tau1 p^2 + tau2 q^2 + 2 tau12 p q
    of the lattice class (a, c), shape (2N+1, 2N+1), a form holds one of two
    tables: tau_factor = exp(i pi quad) where the factors of radius N stay
    in double range (_in_factor_range), else quad itself for the per-term
    exp, and None for the other.
    """

    offsets: np.ndarray
    quad: np.ndarray | None
    tau_factor: np.ndarray | None

    @property
    def p(self) -> np.ndarray:
        return self.offsets[:, :, None]

    @property
    def q(self) -> np.ndarray:
        return self.offsets[:, None, :]


def _lattice_form(tau: PeriodMatrix, n: int) -> _LatticeForm:
    offsets = np.arange(-n, n + 1) + np.array([[0.0], [0.5]])
    p, q = offsets[:, :, None], offsets[:, None, :]
    pc, qc = p[[0, 0, 1, 1]], q[[0, 1, 0, 1]]
    quad = tau.tau1 * pc * pc + tau.tau2 * qc * qc + 2.0 * tau.tau12 * pc * qc
    if not _in_factor_range(tau, n):
        return _LatticeForm(offsets, quad, None)
    np.multiply(_IPI, quad, out=quad)
    return _LatticeForm(offsets, None, np.exp(quad, out=quad))


@lru_cache(maxsize=16)
def _unit_grid(n: int) -> np.ndarray:
    """The argument shifts of every characteristic on the box of radius n.

    Entry [8a + 4c + 2b + d] (the order of ALL_CHARACTERISTICS) is
    exp(i pi (p b + q d)) = (-1)^(m b + n d) i^(a b + c d), shape
    (2n+1, 2n+1): a unit, exact.  Shared, so read-only.
    """
    sign = np.where(np.arange(-n, n + 1) % 2 == 0, 1.0, -1.0)
    units = np.array([np.ones_like(sign), sign, np.ones_like(sign), 1j * sign])  # row 2a + b
    a, c, b, d = np.array(_ALL_BITS).T
    grid = units[2 * a + b][:, :, None] * units[2 * c + d][:, None, :]
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=64)
def _char_layout(chars: tuple[HalfCharacteristic, ...]) -> tuple[np.ndarray, ...]:
    """Where a characteristic set reads the lattice forms, and its argument shifts.

    Returns a and c (rows of offsets), 2a + c (rows of quad and tau_factor),
    8a + 4c + 2b + d (entries of _unit_grid), and b/2 and d/2 shaped
    (K, 1, 1); the arrays are shared, so they are read-only.
    """
    bits = np.array([c.bits for c in chars], dtype=np.intp)  # columns a, c, b, d
    a, c, b, d = bits.T
    half = 0.5 * bits[:, 2:, None, None]
    layout = (a, c, 2 * a + c, 8 * a + 4 * c + 2 * b + d, half[:, 0], half[:, 1])
    for array in layout:
        array.flags.writeable = False
    return layout


# A component u (or v) whose real part reaches this in size is evaluated at
# u - k (v - l), k (l) its rounded real part: the lattice phases 2 pi p u
# lose accuracy in proportion to |Re u|.  The harness evaluates no point
# with a real part beyond 1, so its values keep the unreduced path.
_REDUCE_RE = 2.0


def _lattice_terms(chars, points, cd: CurveData, radius: int):
    """Lattice terms of every characteristic at every point, shape (P, K, 2N+1, 2N+1).

    N is radius, the truncation radius the points share.  Entry [i, k] holds
    the terms of chars[k] at points[i], m ascending along axis 2 and n along
    axis 3.  Each element goes through the same floating-point operations,
    in the same order, as a one-characteristic grid at one point.

    Factored, where the lattice form of cd at radius N has its tau factor:
    the term at lattice row p = m + a/2 and column q = n + c/2 is

        [exp(2 pi i p u) exp(2 pi i q v)] [exp(i pi quad) (-1)^(m b + n d) i^(a b + c d)]

    The first bracket depends on the point and the lattice class (a, c)
    alone: 4 (2N+1) exp calls and 4 (2N+1)^2 products per point.  The second
    depends on the characteristic alone: the tau factor times an exact unit,
    once per grid.  So each term costs one complex product.  Otherwise each
    term is one exp of i pi (quad + 2 p (u + b/2) + 2 q (v + d/2)).  exp
    overflow and a non-finite argument are not reported here; either shows
    up as a non-finite term when the rows are summed.
    """
    form = cd._form(radius)
    a, c, lattice, code, half_b, half_d = _char_layout(tuple(chars))
    p, q = form.p[a], form.q[c]
    z = np.array([(point.u, point.v) for point in points], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = None
        far = np.abs(z.real) >= _REDUCE_RE
        if far.any():
            # theta[c](u + k, v + l) = (-1)^(a k + c l) theta[c](u, v): the
            # terms at (u - k, v - l), k and l the rounded real parts of the
            # far components, times that sign; x - rint(x) is exact, and so
            # is the sign
            shift = np.where(far, np.rint(z.real), 0.0)
            z -= shift
        if form.tau_factor is None:
            u, v = z[:, 0, None, None, None], z[:, 1, None, None, None]
            # the exponent becomes the terms in place, one (P, K, 2N+1, 2N+1)
            # array; sums and products commute exactly, so the operations
            # are unchanged
            terms = p * (u + half_b) + q * (v + half_d)
            terms *= 2.0
            np.add(form.quad[lattice], terms, out=terms)
            np.multiply(_IPI, terms, out=terms)
            np.exp(terms, out=terms)
        else:
            width = 2 * radius + 1
            # exp(2 pi i (m + a/2) z) for z = u, v and a = 0, 1: (P, 2, 2, 2N+1)
            factors = np.exp(_TWO_PI_I * (form.offsets * z[:, :, None, None]))
            # row times column factor of each lattice class, [i, 2a + c]
            classes = factors[:, 0, :, None, :, None] * factors[:, 1, None, :, None, :]
            terms = classes.reshape(len(z), 4, width, width)[:, lattice]
            terms *= form.tau_factor[lattice] * _unit_grid(radius)[code]
        if shift is not None:
            odd = np.abs(np.fmod(shift, 2.0))  # k mod 2, NaN for an infinite k
            sign = 1.0 - 2.0 * np.fmod(odd[:, 0, None] * a + odd[:, 1, None] * c, 2.0)
            terms *= sign[:, :, None, None]
    return p, q, terms


# A grid holds the points of one truncation radius and at most this many
# lattice terms in all: characteristics x (2N+1)^2 per point, times three
# jets for gradients.  A point over the budget on its own gets a grid to
# itself.  The budget bounds the kernel's temporaries, a few arrays of the
# grid's size, however many points a batch holds; past a few thousand terms
# a larger grid saves little per-call overhead.
_GRID_TERMS = 8192


def _by_grid(radii, item_terms, evaluate) -> list:
    """evaluate(n, indices) over bounded grids, the results in input order.

    radii[i] is the truncation radius of item i.  Items are grouped by radius,
    in order of first appearance, and each group is cut, in input order, into
    grids of at most _GRID_TERMS terms, item_terms(n) per item.  evaluate
    returns one result per index it is given.
    """
    if len(radii) == 1:
        return evaluate(radii[0], [0])
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(radii):
        groups.setdefault(n, []).append(i)
    out = [None] * len(radii)
    for n, items in groups.items():
        step = max(1, _GRID_TERMS // item_terms(n))
        for start in range(0, len(items), step):
            grid = items[start : start + step]
            for i, result in zip(grid, evaluate(n, grid), strict=True):
                out[i] = result
    return out


def _fsum(row: list[float]) -> float:
    try:
        return math.fsum(row)
    except (ValueError, OverflowError) as exc:
        raise TruncationOverflow(f"lattice sum left double range: {exc}") from exc


# rows whose largest term reaches this go to math.fsum; below it the
# splitting constant of exact_row_sums stays far from overflow
_EXACT_MAX = 2.0**900
_TINY = 2.0**-1074  # smallest positive double


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a real (R, T) array.

    Equal bit for bit to math.fsum of each row, computed with array
    operations (Rump, Ogita and Oishi, Accurate floating-point summation,
    Part I, SIAM J. Sci. Comput. 31, 2008).  With max|x| < 2^e over all
    the rows and sigma = 2^(e+M), 2^M >= T + 2, each term splits exactly
    into hi = (sigma + x) - sigma and lo = x - hi.  The hi parts are
    multiples of ulp(sigma)/2 whose partial sums stay below sigma, so their
    sum is exact in any order; the sum of the lo parts is off by at most
    2 T^2 2^-106 sigma.  TwoSum folds the two into res + err, and res is the
    correctly rounded sum when |err| plus that bound is below half the gap
    from res to its nearer neighbour.  A row that is not settled this way
    has the same exact sum as the row of its hi sum and lo parts.  When its
    terms cancelled, or are all far below the largest term of the rows, the
    largest of those is far below sigma, so one more pass on that row, split
    at its own largest part, works on a much finer grid.  Rows still
    unsettled are summed with math.fsum, and so is every row when some term
    reaches 2^900.

    A non-finite term, or a sum beyond double range, raises
    TruncationOverflow.
    """
    top = np.abs(rows).max(initial=0.0)
    if not top < _EXACT_MAX:
        if not np.isfinite(top):
            raise TruncationOverflow("lattice sum left double range: non-finite term")
        return np.array([_fsum(row) for row in rows.tolist()])
    return _split_sums(rows, top, refine=True)


def _split_sums(rows: np.ndarray, amax, refine: bool) -> np.ndarray:
    """exact_row_sums of finite rows below 2^900.

    amax bounds max|x| of each row: one value for all rows, or a column of
    one per row.  One value gives one split constant, computed on Python
    floats, which costs less than numpy's scalar calls.
    """
    width = rows.shape[1]
    shift = (width + 1).bit_length()
    # sigma is a power of two, so the product in the bound is exact unless it
    # underflows, and _TINY covers that rounding
    lo_error = 2.0 * width * width * 2.0**-106
    if np.ndim(amax) == 0:
        sigma = math.ldexp(1.0, math.frexp(amax)[1] + shift)
        bound = sigma * lo_error + _TINY
    else:
        sigma = np.ldexp(1.0, np.frexp(amax)[1] + shift)
        bound = sigma[:, 0] * lo_error + _TINY
    part = rows + sigma  # hi, then lo in place
    part -= sigma
    high = part.sum(axis=1)
    np.subtract(rows, part, out=part)
    low = part.sum(axis=1)
    res = high + low
    back = res - high
    err = (high - (res - back)) + (low - back)
    # the spacing just below |res| is the smaller of the two gaps around res;
    # every value here is finite, so >= is the negation of <
    half_gap = 0.5 * np.spacing(np.nextafter(np.abs(res), 0.0))
    bad = np.abs(err) + bound >= half_gap
    if not bad.any():
        return res
    bad = np.nonzero(bad)
    if refine:
        exact = np.column_stack((high[bad], part[bad]))
        res[bad] = _split_sums(exact, np.abs(exact).max(axis=1, keepdims=True), refine=False)
    else:
        res[bad] = [_fsum(row) for row in rows[bad].tolist()]
    return res


def complex_row_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a complex (R, T) array.

    The real and imaginary parts are summed in one exact_row_sums call.
    """
    count = len(rows)
    sums = exact_row_sums(np.concatenate((rows.real, rows.imag)))
    out = np.empty(count, dtype=np.complex128)
    out.real = sums[:count]
    out.imag = sums[count:]
    return out


def _grid_sums(terms: np.ndarray) -> np.ndarray:
    """complex_row_sums over the last two axes."""
    rows = terms.reshape(-1, terms.shape[-2] * terms.shape[-1])
    return complex_row_sums(rows).reshape(terms.shape[:-2])


def _jet_terms(p, q, terms):
    """The d/du and d/dv terms, (2 pi i p) terms and (2 pi i q) terms.

    Term-wise differentiation of the series; p and q are the lattice rows
    _lattice_terms returned with terms, or the same rows of them.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms raise when summed
        return (_TWO_PI_I * p) * terms, (_TWO_PI_I * q) * terms


_ALL_BITS = tuple(c.bits for c in ALL_CHARACTERISTICS)
# The null gradients CurveData keeps: those of the odd theta[10;10] and
# theta[11;10], whose u and v derivatives at the origin give the flow
# constants; the even gradients vanish there.
_NULL_GRAD_BITS = ((1, 0, 1, 0), (1, 1, 1, 0))
_EVEN_BITS = tuple(c.bits for c in EVEN_CHARACTERISTICS)
# The characteristics of the grid at the origin: the even ones, whose rows
# give the nulls, then the two odd ones whose jets give the null gradients.
_ORIGIN_CHARS = EVEN_CHARACTERISTICS + tuple(HalfCharacteristic(*bits) for bits in _NULL_GRAD_BITS)

# Per-tau data is kept for this many period matrices, least recently used
# dropped first, so a process sweeping many of them keeps a fixed footprint;
# a verification run reuses about twenty.
_NULL_CACHE_TAUS = 64
# Lattice forms kept per period matrix, oldest dropped first; the checks at
# sampled points use two or three radii.
_FORMS_PER_CURVE = 4


@dataclass(frozen=True, eq=False)
class CurveData:
    """What the theta functions of one period matrix share at every point.

    Built on construction, from one grid at the origin whose rows are
    summed together: nulls, all sixteen theta[c](0, 0) keyed by c.bits,
    where the six odd ones are exactly 0 and are not summed (on the box they
    leave only its unpaired edge, a sum far below the terms that only
    math.fsum can round); null_grads, (d/du, d/dv) theta[c](0, 0) for the
    two odd c = [10;10] and [11;10], keyed by c.bits, from the same lattice
    terms; and null_scale, the largest |theta[c](0, 0)| over the even c.
    Built on first use and then kept: moduli (the ModuliSet) and
    flow_constants (the FlowConstants); a build that raises keeps nothing,
    so every later access raises again.  Other gradients at the origin come
    from grads_at.  The lattice forms (the tau factor, or the quadratic
    form, of each lattice class) are kept for each truncation radius used,
    at most _FORMS_PER_CURVE of them.

    curve_data(tau, ctrl) keeps one CurveData per (tau, ctrl).
    """

    tau: PeriodMatrix
    ctrl: SeriesControl
    nulls: Mapping[tuple[int, int, int, int], complex] = field(init=False)
    null_grads: Mapping[tuple[int, int, int, int], tuple[complex, complex]] = field(init=False)
    null_scale: float = field(init=False)
    _forms: dict[int, _LatticeForm] = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        # one grid at the origin: the ten even null rows, then the d/du and
        # the d/dv rows of the two odd characteristics, summed together
        radius = truncation_radius(self.tau, ORIGIN, self.ctrl)
        p, q, terms = _lattice_terms(_ORIGIN_CHARS, (ORIGIN,), self, radius)
        even = len(_EVEN_BITS)
        jets = _jet_terms(p[even:], q[even:], terms[:, even:])
        sums = _grid_sums(np.concatenate((terms[:, :even], *jets), axis=1))[0].tolist()
        values, du, dv = sums[:even], sums[even : even + 2], sums[even + 2 :]
        nulls = dict.fromkeys(_ALL_BITS, 0j)
        nulls.update(zip(_EVEN_BITS, values))
        object.__setattr__(self, "nulls", MappingProxyType(nulls))
        grads = dict(zip(_NULL_GRAD_BITS, zip(du, dv)))
        object.__setattr__(self, "null_grads", MappingProxyType(grads))
        object.__setattr__(self, "null_scale", max(abs(value) for value in values))

    # moduli.py and flow.py, which define these results, import this module,
    # so their build functions are imported at first use
    @cached_property
    def moduli(self):
        from .moduli import build_moduli

        return build_moduli(self)

    @cached_property
    def flow_constants(self):
        from .flow import build_flow_constants

        return build_flow_constants(self)

    def values_at(self, chars, points) -> list[list[complex]]:
        """theta[c](point) for every point (outer) and c in chars (inner).

        The points are evaluated on bounded grids of one radius each (_by_grid).
        """

        def grid(n, idx):
            _, _, terms = _lattice_terms(chars, [points[i] for i in idx], self, n)
            return _grid_sums(terms).tolist()

        return self._on_grids(chars, points, 1, grid)

    def grads_at(
        self, chars, points
    ) -> tuple[list[list[complex]], list[list[tuple[complex, complex]]]]:
        """Values and (d theta/du, d theta/dv) at every point, on the grids of values_at.

        Gradients come from term-wise differentiation of the series; both lists
        are indexed [point][characteristic] like values_at.
        """

        def grid(n, idx):
            p, q, terms = _lattice_terms(chars, [points[i] for i in idx], self, n)
            values, du, dv = _grid_sums(np.stack((terms, *_jet_terms(p, q, terms)))).tolist()
            return [(vals, list(zip(du_i, dv_i))) for vals, du_i, dv_i in zip(values, du, dv)]

        jets = self._on_grids(chars, points, 3, grid)
        return [vals for vals, _ in jets], [grads for _, grads in jets]

    def table(self, chars, point: Point2) -> dict[tuple[int, int, int, int], complex]:
        """theta[c](point) keyed by c.bits, from one grid."""
        return {c.bits: v for c, v in zip(chars, self.values_at(chars, (point,))[0])}

    def _on_grids(self, chars, points, jets, grid):
        radii = [truncation_radius(self.tau, point, self.ctrl) for point in points]
        per_point = jets * len(chars)
        return _by_grid(radii, lambda n: per_point * (2 * n + 1) ** 2, grid)

    def _form(self, n: int) -> _LatticeForm:
        form = self._forms.get(n)
        if form is None:
            if len(self._forms) >= _FORMS_PER_CURVE:
                self._forms.pop(next(iter(self._forms)), None)
            form = self._forms[n] = _lattice_form(self.tau, n)
        return form


@lru_cache(maxsize=_NULL_CACHE_TAUS)
def _curve_data(tau: PeriodMatrix, ctrl: SeriesControl) -> CurveData:
    return CurveData(tau, ctrl)


def curve_data(tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()) -> CurveData:
    """The CurveData of (tau, ctrl), kept for the last _NULL_CACHE_TAUS period matrices."""
    return _curve_data(tau, ctrl)


def theta2(
    c: HalfCharacteristic,
    point: Point2,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> complex:
    """theta[c](point), read from the CurveData of (tau, ctrl)."""
    return curve_data(tau, ctrl).values_at((c,), (point,))[0][0]


def theta2_grad(
    c: HalfCharacteristic,
    point: Point2,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> tuple[complex, complex]:
    """(d theta/du, d theta/dv) by term-wise differentiation of the series."""
    return curve_data(tau, ctrl).grads_at((c,), (point,))[1][0][0]
