"""Genus-2 theta functions with half-integer characteristics.

The basic object is the two-variable series

    theta[a c; b d](u, v) = sum_{m,n in Z} exp{ i*pi*( tau1*(m+a/2)^2
        + tau2*(n+c/2)^2 + 2*tau12*(m+a/2)*(n+c/2) )
        + 2*i*pi*( (m+a/2)*(u+b/2) + (n+c/2)*(v+d/2) ) }

for bits a, b, c, d in {0, 1} and a period matrix (tau1, tau12; tau12, tau2)
with positive-definite imaginary part.  The lattice sum is truncated to a
square box whose radius comes from the Gaussian decay of the summand.

What depends on the period matrix alone is built once, in its CurveData:
on construction, from one grid at the origin, the sixteen nulls, the null
scale max |theta[even](0)| and the null gradients of the two odd
characteristics [10;10] and [11;10], which the flow constants read; on first
use, the moduli and the flow constants, each kept once built (a build that
raises keeps nothing and raises again on the next access); and, per truncation
radius used, the quadratic forms tau1 p^2 + tau2 q^2 + 2 tau12 p q of the
four lattice classes (a, c), from which every grid gathers its rows.
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

Also here: parity of a characteristic, the relative residual _rel that the
identity checks of every layer report, and the half/full period shift rules
expressing theta at a shifted argument through theta at the original one.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
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
    "exact_row_sums",
    "complex_row_sums",
    "CurveData",
    "curve_data",
    "theta2",
    "theta2_grad",
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


@dataclass(frozen=True)
class _LatticeForm:
    """The tau-only factors of the lattice terms on the box of one radius N.

    p[a] holds m + a/2 down axis 1 and q[c] holds n + c/2 along axis 2, for
    m, n in [-N, N]; quad[2a + c] is tau1 p^2 + tau2 q^2 + 2 tau12 p q of the
    lattice class (a, c), shape (2N+1, 2N+1).
    """

    p: np.ndarray
    q: np.ndarray
    quad: np.ndarray


def _lattice_form(tau: PeriodMatrix, n: int) -> _LatticeForm:
    idx = np.arange(-n, n + 1, dtype=np.float64)
    half = np.array([0.0, 0.5])[:, None, None]
    p = idx[None, :, None] + half
    q = idx[None, None, :] + half
    pc, qc = p[[0, 0, 1, 1]], q[[0, 1, 0, 1]]
    quad = tau.tau1 * pc * pc + tau.tau2 * qc * qc + 2.0 * tau.tau12 * pc * qc
    return _LatticeForm(p, q, quad)


@lru_cache(maxsize=64)
def _char_layout(chars: tuple[HalfCharacteristic, ...]) -> tuple[np.ndarray, ...]:
    """Where a characteristic set reads the lattice forms, and its argument shifts.

    Returns a and c (rows of p and q), 2a + c (rows of quad), and b/2 and
    d/2 shaped (K, 1, 1); the arrays are shared, so they are read-only.
    """
    bits = np.array([c.bits for c in chars], dtype=np.intp)  # columns a, c, b, d
    half = 0.5 * bits[:, 2:, None, None]
    layout = (bits[:, 0], bits[:, 1], 2 * bits[:, 0] + bits[:, 1], half[:, 0], half[:, 1])
    for array in layout:
        array.flags.writeable = False
    return layout


def _lattice_terms(chars, points, cd: CurveData, radius: int):
    """Lattice terms of every characteristic at every point, shape (P, K, 2N+1, 2N+1).

    N is radius, the truncation radius the points share.  Entry [i, k] holds
    the terms of chars[k] at points[i], m ascending along axis 2 and n along
    axis 3.  Each element goes through the same floating-point operations,
    in the same order, as a one-characteristic grid at one point: the
    quadratic form of each row is gathered from the lattice forms of cd at
    radius N, and the linear term of each point is added to it.  exp
    overflow and a non-finite argument are not reported here; either shows
    up as a non-finite term when the rows are summed.
    """
    form = cd._form(radius)
    a, c, lattice, half_b, half_d = _char_layout(tuple(chars))
    p, q = form.p[a], form.q[c]
    u = np.array([point.u for point in points], dtype=np.complex128)[:, None, None, None]
    v = np.array([point.v for point in points], dtype=np.complex128)[:, None, None, None]
    # the exponent becomes the terms in place, one (P, K, 2N+1, 2N+1) array;
    # sums and products commute exactly, so the operations are unchanged
    with np.errstate(over="ignore", invalid="ignore"):
        terms = p * (u + half_b) + q * (v + half_d)
        terms *= 2.0
        np.add(form.quad[lattice], terms, out=terms)
        np.multiply(_IPI, terms, out=terms)
        np.exp(terms, out=terms)
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
    two_pi_i = 2j * math.pi
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite terms raise when summed
        return (two_pi_i * p) * terms, (two_pi_i * q) * terms


_ALL_BITS = tuple(c.bits for c in ALL_CHARACTERISTICS)
# The null gradients CurveData keeps: those of the odd theta[10;10] and
# theta[11;10], whose u and v derivatives at the origin give the flow
# constants; the even gradients vanish there.
_NULL_GRAD_BITS = ((1, 0, 1, 0), (1, 1, 1, 0))

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
    summed together: nulls, all sixteen theta[c](0, 0) keyed by c.bits;
    null_grads, (d/du, d/dv) theta[c](0, 0) for the two odd c = [10;10] and
    [11;10], keyed by c.bits, from the same lattice terms; and null_scale,
    the largest |theta[c](0, 0)| over the even c.  Built on first use and
    then kept: moduli (the ModuliSet) and flow_constants (the
    FlowConstants); a build that raises keeps nothing, so every later access
    raises again.  Other gradients at the origin come from grads_at.  The
    lattice forms (the quadratic form of each lattice class) are kept for
    each truncation radius used, at most _FORMS_PER_CURVE of them.

    curve_data(tau, ctrl) keeps one CurveData per (tau, ctrl).
    """

    tau: PeriodMatrix
    ctrl: SeriesControl
    nulls: Mapping[tuple[int, int, int, int], complex] = field(init=False)
    null_grads: Mapping[tuple[int, int, int, int], tuple[complex, complex]] = field(init=False)
    null_scale: float = field(init=False)
    _forms: dict[int, _LatticeForm] = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        # one grid at the origin: the sixteen null rows, then the d/du and the
        # d/dv rows of the two odd characteristics, summed together
        radius = truncation_radius(self.tau, ORIGIN, self.ctrl)
        p, q, terms = _lattice_terms(ALL_CHARACTERISTICS, (ORIGIN,), self, radius)
        odd = [_ALL_BITS.index(bits) for bits in _NULL_GRAD_BITS]
        jets = _jet_terms(p[odd], q[odd], terms[:, odd])
        sums = _grid_sums(np.concatenate((terms, *jets), axis=1))[0].tolist()
        values, du, dv = sums[:16], sums[16:18], sums[18:]
        nulls = MappingProxyType(dict(zip(_ALL_BITS, values)))
        object.__setattr__(self, "nulls", nulls)
        grads = dict(zip(_NULL_GRAD_BITS, zip(du, dv)))
        object.__setattr__(self, "null_grads", MappingProxyType(grads))
        scale = max(abs(nulls[c.bits]) for c in EVEN_CHARACTERISTICS)
        object.__setattr__(self, "null_scale", scale)

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
