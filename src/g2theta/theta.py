"""Genus-2 theta functions with half-integer characteristics.

The basic object is the two-variable series

    theta[a c; b d](u, v) = sum_{m,n in Z} exp{ i*pi*( tau1*(m+a/2)^2
        + tau2*(n+c/2)^2 + 2*tau12*(m+a/2)*(n+c/2) )
        + 2*i*pi*( (m+a/2)*(u+b/2) + (n+c/2)*(v+d/2) ) }

for bits a, b, c, d in {0, 1} and a period matrix (tau1, tau12; tau12, tau2)
with positive-definite imaginary part.  The lattice sum is truncated to a
box (N1, N2), m in [-N1, N1] and n in [-N2, N2]: for a genus-2 value a
square box whose radius comes from the Gaussian decay of the summand, and
for a genus-1 theta[a; b](z, t), which the degeneration layer reads as
theta[a 0; b 0]((z, 0); diag(t, t)), the box (N, 0), whose terms are those
of the one-variable series.  One kernel does both, every step below.

The kernel sums each lattice class (a, c) once for all four of its
characteristics.  With p = m + a/2, q = n + c/2 and
quad = tau1 p^2 + tau2 q^2 + 2 tau12 p q, a term is

    [exp(2 pi i p u) exp(2 pi i q v) exp(i pi quad)] (-1)^(m b + n d) i^(a b + c d)

The bracket, the class term, depends on the point and (a, c) alone, and
the exact unit on (b, d) and the parities of m and n.  The class term is
factored (Deconinck et al., Computing Riemann theta functions, Math. Comp.
73, 2004): a row of exp(2 pi i p u) per bit a and a column of
exp(2 pi i q v) per bit c that a request reads, at most 4 (2N+1) exp
calls per point, and one complex product per term, while the factors stay
within exp(+-700) (_in_factor_range; at DEFAULT_TAU up to N = 8), else one
exp per class term.  Against a 30-digit mpmath sum
over 80 points with |Re| <= 1 and |Im| <= 0.4, values are within 6.6e-16
and 1.25e-15 of max(1, |theta|), and gradients within 9.6e-16 and 2.7e-15,
at DEFAULT_TAU and at (0.2+1.4i, -0.1+0.95i, 0.03+0.3i).

Every output is the correctly rounded sum of its own row of terms, the
bits math.fsum gives.  The kernel takes two steps: it makes a request's
terms, _class_terms on a grid of points, or a one-point row's factored
product (_point_row), and certifies them, _certify.  The class terms are
split once into hi + lo, as in exact_row_sums, and hi and lo are each
summed four ways, signed by (-1)^(m b + n d).  Sums of hi parts are exact
under any signs and in any order, and the error bound of the lo sum holds
for any summation tree, so a characteristic's high and low, its unit
applied as a swap or negation of real and imaginary parts, certify its own
row; the row of an output left unsettled is gathered from the same terms
and summed by exact_row_sums.  So every output is bit-reproducible and does
not depend on what was evaluated with it.
What a request (the characteristics of its values and gradients) reads on
one box is built once for every period matrix, a _Plan that picks its
classes' tables from the lattice form.  One point's request of at most 4
outputs folds its split terms by the plan's fold, a matrix of 0 and +-1,
into each output's signed high and low sums and certifies them on Python
floats; every other request, and a one-point row that leaves a part
unsettled there, certifies on arrays.  The same bits each way.

A component with |Re| >= 2 (_REDUCE_RE) is evaluated at u - k, k its
rounded real part, and its terms take the exact sign of
theta[c](u + k, v + l) = (-1)^(a k + c l) theta[c](u, v).

Theta values come from a per-tau object built once by its caller and
passed in, whose kernel driver (_Kernel) evaluates values (values_at), or
values and gradients (rows_at), of any characteristics at any number of
points, on grids of one truncation radius N and at most _GRID_TERMS class
and jet terms, so memory stays bounded however many points a batch holds:
CurveData on the boxes (N, N), and the degeneration layer's Genus1Data on
the boxes (N, 0).  The nulls of a CurveData come from one path,
_origin_grid: one origin grid on the stacked lattice forms of period
matrices of one radius, a CurveData being a stack of one and curve_batch
stacking many.  For callers that hold only
a period matrix, curve_data keeps the CurveData of the last
_NULL_CACHE_TAUS of them, and theta2 reads one value from it; the harness
and the CLI build their own CurveData and never read it.

Also here: a characteristic, a validated bit tuple whose is_odd is its
parity, and the relative residual _rel that the identity checks of every
layer report.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DegenerateTau, DivisionByZeroModulus, G2ThetaError, TruncationOverflow

__all__ = [
    "HalfCharacteristic",
    "PeriodMatrix",
    "Point2",
    "SeriesControl",
    "ALL_CHARACTERISTICS",
    "EVEN_CHARACTERISTICS",
    "DEFAULT_TAU",
    "truncation_radius",
    "exact_row_sums",
    "CurveData",
    "curve_batch",
    "curve_data",
    "theta2",
]

_IPI = 1j * math.pi
_TWO_PI_I = 2j * math.pi


class HalfCharacteristic(namedtuple("HalfCharacteristic", "a c b d")):
    """Four bits laid out [a c; b d]; (a, c) index the lattice, (b, d) the argument.

    A characteristic equals and hashes as its bit tuple (a, c, b, d), so a
    table keyed by characteristics can be read by bits and the other way round.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, a: int, c: int, b: int, d: int):
        for name, bit in zip(cls._fields, (a, c, b, d)):
            if bit not in (0, 1):
                raise ValueError(f"characteristic bit {name} must be 0 or 1")
        return super().__new__(cls, a, c, b, d)

    @property
    def is_odd(self) -> bool:
        return (self.a * self.b + self.c * self.d) % 2 == 1

    def label(self) -> str:
        return f"{self.a}{self.c}{self.b}{self.d}"


ALL_CHARACTERISTICS = tuple(HalfCharacteristic(*bits) for bits in itertools.product((0, 1), repeat=4))
EVEN_CHARACTERISTICS = tuple(x for x in ALL_CHARACTERISTICS if not x.is_odd)


def _rel(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|)): the residual of an identity lhs = rhs."""
    a, b = abs(lhs), abs(rhs)  # max() inline, the first of equals kept
    return abs(lhs - rhs) / (1.0 + (b if b > a else a))


class PeriodMatrix(namedtuple("PeriodMatrix", "tau1 tau2 tau12")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, tau1: complex, tau2: complex, tau12: complex):
        self = super().__new__(cls, tau1, tau2, tau12)
        if not all(cmath.isfinite(entry) for entry in self):
            raise DegenerateTau(f"period matrix entries must be finite, got {self}")
        y1, y2, y12 = tau1.imag, tau2.imag, tau12.imag
        # positive definiteness of Im tau via leading minors
        if not (y1 > 0.0 and y1 * y2 - y12 * y12 > 0.0):
            raise DegenerateTau(
                f"Im tau not positive definite: Im tau1={y1}, det={y1 * y2 - y12 * y12}"
            )
        return self

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


class Point2(namedtuple("Point2", "u v")):
    __slots__ = ()


class SeriesControl(namedtuple("SeriesControl", "tol max_radius")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, tol: float = 1e-14, max_radius: int = 64):
        if not 0.0 < tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {tol}")
        if max_radius < 4:
            raise ValueError("max_radius must be at least 4")
        return super().__new__(cls, tol, max_radius)


DEFAULT_TAU = PeriodMatrix(0.1 + 1.1j, -0.15 + 1.3j, 0.05 + 0.25j)

ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)


def truncation_radius(tau: PeriodMatrix, point: Point2, ctrl: SeriesControl) -> int:
    """Box radius N so the lattice tail beyond N is below ctrl.tol relatively.

    The summand decays like exp(-pi*lmin*(r - r0)^2), lmin the smallest
    eigenvalue of Im tau; r0 = (|Im u| + |Im v|)/lmin accounts for the
    argument pulling the Gaussian peak off the origin.
    """
    return _radius(point, *_decay(tau.lambda_min, ctrl.tol), ctrl.max_radius)


def _decay(lmin: float, tol: float) -> tuple[float, float]:
    """lmin, and how far past r0 a summand decaying at rate lmin stays above tol."""
    return lmin, math.sqrt(math.log(1.0 / tol) / (math.pi * lmin))


def _radius(point: Point2, lmin: float, reach: float, max_radius: int) -> int:
    """truncation_radius from the _decay of the period matrix."""
    u, v = point
    reach = (abs(u.imag) + abs(v.imag)) / lmin + reach
    if not math.isfinite(reach):
        raise TruncationOverflow(f"required radius is not finite ({reach}) at {point}")
    n = int(math.floor(reach)) + 1
    if n > max_radius:
        raise TruncationOverflow(f"required radius {n} exceeds max_radius {max_radius}")
    return n


def _radii(points, lmin: float, reach: float, max_radius: int) -> list[int]:
    """_radius of every point, by its float operations in one array pass."""
    im = np.abs(np.fromiter(itertools.chain.from_iterable(points), np.complex128, 2 * len(points)).imag)
    radii = np.floor((im[0::2] + im[1::2]) / lmin + reach) + 1.0
    fits = radii <= max_radius  # False where not finite
    if not fits.all():
        _radius(points[fits.argmin()], lmin, reach, max_radius)  # raises the first bad point's error
    return radii.astype(int).tolist()


# On the factored path every factor, and a row times a column factor, has
# |log| <= _FACTOR_LOG: exp(-700) is a normal double and exp(700) is finite,
# so each keeps its full relative precision.  Only a term that underflows
# when the tau factor multiplies in loses precision, and it is below 2^-1022.
_FACTOR_LOG = 700.0


def _in_factor_range(tau: PeriodMatrix, shape: tuple[int, int]) -> bool:
    """Whether the lattice terms of the box (N1, N2) may be built from factors.

    pi Im quad, the -log of the tau factor, is largest at a corner of the
    square box of radius n = max(N1, N2), which holds the box.  A point of
    radius n has |Im u| + |Im v| < n lambda_min, so its row times column
    factor stays within exp(2 pi (n + 1/2) n lambda_min), below the corner
    bound as y1 + y2 >= 2 lambda_min.
    """
    y1, y2, y12 = tau.tau1.imag, tau.tau2.imag, tau.tau12.imag
    corner = math.pi * (max(shape) + 0.5) ** 2 * (y1 + y2 + 2.0 * abs(y12))
    return corner <= _FACTOR_LOG


class _LatticeForm(namedtuple("_LatticeForm", "quad tau_factor")):
    """The tau-only factors of the lattice terms on one box (N1, N2).

    quad[t, 2a + c] is the (2N1+1, 2N2+1) table of tau1 p^2 + tau2 q^2 + 2
    tau12 p q of period matrix t (one, or a stack), p = down[a] and
    q = across[c] (_box); a form keeps tau_factor = exp(i pi quad) where
    every t is _in_factor_range, else quad itself, and None for the other.
    """

    __slots__ = ()


@lru_cache(maxsize=16)
def _box(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The box (N1, N2): down[a] holding m + a/2 for m in [-N1, N1], across[c]
    holding n + c/2 for n in [-N2, N2], and the p and q of the four class
    tables of a _lattice_form (axis 1), as complex: each product of a form
    would cast them to complex again.  Shared, so read-only."""
    down, across = (np.arange(-n, n + 1) + np.array([[0.0], [0.5]]) for n in shape)
    p, q = down[:, :, None].astype(np.complex128), across[:, None, :].astype(np.complex128)
    box = down, across, p[None, [0, 0, 1, 1]], q[None, [0, 1, 0, 1]]
    for array in box:
        array.flags.writeable = False
    return box


def _lattice_form(taus, shape: tuple[int, int]) -> _LatticeForm:  # taus all in _in_factor_range, or none
    _, _, pc, qc = _box(shape)
    # each product on the way to i pi quad is within pi size; a form that may leave
    # double range is built quietly, and its non-finite terms raise when summed
    size = max([abs(t1) + abs(t2) + 2.0 * abs(t12) for t1, t2, t12 in taus]) * (max(shape) + 0.5) ** 2
    quiet = not math.isfinite(4.0 * math.pi * size)
    # one's scalars, else arrays over a stack
    t1, t2, t12 = taus[0] if len(taus) == 1 else np.array(taus).T[:, :, None, None, None]
    with np.errstate(over="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
        quad = t1 * pc * pc + t2 * qc * qc + 2.0 * t12 * pc * qc
        if not all(_in_factor_range(tau, shape) for tau in taus):
            return _LatticeForm(quad, None)
        np.multiply(_IPI, quad, out=quad)
        return _LatticeForm(None, np.exp(quad, out=quad))


@lru_cache(maxsize=16)
def _parity_signs(shape: tuple[int, int]) -> np.ndarray:
    """The signs (-1)^(m b + n d) that sum a class grid once per (b, d).

    A class grid of W1 W2 terms on the box (N1, N2), W = 2N + 1, read as
    2 W1 W2 doubles (parts r = 0, 1 interleaved), times this (2 W1 W2, 8)
    matrix gives part r of its signed sum for (b, d) in column 2 (2b + d) + r.
    Shared, so read-only.
    """
    # (-1)^(m b) at [b, m], then (-1)^(n d) at [d, n]
    down, across = (np.array([np.ones(2 * n + 1), (-1.0) ** np.arange(-n, n + 1)]) for n in shape)
    signs = (down[:, None, :, None] * across[None, :, None, :]).reshape(4, -1)
    matrix = (signs.T[:, None, :, None] * np.eye(2)[None, :, None, :]).reshape(-1, 8)
    matrix.flags.writeable = False
    return matrix


class _Plan(
    namedtuple("_Plan", "select a c phases axis rows cols grid_class jets parity split columns signs fold terms")
):
    """What the grids of one request (theta[c] for c in values, then d/du and
    d/dv theta[c] for c in grads) read on one box, for every period matrix.

    The classes 2a + c read, ascending, have bits a and c and their tables
    at select of a lattice form.  A point's factors are exp(2 pi i phases
    z[axis]), z = (u, v): a row of 2N1+1 for each bit a read, then a column
    of 2N2+1 for each bit c read; rows[k] (a column) and cols[k] (a row)
    index the row and the column factors of class k.  Grid g, (jet, class)
    ascending, jet 1 and 2 the d/du and d/dv, is class grid_class[g] times
    jets[g] (None without grads).  Part r of output k is signs[2k + r]
    sums[columns[2k + r]], sums[8g + 2(2b + d) + r] being part r of grid g
    signed for (b, d) (parity).  fold, for a request of at most 4 outputs,
    holds that as one matrix of 0 and +-1 which a point's grids, as doubles,
    times give its 2R parts in output order; None for more outputs.
    terms counts the class and jet terms of one point's grids.
    """

    __slots__ = ()


@lru_cache(maxsize=64)
def _layout(values: tuple[HalfCharacteristic, ...], grads: tuple[HalfCharacteristic, ...], shape: tuple[int, int]):
    """The _Plan of a request on the box (N1, N2), no d/dv, exactly 0, on (N, 0).  Shared, so read-only."""
    wanted = [(c, 0) for c in values] + [(c, jet) for jet in (1, 2)[: 1 + (shape[1] > 0)] for c in grads]
    grids = sorted({(jet, 2 * c.a + c.c) for c, jet in wanted})
    classes = sorted({cls for _, cls in grids})
    columns, signs = [], []
    for c, jet in wanted:
        column = 8 * grids.index((jet, 2 * c.a + c.c)) + 2 * (2 * c.b + c.d)
        # the unit i^(ab + cd) takes (re, im) to (re, im), (-im, re) or (-re, -im)
        power = c.a * c.b + c.c * c.d
        columns += (column + power % 2, column + 1 - power % 2)
        signs += ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))[power]
    grid_class = [classes.index(cls) for _, cls in grids]
    down, across = _box(shape)[:2]
    jets = None
    if grads:
        jet, cls = np.array(grids).T
        jet = jet[:, None, None]
        cols = np.where(jet == 2, _TWO_PI_I * across[cls & 1, None, :], 1.0 + 0.0j)
        jets = np.where(jet == 1, _TWO_PI_I * down[cls >> 1, :, None], cols)
    # a slice, so the classes' tables are a view, unless the classes are {0, 1, 3} or {0, 2, 3}
    step = classes[-1] - classes[-2] if len(classes) > 1 else 1
    span = range(classes[0], classes[-1] + 1, step)
    select = slice(span.start, span.stop, step) if classes == list(span) else np.array(classes)
    classes = np.array(classes)
    a, c = classes >> 1, classes & 1
    # per point, one exp per lattice bit: rows of bits a, then columns of bits c; complex, as a product casts them
    row_bits, col_bits = sorted(set(a.tolist())), sorted(set(c.tolist()))
    phases = np.concatenate([down[bit] for bit in row_bits] + [across[bit] for bit in col_bits], dtype=np.complex128)
    height, width = down.shape[1], across.shape[1]
    axis = np.repeat([0, 1], [len(row_bits) * height, len(col_bits) * width])
    rows = (np.searchsorted(row_bits, a) * height)[:, None, None] + np.arange(height)[:, None]
    cols = (len(row_bits) * height + np.searchsorted(col_bits, c) * width)[:, None, None] + np.arange(width)
    columns, signs, grid_class = map(np.array, (columns, signs, grid_class))
    parity, fold = _parity_signs(shape), None
    if len(columns) <= 8:  # one point's at most 4 outputs: one product, no wider than parity, so it costs no more
        fold = np.kron(np.eye(len(grids)), parity) @ (np.eye(8 * len(grids))[:, columns] * signs)
    for array in (a, c, phases, axis, rows, cols, grid_class, columns, signs, jets, fold):
        if array is not None:
            array.flags.writeable = False
    split, terms = _split_constants(height * width), len(grid_class) * height * width
    return _Plan(select, a, c, phases, axis, rows, cols, grid_class, jets, parity, split, columns, signs, fold, terms)


# A component u (or v) whose real part reaches this in size is evaluated at
# u - k (v - l), k (l) its rounded real part: the phases 2 pi p u lose
# accuracy in proportion to |Re u|.  No harness point has |Re| beyond 1.
_REDUCE_RE = 2.0


def _class_terms(plan: _Plan, form: _LatticeForm, points) -> np.ndarray:
    """The class-jet grids of a _Plan on a lattice form at every point, shape
    (P, G, 2N1+1, 2N2+1), or at one point on each of T stacked forms, (T, ...).

    (N1, N2) is the plan's box; m ascends along axis 2 and n along axis 3.
    A non-finite real part raises; exp overflow of the per-term path shows
    up as a non-finite term when it is summed.
    """
    z = np.fromiter(itertools.chain.from_iterable(points), np.complex128, 2 * len(points)).reshape(-1, 2)
    quiet = form.tau_factor is None  # the factors stay within exp(+-700)
    with np.errstate(over="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
        shift = None
        # tested on Python floats, which for a grid's few points costs less than array calls
        if not all(abs(u.real) < _REDUCE_RE and abs(v.real) < _REDUCE_RE for u, v in points):
            if not np.isfinite(z.real).all():
                raise TruncationOverflow("lattice sum left double range: non-finite term")
            # the terms at (u - k, v - l) times (-1)^(a k + c l); x - rint(x)
            # is exact, and so is the sign
            shift = np.where(np.abs(z.real) >= _REDUCE_RE, np.rint(z.real), 0.0)
            z -= shift
        table = (form.quad if quiet else form.tau_factor)[:, plan.select]  # of one period matrix, or T
        if quiet:
            # the exponent becomes the terms in place
            u, v = z[:, 0, None, None, None], z[:, 1, None, None, None]
            terms = plan.phases[plan.rows] * u + plan.phases[plan.cols] * v
            terms *= 2.0
            terms = np.add(table, terms, out=terms if len(table) == 1 else None)
            np.multiply(_IPI, terms, out=terms)
            np.exp(terms, out=terms)
        elif points == (ORIGIN,):
            # every row and column factor is exp(0) = 1, so the terms are the tau factors
            terms = table.copy()
        else:
            # exp(2 pi i (m + a/2) u) per bit a and exp(2 pi i (n + c/2) v) per bit c,
            # then each class's row times its column: (P, G, 2N1+1, 2N2+1)
            factors = np.exp(_TWO_PI_I * (plan.phases * z[:, plan.axis]))
            terms = np.take(factors, plan.rows, axis=1) * np.take(factors, plan.cols, axis=1)
            terms = np.multiply(terms, table, out=terms if len(table) == 1 else None)
        if shift is not None:
            odd = np.abs(np.fmod(shift, 2.0))  # k mod 2
            sign = 1.0 - 2.0 * np.fmod(odd[:, 0, None] * plan.a + odd[:, 1, None] * plan.c, 2.0)
            terms *= sign[:, :, None, None]
        if plan.jets is not None:
            terms = terms[:, plan.grid_class] * plan.jets
    return terms


# A grid holds the points of one truncation radius and at most this many
# class and jet terms, (2N+1)^2 per class-jet grid of a point (_Plan.terms);
# a point over the budget on its own gets a grid to itself.  The budget
# bounds the kernel's temporaries however many points a batch holds; past a
# few thousand terms a larger grid saves little per-call overhead.
_GRID_TERMS = 8192


def _by_grid(radii, item_terms, evaluate) -> list:
    """evaluate(n, indices) over bounded grids, the results in input order.

    radii[i] is the truncation radius of item i (or a key).  Items are grouped
    by radius, in order of first appearance, and each group is cut, in input
    order, into grids of at most _GRID_TERMS terms, item_terms(n) per item.
    evaluate returns one result per index it is given.
    """
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
    from res to its nearer neighbour.  A row that is not settled this way,
    as when its terms cancel far below the largest term of the rows, is
    summed with math.fsum, and so is every row when some term reaches 2^900.
    Rows of zeros only sum to +0.0, as math.fsum gives them, with no pass.
    A non-finite term, or a sum past double range, raises TruncationOverflow.
    """
    top = np.abs(rows).max(initial=0.0)
    if not top:
        return np.zeros(len(rows))
    if not top < _EXACT_MAX:
        if not np.isfinite(top):
            raise TruncationOverflow("lattice sum left double range: non-finite term")
        return np.array([_fsum(row) for row in rows.tolist()])
    parts, bound = _split(rows, top, *_split_constants(rows.shape[1]))
    high, low = parts.sum(axis=2)
    res, bad = _settle(high, low, bound)
    if bad.any():
        res[bad] = [_fsum(row) for row in rows[bad].tolist()]
    return res


def _split_constants(terms: int) -> tuple[int, float]:
    """For rows of this many terms: log2 of sigma over 2^e, and the bound on a lo sum over sigma."""
    return (terms + 1).bit_length(), 2.0 * terms * terms * 2.0**-106


def _split(rows: np.ndarray, top: float, shift: int, lo_error: float):
    """The hi and lo parts of rows, max|x| <= top, split at sigma, stacked,
    and the bound on a lo sum."""
    # sigma is a power of two, so the product in the bound is exact unless it
    # underflows, and _TINY covers that rounding
    sigma = math.ldexp(1.0, math.frexp(top)[1] + shift)
    bound = sigma * lo_error + _TINY
    parts = np.empty((2, *rows.shape))
    high = np.add(rows, sigma, out=parts[0])
    high -= sigma
    np.subtract(rows, high, out=parts[1])
    return parts, bound


def _settle(high, low, bound):
    """res = high + low, and where it may not be the correctly rounded sum.

    TwoSum gives the rounding error of res; bound bounds the error of low.
    """
    res = high + low
    back = res - high
    err = (high - (res - back)) + (low - back)
    # the spacing just below |res| is the smaller of the two gaps around res;
    # every value here is finite, so >= is the negation of <
    half_gap = 0.5 * np.spacing(np.nextafter(np.abs(res), 0.0))
    return res, np.abs(err) + bound >= half_gap


def _grid_sums(values, grads, points, form: _LatticeForm, shape: tuple[int, int]) -> list[list[complex]]:
    """theta[c] for c in values, then d/du and d/dv theta[c] for c in grads (tuples), at every
    point (per period matrix of a stacked form; no d/dv on a box (N, 0)) on the form of this box
    shape (N1, N2): their _class_terms, certified."""
    plan = _layout(values, grads, shape)
    return _certify(plan, _class_terms(plan, form, points))


def _point_row(kernel: _Kernel, values, grads, point: Point2) -> list[list[complex]]:
    """rows_at of one point: a values request with |Re| < _REDUCE_RE in both components, on a
    form in _in_factor_range, takes its terms from its factors, as _class_terms would, others
    from _class_terms; each is certified once."""
    n = _radius(point, *kernel._radius_constants)
    form, shape = kernel._forms.get(n) or kernel._form(n), kernel._shape(n)
    plan = _layout(values, grads, shape)
    near = abs(point.u.real) < _REDUCE_RE and abs(point.v.real) < _REDUCE_RE
    if near and not grads and form.tau_factor is not None:
        factors = np.exp(_TWO_PI_I * (plan.phases * np.fromiter(point, np.complex128, 2)[plan.axis]))
        terms = factors[plan.rows] * factors[plan.cols]
        terms = np.multiply(terms, form.tau_factor[0, plan.select], out=terms)
    else:
        terms = _class_terms(plan, form, (point,))[0]
    return _certify(plan, terms)


def _certify(plan: _Plan, terms: np.ndarray) -> list[list[complex]]:
    """The rows of a _Plan's class-jet grids of terms at one point, (G, 2N1+1, 2N2+1), or at P
    points or stacked forms, (P, G, ...): R outputs each, every one the correctly rounded sum of
    its own row of terms.  One point with a fold certifies on Python floats where that settles
    every part, the others on arrays.  Only the parts left unsettled, and all parts when a
    term is non-finite or reaches 2^900, are gathered from terms for exact_row_sums."""
    flat = terms.view(np.float64).ravel()
    top = np.maximum.reduce(np.abs(flat))
    if top < _EXACT_MAX:
        parts, bound = _split(flat, top, *plan.split)
        if terms.ndim == 3 and plan.fold is not None:
            row = _settle_floats(*parts.dot(plan.fold).tolist(), bound)
            if row is not None:
                return [row]
        # each grid's parts signed for every (b, d), then gathered and signed in output order
        sums = parts.reshape(-1, len(plan.parity)).dot(plan.parity).reshape(2, -1, 8 * len(plan.grid_class))
        high, low = np.take(sums, plan.columns, axis=2) * plan.signs
        res, bad = _settle(high, low, bound)
        unsettled = np.flatnonzero(bad)
    else:
        res = np.empty((terms.size // plan.terms, len(plan.columns)))
        unsettled = np.arange(res.size)
    if len(unsettled):
        at, out = np.divmod(unsettled, len(plan.columns))
        column = plan.columns[out]
        parts = flat.reshape(len(res), len(plan.grid_class), -1, 2)[at, column // 8, :, column % 2]
        parts *= plan.parity[::2, column // 2 % 4 * 2].T * plan.signs[out, None]
        res[at, out] = exact_row_sums(parts)
    return res.view(np.complex128).tolist()


def _settle_floats(highs: list, lows: list, bound: float) -> list[complex] | None:
    """_settle on Python floats, from one point's high and low sums of every part in output
    order: its row, or None where a part is left unsettled.  The tests are the same IEEE
    operations; math.ulp is np.spacing on x >= 0."""
    row, real = [], None
    for high, low in zip(highs, lows):
        total = high + low
        back = total - high
        err = (high - (total - back)) + (low - back)
        if abs(err) + bound >= 0.5 * math.ulp(math.nextafter(abs(total), 0.0)):
            return None
        if real is None:
            real = total
        else:
            row.append(complex(real, total))
            real = None
    return row


# The null gradients CurveData keeps: those of the odd theta[10;10] and
# theta[11;10], whose u and v derivatives at the origin give the flow
# constants; the even gradients vanish there.
_NULL_GRAD_CHARS = (HalfCharacteristic(1, 0, 1, 0), HalfCharacteristic(1, 1, 1, 0))

# curve_data keeps the per-tau data of this many period matrices, least
# recently used dropped first, so a process sweeping many of them keeps a
# fixed footprint.
_NULL_CACHE_TAUS = 64
# Lattice forms kept per period matrix, oldest dropped first; the checks at
# sampled points use two or three radii.
_FORMS_PER_CURVE = 4


def _origin_grid(taus, n: int) -> list[tuple[int, list[complex], _LatticeForm]]:
    """For period matrices of origin radius n, all in _in_factor_range or none:
    n, each one's origin row (the even nulls, then d/du and d/dv of the two odd
    _NULL_GRAD_CHARS) and its slice of their stacked lattice form.  At the
    origin every row and column factor is 1, so the rows are one grid."""
    form = _lattice_form(taus, (n, n))
    rows = _grid_sums(EVEN_CHARACTERISTICS, _NULL_GRAD_CHARS, (ORIGIN,), form, (n, n))
    return [(n, row, _LatticeForm(*(None if t is None else t[k : k + 1] for t in form))) for k, row in enumerate(rows)]


class _Kernel:
    """The kernel's driver for one period matrix tau: the sums of any
    characteristics at any number of points, on grids of one truncation
    radius N and the box _shape(N) each.  It keeps the _decay constants and
    max_radius of each point's _radius, and the lattice forms of at most
    _FORMS_PER_CURVE radii, oldest dropped first.  The subclass fixes the
    box: (N, N) for CurveData, (N, 0) for the genus-1 data of the
    degeneration layer, on diag(t, t).
    """

    def __init__(self, tau: PeriodMatrix, ctrl: SeriesControl):
        self.tau, self.ctrl = tau, ctrl
        self._radius_constants = (*_decay(tau.lambda_min, ctrl.tol), ctrl.max_radius)
        self._forms = {}

    def values_at(self, chars, points) -> list[list[complex]]:
        """theta[c](point) for every point (outer) and c in chars (inner), on rows_at's grids."""
        return self.rows_at(chars, (), points)

    def rows_at(self, values, grads, points) -> list[list[complex]]:
        """One row per point: theta[c] for c in values, then d/du and then d/dv theta[c] for c in
        grads (no d/dv on a box (N, 0)), the series differentiated term by term, on bounded grids
        of one radius each (_by_grid); a single point goes to _point_row."""
        values, grads = tuple(values), tuple(grads)
        if not values and not grads:
            return [[] for _ in points]
        if len(points) == 1:
            return _point_row(self, values, grads, points[0])

        def grid(n, idx):
            return _grid_sums(values, grads, [points[i] for i in idx], self._form(n), self._shape(n))

        radii = _radii(points, *self._radius_constants)
        return _by_grid(radii, lambda n: _layout(values, grads, self._shape(n)).terms, grid)

    def _radius(self, point: Point2) -> int:
        """truncation_radius(self.tau, point, self.ctrl), from the kept constants."""
        return _radius(point, *self._radius_constants)

    def _form(self, n: int) -> _LatticeForm:
        form = self._forms.get(n)
        if form is None:
            if len(self._forms) >= _FORMS_PER_CURVE:
                self._forms.pop(next(iter(self._forms)), None)
            form = self._forms[n] = _lattice_form((self.tau,), self._shape(n))
        return form


class CurveData(_Kernel):
    """What the theta functions of one period matrix share at every point,
    summed over the square boxes (N, N).

    Built on construction from its row of an origin grid (_origin_grid: its
    own, or a curve_batch stack's), whose form slice it keeps: nulls, all
    sixteen theta[c](0, 0) keyed by c, the six odd ones exactly 0 and not
    summed (on the box they leave only its unpaired edge, a sum far below
    the terms that only math.fsum can round); null_grads, (d/du, d/dv)
    theta[c](0, 0) for the two odd c = [10;10] and [11;10], keyed by c; and
    null_scale, the largest |theta[c](0, 0)| over the even c.  Built on
    first use and then kept: null_squares (the even nulls squared), moduli
    (the ModuliSet), its symmetric_factors and bracket_prefactor, and
    flow_constants (the FlowConstants); a build that raises keeps nothing,
    so every later access raises again.
    """

    _shape = staticmethod(lambda n: (n, n))  # the box of radius n

    def __init__(self, tau: PeriodMatrix, ctrl: SeriesControl, origin: tuple | None = None):
        """origin is the curve's (radius, row, form slice) of a curve_batch origin grid."""
        super().__init__(tau, ctrl)
        # alone, a batch of one; the radius is assigned first, then keys its form
        n, sums, self._forms[n] = origin or _origin_grid((tau,), self._radius(ORIGIN))[0]
        values, du, dv = sums[:-4], sums[-4:-2], sums[-2:]
        nulls = dict.fromkeys(ALL_CHARACTERISTICS, 0j)
        nulls.update(zip(EVEN_CHARACTERISTICS, values))
        self.nulls = MappingProxyType(nulls)
        self.null_grads = MappingProxyType(dict(zip(_NULL_GRAD_CHARS, zip(du, dv))))
        self.null_scale = max(map(abs, values))

    @cached_property
    def null_squares(self) -> Mapping[tuple[int, int, int, int], complex]:
        return MappingProxyType({c: self.nulls[c] ** 2 for c in EVEN_CHARACTERISTICS})

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

    # moduli factors of the pair recovery and parameterizations (inversion)
    @cached_property
    def symmetric_factors(self) -> tuple[complex, complex]:
        """k0 k1 k2, and -(k'0 k'1 k'2 / (k0 k1 k2)) of (1 - x1)(1 - x2)."""
        ms = self.moduli
        if not (kkk := ms.k0 * ms.k1 * ms.k2):
            raise DivisionByZeroModulus("k0 k1 k2 = 0 in a denominator")
        return kkk, -(ms.kp0 * ms.kp1 * ms.kp2 / kkk)

    @cached_property
    def bracket_prefactor(self) -> complex:
        """-1 / (k'0 k'1 k'2), of the bracket that fixes a pair's sign class."""
        ms = self.moduli
        if not (kpkpkp := ms.kp0 * ms.kp1 * ms.kp2):
            raise DivisionByZeroModulus("k'0 k'1 k'2 = 0 in a denominator")
        return -1.0 / kpkpkp


def curve_batch(taus, ctrl: SeriesControl = SeriesControl()) -> list[CurveData]:
    """CurveData(tau, ctrl) for each tau, not kept by curve_data; raises what
    building them one at a time raises.

    The period matrices of one origin radius share _origin_grid's grids of
    at most _GRID_TERMS class terms, those past _in_factor_range apart from
    the others, and each curve keeps its slice of their stacked lattice form.
    """

    def grid(key, idx):
        members = [taus[i] for i in idx]
        return [CurveData(tau, ctrl, origin) for tau, origin in zip(members, _origin_grid(members, key[0]))]

    try:
        keys = [(n, _in_factor_range(tau, (n, n))) for tau in taus for n in [truncation_radius(tau, ORIGIN, ctrl)]]
        return _by_grid(keys, lambda key: _layout(EVEN_CHARACTERISTICS, _NULL_GRAD_CHARS, key[:1] * 2).terms, grid)
    except G2ThetaError:
        return [CurveData(tau, ctrl) for tau in taus]


_curve_data = lru_cache(maxsize=_NULL_CACHE_TAUS)(CurveData)


def curve_data(tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()) -> CurveData:
    """The CurveData of (tau, ctrl), kept for the last _NULL_CACHE_TAUS period matrices."""
    return _curve_data(tau, ctrl)


def theta2(c: HalfCharacteristic, point: Point2, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()) -> complex:
    """theta[c](point), read from the CurveData of (tau, ctrl)."""
    return curve_data(tau, ctrl).values_at((c,), (point,))[0][0]
