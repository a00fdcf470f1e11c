"""Series evaluation against a brute-force oracle, parity, shift rules, truncation."""

import cmath
import importlib.util
import math
import re
import struct
import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import example, given, settings

import numpy as np

from conftest import (
    ShiftKind,
    _reference_grid,
    brute_theta2,
    draw_points,
    half_shift,
    mp_theta_jets,
    reference_theta2,
    reference_theta2_grad,
    shifted_argument,
)

import g2theta.harness as harness
import g2theta.theta as theta
from g2theta.cli import main
from g2theta.degeneration import Genus1Characteristic, theta1
from g2theta.errors import DegenerateTau, TruncationOverflow
from g2theta.flow import flow_constants
from g2theta.harness import RunConfig, run_suites
from g2theta.inversion import _PAIR_CHARS, recover_pair
from g2theta.moduli import moduli_from_tau
from g2theta.rng import SampleStream
from g2theta.theta import (
    ALL_CHARACTERISTICS,
    DEFAULT_TAU,
    EVEN_CHARACTERISTICS,
    CurveData,
    HalfCharacteristic,
    PeriodMatrix,
    Point2,
    SeriesControl,
    curve_data,
    theta2,
    truncation_radius,
)

ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)
ODD_CHARACTERISTICS = tuple(c for c in ALL_CHARACTERISTICS if c.is_odd)


def grads_at(cd, chars, points):
    """Values and (d/du, d/dv) of chars at every point, from one rows_at
    request, each indexed [point][characteristic] like values_at."""
    chars = tuple(chars)
    k = len(chars)
    rows = cd.rows_at(chars, chars, points)
    return [row[:k] for row in rows], [list(zip(row[k : 2 * k], row[2 * k :])) for row in rows]

TEST_POINTS = [
    ORIGIN,
    Point2(0.31 - 0.18j, -0.42 + 0.2j),
    Point2(-0.5 + 0.2j, 0.5 - 0.2j),
]


def _null_scale(tau):
    return max(abs(curve_data(tau).nulls[c]) for c in EVEN_CHARACTERISTICS)


def test_matches_brute_force_double_sum():
    for c in ALL_CHARACTERISTICS:
        for point in TEST_POINTS:
            got = theta2(c, point, DEFAULT_TAU)
            ref = brute_theta2(c, point, DEFAULT_TAU)
            assert abs(got - ref) / max(1.0, abs(ref)) < 1e-13, c.label()


# DEFAULT_TAU and a tau12 = 0 matrix; the last two points need radius 5
KERNEL_TAUS = [DEFAULT_TAU, PeriodMatrix(0.2 + 1.4j, -0.1 + 0.95j, 0.0)]
KERNEL_POINTS = TEST_POINTS[:2] + [
    Point2(0.23 + 0.55j, -0.4 - 0.5j),
    Point2(-0.45 - 0.3j, 0.12 + 0.35j),
]


def test_stacked_kernel_is_bit_identical_to_one_grid_per_characteristic():
    radii = set()
    for tau in KERNEL_TAUS:
        cd = curve_data(tau)
        for point in KERNEL_POINTS:
            radii.add(truncation_radius(tau, point, SeriesControl()))
            values = cd.values_at(ALL_CHARACTERISTICS, (point,))[0]
            grads = grads_at(cd, ALL_CHARACTERISTICS, (point,))[1][0]
            for c, value, grad in zip(ALL_CHARACTERISTICS, values, grads):
                assert value == reference_theta2(c, point, tau), (c.label(), point)
                assert grad == reference_theta2_grad(c, point, tau), (c.label(), point)
            # a row does not depend on the other rows of its stack
            subset = ALL_CHARACTERISTICS[::-3]
            assert cd.values_at(subset, (point,))[0] == [
                values[ALL_CHARACTERISTICS.index(c)] for c in subset
            ]
    assert radii == {4, 5}


# radii 4, 5 and 6 at DEFAULT_TAU, evaluated together on one radius-6 grid
MIXED_RADIUS_POINTS = KERNEL_POINTS + [Point2(0.1 + 0.9j, -0.2 - 0.75j), TEST_POINTS[2]]


# a period matrix whose lattice terms leave the factored path from radius 5 on
EXP_PATH_TAU = PeriodMatrix(0.1 + 1.1j, 8j, 0.05 + 0.2j)
# a point on each path of the kernel: one point of a factored values request,
# a reduced component (|Re| >= 2), zeros of both signs, and the per-term exp
BRANCH_POINTS = [
    (DEFAULT_TAU, Point2(0.31 - 0.18j, -0.42 + 0.2j)),
    (DEFAULT_TAU, Point2(2.3 + 0.1j, -0.4 - 0.15j)),
    (DEFAULT_TAU, Point2(0.2 - 0.1j, -2.75 + 0.3j)),
    (DEFAULT_TAU, Point2(0j, 0j)),
    (DEFAULT_TAU, Point2(-0j, 0j)),
    (EXP_PATH_TAU, Point2(0.3 + 1.4j, -0.2 - 1.1j)),
]


def _hex_rows(rows):
    """The rows as float.hex of real and imaginary parts, so signed zeros count."""
    return [[(z.real.hex(), z.imag.hex()) for z in row] for row in rows]


def test_multi_point_grid_equals_per_point_evaluation():
    radii = [truncation_radius(DEFAULT_TAU, p, SeriesControl()) for p in MIXED_RADIUS_POINTS]
    assert set(radii) == {4, 5, 6}
    cd = curve_data(DEFAULT_TAU)
    values = cd.values_at(ALL_CHARACTERISTICS, MIXED_RADIUS_POINTS)
    jets, grads = grads_at(cd, ALL_CHARACTERISTICS, MIXED_RADIUS_POINTS)
    assert jets == values
    for point, vals, grad in zip(MIXED_RADIUS_POINTS, values, grads):
        assert _hex_rows([vals]) == _hex_rows(cd.values_at(ALL_CHARACTERISTICS, (point,))), point
        assert grad == grads_at(cd, ALL_CHARACTERISTICS, (point,))[1][0], point
    # the order of the points does not matter either
    backwards = cd.values_at(ALL_CHARACTERISTICS, MIXED_RADIUS_POINTS[::-1])
    assert backwards == values[::-1]
    # a point alone gives, bit for bit, its row of a grid it shares with a
    # point of its radius, on every path, for values and for values and gradients
    for tau, point in BRANCH_POINTS:
        cd = CurveData(tau, SeriesControl())
        radius = cd._radius(point)
        assert (cd._form(radius).tau_factor is None) == (tau is EXP_PATH_TAU), point
        partner = Point2(point.u + 0.25, point.v - 0.25)
        assert cd._radius(partner) == radius
        for chars in (_PAIR_CHARS, ALL_CHARACTERISTICS):  # recover_pair's 4, and 16
            alone = cd.values_at(chars, (point,)) + cd.rows_at(chars, chars, (point,))
            shared = cd.values_at(chars, (point, partner))[:1] + cd.rows_at(chars, chars, (point, partner))[:1]
            assert _hex_rows(alone) == _hex_rows(shared), (tau, point, len(chars))


def test_bounded_grids_over_mixed_radii_equal_per_point_evaluation(monkeypatch):
    # radii 4, 5 and 6 interleaved, enough points of each radius to fill
    # several grids, so values come back from many grids in input order
    stream = SampleStream(2, "bounded-grids")
    # the real parts of u and v of each point, from one complex draw
    points = [
        Point2(z.real + im * 1j, z.imag - im * 1j)
        for _ in range(24)
        for im in (0.05, 0.35, 0.95)
        for [z] in stream.draw(1, [(-0.5, 0.5, -0.5, 0.5)])
    ]
    radii = [truncation_radius(DEFAULT_TAU, p, SeriesControl()) for p in points]
    assert set(radii) == {4, 5, 6}
    cd = curve_data(DEFAULT_TAU)
    grids = []
    original = theta._grid_sums

    def counted(values, grads, pts, cd, shape):
        # the class and jet terms the grid allocates
        grids.append((theta._layout(tuple(values), tuple(grads), shape).terms * len(pts), shape))
        return original(values, grads, pts, cd, shape)

    monkeypatch.setattr(theta, "_grid_sums", counted)
    values = cd.values_at(ALL_CHARACTERISTICS, points)
    jets, grads = grads_at(cd, ALL_CHARACTERISTICS, points)
    assert len(grids) > 2 * len(set(radii))
    assert all(terms <= theta._GRID_TERMS for terms, _ in grids)
    assert jets == values
    for point, vals, grad in zip(points, values, grads):
        assert vals == cd.values_at(ALL_CHARACTERISTICS, (point,))[0], point
        assert grad == grads_at(cd, ALL_CHARACTERISTICS, (point,))[1][0], point


def test_a_point_over_the_grid_budget_gets_a_grid_of_its_own(monkeypatch):
    # two radius-4 points, each 4 lattice classes x 81 = 324 class terms,
    # against a 300-term budget
    points = KERNEL_POINTS[:2]
    assert {truncation_radius(DEFAULT_TAU, p, SeriesControl()) for p in points} == {4}
    cd = curve_data(DEFAULT_TAU)
    grids = []
    original = theta._grid_sums

    def counted(values, grads, pts, cd, n):
        grids.append((len(values), len(pts)))
        return original(values, grads, pts, cd, n)

    monkeypatch.setattr(theta, "_grid_sums", counted)
    monkeypatch.setattr(theta, "_GRID_TERMS", 300)
    values = cd.values_at(ALL_CHARACTERISTICS, points)
    assert grids == [(16, 1), (16, 1)]
    for point, vals in zip(points, values):
        assert vals == [reference_theta2(c, point, DEFAULT_TAU) for c in ALL_CHARACTERISTICS]


def _fresh_taus(count, label):
    """Period matrices from the harness's Siegel box, as the curves sweep draws them."""
    stream = SampleStream(1, label)
    return [
        PeriodMatrix(
            stream.next_complex(-0.3, 0.3, 0.9, 1.5),
            stream.next_complex(-0.3, 0.3, 0.9, 1.5),
            stream.next_complex(-0.1, 0.1, 0.1, 0.35),
        )
        for _ in range(count)
    ]


def _origin_bits(cd):
    """The bits of what a CurveData builds at the origin: nulls, null
    gradients, null scale, and its lattice form of the origin's radius."""
    n = cd._radius(ORIGIN)
    form = cd._form(n)
    table = form.quad if form.tau_factor is None else form.tau_factor
    return (
        [_bits(cd.nulls[c]) for c in ALL_CHARACTERISTICS],
        [_bits(g) for c in sorted(cd.null_grads) for g in cd.null_grads[c]],
        struct.pack("<d", cd.null_scale),
        n,
        table.tobytes(),
    )


# origin radius 5; radius 4 with Im tau2 = 30 or 25, past the factored
# range; and two whose origin radius exceeds max_radius 64 (72, then 102)
RADIUS_5_TAUS = [PeriodMatrix(0.1 + 0.6j, -0.1 + 0.7j, 0.05 + 0.1j), PeriodMatrix(0.2 + 0.5j, -0.1 + 0.55j, 0.02 + 0.05j)]
PER_TERM_TAUS = [PeriodMatrix(0.1 + 1.1j, 30j, 0.05 + 0.25j), PeriodMatrix(0.1 + 1.1j, 25j, 0.05 + 0.25j)]
TOO_WIDE_TAUS = [PeriodMatrix(0.002j, 1j, 0j), PeriodMatrix(0.001j, 1j, 0j)]


def test_a_stacked_batch_of_curves_equals_curves_built_one_at_a_time(monkeypatch):
    # the harness box gives origin radii 3 and 4, enough of radius 4 for
    # several stacks
    taus = _fresh_taus(30, "stacked-curves")
    taus[3:3] = RADIUS_5_TAUS[:1]
    taus[11:11] = PER_TERM_TAUS[:1]
    taus += RADIUS_5_TAUS[1:] + PER_TERM_TAUS[1:]
    ctrl = SeriesControl()
    singles = [CurveData(tau, ctrl) for tau in taus]
    radii = Counter(cd._radius(ORIGIN) for cd in singles)
    assert set(radii) == {3, 4, 5}
    assert not any(theta._in_factor_range(tau, (4, 4)) for tau in PER_TERM_TAUS)
    grids = []
    original = theta._grid_sums

    def counted(values, grads, pts, form, shape):
        # the period matrices of a grid, counted from its form's leading axis
        grids.append((len(form.quad if form.tau_factor is None else form.tau_factor), form.quad is None, shape[0]))
        return original(values, grads, pts, form, shape)

    monkeypatch.setattr(theta, "_grid_sums", counted)
    batch = theta.curve_batch(taus, ctrl)
    for tau, single, stacked in zip(taus, singles, batch, strict=True):
        assert stacked.tau == tau
        assert _origin_bits(stacked) == _origin_bits(single), tau
    # the two per-term taus share one grid on their stacked quad tables, the
    # others stacked by radius in grids of at most _GRID_TERMS class terms
    per_tau = {n: theta._layout(EVEN_CHARACTERISTICS, theta._NULL_GRAD_CHARS, (n, n)).terms for n in radii}
    stacks = [(size, n) for size, factored, n in grids if factored]
    assert [size for size, factored, _ in grids if not factored] == [len(PER_TERM_TAUS)]
    assert all(size * per_tau[n] <= theta._GRID_TERMS for size, _, n in grids)
    stacked = Counter(cd._radius(ORIGIN) for cd in singles if cd.tau not in PER_TERM_TAUS)
    chunks = {n: -(-count // (theta._GRID_TERMS // per_tau[n])) for n, count in stacked.items()}
    assert chunks[4] > 1
    assert len(stacks) == sum(chunks.values()) < len(taus) / 4


@pytest.mark.parametrize(
    "first, message",
    [
        (TOO_WIDE_TAUS[0], "required radius 72 exceeds max_radius 64"),
        # a real part whose quadratic form overflows gives non-finite terms
        # to its whole stack, without a numpy warning
        (PeriodMatrix(1e308 + 1j, 1j, 0j), "lattice sum left double range: non-finite term"),
    ],
    ids=["radius", "non-finite"],
)
def test_a_batch_of_curves_raises_what_building_them_one_at_a_time_raises(first, message):
    taus = _fresh_taus(4, "stacked-curves-raise")
    taus[1:1] = [first]
    taus += TOO_WIDE_TAUS[1:]
    with pytest.raises(TruncationOverflow) as walk:
        for tau in taus:
            CurveData(tau, SeriesControl())
    with pytest.raises(TruncationOverflow) as batch:
        theta.curve_batch(taus)
    assert str(batch.value) == str(walk.value) == message
    assert theta.curve_batch([]) == []


def test_curve_cache_holds_at_most_its_bound():
    for tau in _fresh_taus(300, "curve-cache-sweep"):
        moduli_from_tau(tau)
    info = theta._curve_data.cache_info()
    assert info.maxsize == theta._NULL_CACHE_TAUS
    assert info.currsize <= info.maxsize


def test_values_are_the_same_after_their_curve_is_evicted():
    radii = set()
    for tau in KERNEL_TAUS:
        cd = curve_data(tau)
        first = cd.values_at(ALL_CHARACTERISTICS, MIXED_RADIUS_POINTS)
        for other in _fresh_taus(theta._NULL_CACHE_TAUS, "curve-cache-evict"):
            curve_data(other)
        assert curve_data(tau) is not cd
        again = curve_data(tau).values_at(ALL_CHARACTERISTICS, MIXED_RADIUS_POINTS)
        assert again == first
        for point, values in zip(MIXED_RADIUS_POINTS, again):
            radii.add(truncation_radius(tau, point, SeriesControl()))
            assert values == [reference_theta2(c, point, tau) for c in ALL_CHARACTERISTICS]
    assert radii >= {4, 5, 6}


def test_a_curve_keeps_the_lattice_forms_of_a_few_radii():
    cd = curve_data(KERNEL_TAUS[1])
    points = [Point2(0.1 + 0.25j * k, -0.35j * k) for k in range(10)]
    radii = {truncation_radius(cd.tau, point, cd.ctrl) for point in points}
    assert len(radii) > theta._FORMS_PER_CURVE
    for point in points:
        assert cd.values_at(ALL_CHARACTERISTICS[:3], (point,))[0] == [
            reference_theta2(c, point, cd.tau) for c in ALL_CHARACTERISTICS[:3]
        ]
    assert len(cd._forms) <= theta._FORMS_PER_CURVE


def _tau_with_vanishing_null():
    """A period matrix whose even null theta[00;01](0) vanishes.

    -(diag(tau1, tau2) + [[0, 1], [1, 0]])^-1 + [[1, 0], [0, 0]] is a
    symplectic image of a split period matrix, where theta[11;11](0) = 0.
    """
    split = np.array([[0.1 + 1.1j, 1.0], [1.0, -0.15 + 1.3j]])
    tau = -np.linalg.inv(split) + np.array([[1.0, 0.0], [0.0, 0.0]])
    return PeriodMatrix(complex(tau[0, 0]), complex(tau[1, 1]), complex(tau[0, 1]))


def test_a_failed_moduli_build_raises_on_every_access():
    tau = _tau_with_vanishing_null()
    cd = curve_data(tau)
    for _ in range(2):
        with pytest.raises(DegenerateTau):
            moduli_from_tau(tau)
        with pytest.raises(DegenerateTau):
            cd.moduli
        with pytest.raises(DegenerateTau):
            flow_constants(tau)
    assert curve_data(tau) is cd


def test_one_characteristic_forms_and_nulls_match_the_reference():
    for tau in KERNEL_TAUS:
        cd = curve_data(tau)
        # the null gradients built with the nulls: the two odd ones the flow
        # constants read
        assert list(cd.null_grads) == [(1, 0, 1, 0), (1, 1, 1, 0)]
        for bits, grad in cd.null_grads.items():
            assert grad == reference_theta2_grad(HalfCharacteristic(*bits), ORIGIN, tau)
        origin_grads = grads_at(cd, ALL_CHARACTERISTICS, (ORIGIN,))[1][0]
        for c, grad in zip(ALL_CHARACTERISTICS, origin_grads, strict=True):
            # an odd null is exactly 0, not the sum of its unpaired box edge
            assert cd.nulls[c] == (0j if c.is_odd else reference_theta2(c, ORIGIN, tau))
            assert grad == reference_theta2_grad(c, ORIGIN, tau)
            point = KERNEL_POINTS[2]
            assert theta2(c, point, tau) == reference_theta2(c, point, tau)
            assert grads_at(cd, (c,), (point,))[1][0][0] == reference_theta2_grad(c, point, tau)


def test_non_finite_lattice_terms_raise_truncation_overflow():
    # |Im u| = 50 keeps the radius under max_radius but overflows exp
    far = Point2(50j, 0.0)
    cd = curve_data(DEFAULT_TAU)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy must not warn either
        with pytest.raises(TruncationOverflow):
            cd.values_at(ALL_CHARACTERISTICS, (far,))
        with pytest.raises(TruncationOverflow):
            grads_at(cd, ALL_CHARACTERISTICS[:1], (far,))
        with pytest.raises(TruncationOverflow):
            cd.values_at(ALL_CHARACTERISTICS, [ORIGIN, far])


ALT_TAU = PeriodMatrix(0.2 + 1.4j, -0.1 + 0.95j, 0.03 + 0.3j)


@pytest.mark.parametrize(
    ("tau", "value_bound", "grad_bound"),
    [(DEFAULT_TAU, 1.0e-15, 1.5e-15), (ALT_TAU, 1.28e-15, 3.0e-15)],
    ids=["default", "alt"],
)
def test_values_and_gradients_match_mpmath_over_the_widened_box(tau, value_bound, grad_bound):
    # 80 seeded points with |Re| <= 1 and |Im| <= 0.4, every characteristic;
    # the error is |err| / max(1, |exact|).  The factored kernel reaches
    # 6.54e-16 and 1.24e-15 on values, 9.58e-16 and 2.67e-15 on gradients, at
    # DEFAULT_TAU and ALT_TAU; with the range guard forced shut (one exp per
    # class term) it reaches 9.1e-16, 1.27e-15, 2.07e-15 and 2.27e-15.
    stream = SampleStream(0, "mpmath-accuracy")
    points = [
        Point2(stream.next_complex(-1.0, 1.0, -0.4, 0.4), stream.next_complex(-1.0, 1.0, -0.4, 0.4))
        for _ in range(80)
    ]
    values, grads = grads_at(curve_data(tau), ALL_CHARACTERISTICS, points)
    value_err = grad_err = 0.0
    for vals, grad, exact in zip(values, grads, mp_theta_jets(tau, points), strict=True):
        for c, value, jet in zip(ALL_CHARACTERISTICS, vals, grad, strict=True):
            ref, *ref_jet = exact[c]
            value_err = max(value_err, abs(value - ref) / max(1.0, abs(ref)))
            for got, want in zip(jet, ref_jet):
                grad_err = max(grad_err, abs(got - want) / max(1.0, abs(want)))
    assert value_err <= value_bound
    assert grad_err <= grad_bound


# Im tau1 = 8 stretches the lattice Gaussian, so the corners of the square
# box leave the factored range at radius 5 (pi 5.5^2 9.8 > 700) while the
# points of that radius stay near the origin
STRETCHED_TAU = PeriodMatrix(0.1 + 8j, -0.15 + 1.3j, 0.05 + 0.25j)


def _one_path(monkeypatch, tau, factored, points):
    """Values and gradients on a fresh CurveData whose every radius takes the one path."""
    with monkeypatch.context() as patch:
        patch.setattr(theta, "_FACTOR_LOG", math.inf if factored else -math.inf)
        return grads_at(CurveData(tau, SeriesControl()), ALL_CHARACTERISTICS, points)


def test_the_range_guard_sits_where_the_tau_factor_would_leave_range():
    # pi (n + 1/2)^2 (y1 + y2 + 2 |y12|) <= 700
    assert [n for n in range(1, 12) if theta._in_factor_range(DEFAULT_TAU, (n, n))] == list(range(1, 9))
    assert [n for n in range(1, 12) if theta._in_factor_range(STRETCHED_TAU, (n, n))] == [1, 2, 3, 4]
    cd = curve_data(STRETCHED_TAU)
    assert cd._form(4).tau_factor is not None
    assert cd._form(5).tau_factor is None


def test_the_two_kernel_paths_agree_on_both_sides_of_the_range_guard(monkeypatch):
    inside, outside = Point2(0.3 + 0.9j, -0.2 - 0.36j), Point2(0.3 + 1.2j, -0.2 - 0.48j)
    points = (inside, outside)
    assert [truncation_radius(STRETCHED_TAU, p, SeriesControl()) for p in points] == [4, 5]
    values, grads = grads_at(curve_data(STRETCHED_TAU), ALL_CHARACTERISTICS, points)
    factored = _one_path(monkeypatch, STRETCHED_TAU, True, points)
    exp_path = _one_path(monkeypatch, STRETCHED_TAU, False, points)
    # radius 4 is factored and radius 5 keeps the exp kernel
    assert (values[0], grads[0]) == (factored[0][0], factored[1][0])
    assert (values[1], grads[1]) == (exp_path[0][1], exp_path[1][1])
    for i in range(2):
        pairs = list(zip(factored[0][i], exp_path[0][i], strict=True))
        pairs += [(f[j], e[j]) for f, e in zip(factored[1][i], exp_path[1][i]) for j in (0, 1)]
        for f, e in pairs:
            assert abs(f - e) <= 1e-15 * max(1.0, abs(e))


@pytest.mark.parametrize("tau", [DEFAULT_TAU, STRETCHED_TAU], ids=["factored", "per-term"])
@pytest.mark.parametrize("part", ["Re u", "Im u", "Re v", "Im v"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_argument_raises_truncation_overflow_without_a_warning(tau, part, bad):
    # filterwarnings = error turns a numpy RuntimeWarning into a failure; at
    # this point of radius 5 STRETCHED_TAU takes the per-term exp
    parts = dict(zip(["Re u", "Im u", "Re v", "Im v"], [0.3, 1.2, -0.2, -0.48]))
    assert theta._in_factor_range(tau, (5, 5)) == (tau == DEFAULT_TAU)
    parts[part] = bad
    point = Point2(complex(parts["Re u"], parts["Im u"]), complex(parts["Re v"], parts["Im v"]))
    cd = curve_data(tau)
    with pytest.raises(TruncationOverflow):
        cd.values_at(ALL_CHARACTERISTICS, (point,))
    with pytest.raises(TruncationOverflow):
        grads_at(cd, ALL_CHARACTERISTICS, (KERNEL_POINTS[1], point))


@pytest.mark.parametrize(
    "tau",
    [DEFAULT_TAU, STRETCHED_TAU, PeriodMatrix(0.1 + 0.3j, 0.3j, 0.01j), PeriodMatrix(1e300j, 1.3j, 0.25j)],
    ids=["default", "stretched", "small-im", "huge-diagonal"],
)
def test_every_point_the_exp_kernel_evaluates_still_evaluates(monkeypatch, tau):
    # from the origin out past max_radius: wherever the per-term exp kernel
    # gives finite values, the kernel gives finite values close to them, and
    # the same bits where the range guard keeps the exp kernel
    for y in np.linspace(0.0, 60.0, 31):
        point = Point2(0.3 + y * 1j, -0.2 - 0.4 * y * 1j)
        try:
            head = _one_path(monkeypatch, tau, False, (point,))[0][0]
        except TruncationOverflow:
            continue
        assert all(cmath.isfinite(value) for value in head)
        values = curve_data(tau).values_at(ALL_CHARACTERISTICS, (point,))[0]
        assert all(cmath.isfinite(value) for value in values), y
        scale = max(1.0, max(abs(value) for value in head))
        assert max(abs(a - b) for a, b in zip(values, head)) <= 1e-13 * scale, y
        radius = truncation_radius(tau, point, SeriesControl())
        if not theta._in_factor_range(tau, (radius, radius)):
            assert values == head, y


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-(2**40), 2**40), l=st.integers(-(2**40), 2**40))
@example(k=1, l=0)
@example(k=-2, l=1)
@example(k=3, l=-3)
def test_whole_periods_in_the_real_parts_change_only_the_sign(k, l):
    # theta[c](u + k, v + l) = (-1)^(a k + c l) theta[c](u, v).  The dyadic
    # real parts keep u + k and v + l exact, so where every moved component
    # is past the reduction threshold the kernel sums the same terms
    base = Point2(0.25 + 0.1j, -0.375 - 0.15j)
    far = Point2(base.u + k, base.v + l)
    values, grads = grads_at(curve_data(DEFAULT_TAU), ALL_CHARACTERISTICS, (base, far))
    reduced = all(
        shift == 0 or abs(z.real + shift) >= theta._REDUCE_RE
        for z, shift in ((base.u, k), (base.v, l))
    )
    for c, x, y, gx, gy in zip(ALL_CHARACTERISTICS, *values, *grads, strict=True):
        sign = -1 if (c.a * k + c.c * l) % 2 else 1
        expected = [sign * x, sign * gx[0], sign * gx[1]]
        got = [y, gy[0], gy[1]]
        if reduced:
            assert got == expected
        else:
            assert all(abs(g - e) <= 1e-14 * max(1.0, abs(e)) for g, e in zip(got, expected))


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_no_point_the_harness_or_the_benchmark_evaluates_is_reduced(monkeypatch):
    largest = []
    original = theta._grid_sums

    def spy(values, grads, points, cd, radius):
        largest.append(max(max(abs(p.u.real), abs(p.v.real)) for p in points))
        return original(values, grads, points, cd, radius)

    monkeypatch.setattr(theta, "_grid_sums", spy)
    for cfg in (RunConfig(samples=20), RunConfig(tau=ALT_TAU, samples=20)):
        run_suites(cfg)
    assert 0.5 < max(largest) < theta._REDUCE_RE
    workloads = _perfbench_workloads()
    assert max(abs(x) for x in workloads.POINT_BOX[:2]) < theta._REDUCE_RE
    assert all(abs(z.real) < theta._REDUCE_RE for pair in workloads.CURVE_POINTS for z in pair)


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _fsum_bits(terms) -> bytes:
    flat = terms.ravel()
    return _bits(complex(math.fsum(flat.real), math.fsum(flat.imag)))


def _explicit_sums(tau, point, radius):
    """math.fsum of each characteristic's own terms, as bytes: the 16 values,
    then the 16 d/du and the 16 d/dv, in the order of ALL_CHARACTERISTICS.

    The terms are built one characteristic at a time (conftest's
    _reference_grid); a component with |Re| >= 2 is moved by its rounded
    real part, which multiplies the terms by (-1)^(a k + c l).
    """
    k, l = (round(z.real) if abs(z.real) >= theta._REDUCE_RE else 0 for z in (point.u, point.v))
    near = Point2(point.u - k, point.v - l)
    jets = ([], [], [])
    for c in ALL_CHARACTERISTICS:
        p, q, terms = _reference_grid(c, near, tau, (radius, radius))
        terms = terms * (-1.0) ** (c.a * k + c.c * l)
        for sums, row in zip(jets, (terms, (2j * math.pi * p) * terms, (2j * math.pi * q) * terms)):
            sums.append(_fsum_bits(row))
    return [bits for sums in jets for bits in sums]


_COMPONENTS = st.tuples(st.floats(-3.0, 3.0), st.floats(-0.5, 0.5))

# the two ways a grid certifies its sums, forced by the size cut-over: on
# Python floats (_settle_floats) and on arrays (_settle)
_PATHS = {"floats": 10**9, "arrays": 0}


def _on_path(patch, path):
    """Force every grid onto one certification path; returns the calls of
    _settle_floats, which only the floats path makes.  The plans are built
    on a cache of their own, so each holds the fold the forced cut-over gives
    it, and no plan built here is left in the kept cache."""
    calls = []
    settle_floats = theta._settle_floats

    def counted(*args):
        calls.append(args)
        return settle_floats(*args)

    patch.setattr(theta, "_SCALAR_OUTPUTS", _PATHS[path])
    patch.setattr(theta, "_layout", lru_cache(theta._layout.cache_info().maxsize)(theta._layout.__wrapped__))
    patch.setattr(theta, "_settle_floats", counted)
    return calls


@pytest.mark.parametrize("path", _PATHS)
@settings(max_examples=30, deadline=None)
@given(
    radius=st.integers(3, 8),
    tau=st.sampled_from([DEFAULT_TAU, ALT_TAU, STRETCHED_TAU]),
    parts=st.lists(st.tuples(_COMPONENTS, _COMPONENTS), min_size=1, max_size=3),
)
@example(radius=4, tau=DEFAULT_TAU, parts=[((2.5, 0.1), (-2.0, -0.2)), ((0.3, -0.4), (2.75, 0.0))])
@example(radius=8, tau=STRETCHED_TAU, parts=[((-2.25, 0.3), (0.4, -0.1))])
@example(radius=4, tau=DEFAULT_TAU, parts=[((-0.0, -0.0), (0.0, -0.0)), ((0.0, 0.0), (-0.0, 0.0))])
def test_the_class_kernel_sums_every_row_as_fsum_does(path, radius, tau, parts):
    # each value and gradient of one class-grid kernel call equals, bit for
    # bit, math.fsum of its own characteristic's terms, on either path;
    # STRETCHED_TAU takes the per-term exp from radius 5 on
    points = [Point2(complex(*u), complex(*v)) for u, v in parts]
    cd = curve_data(tau)
    with pytest.MonkeyPatch.context() as patch:
        calls = _on_path(patch, path)
        got = theta._grid_sums(ALL_CHARACTERISTICS, ALL_CHARACTERISTICS, points, cd._form(radius), (radius, radius))
    assert len(calls) == (path == "floats")
    for point, row in zip(points, got, strict=True):
        assert [_bits(z) for z in row] == _explicit_sums(tau, point, radius), point


@pytest.mark.parametrize("path", _PATHS)
def test_outputs_the_certification_leaves_unsettled_get_the_fsum_bits(monkeypatch, path):
    cd = curve_data(DEFAULT_TAU)
    points = KERNEL_POINTS  # radii 4 and 5
    split, fsum = theta._split, theta._fsum
    rows = []
    calls = _on_path(monkeypatch, path)

    def unsettled(*args):
        return split(*args)[0], math.inf  # no error bound certifies anything

    def counted(row):
        rows.append(row)
        return fsum(row)

    monkeypatch.setattr(theta, "_split", unsettled)
    monkeypatch.setattr(theta, "_fsum", counted)
    values, grads = grads_at(cd, ALL_CHARACTERISTICS, points)
    # two grids, one per radius, of 12 class-jet grids a point; each path
    # leaves every part unsettled and sends it to exact_row_sums
    assert len(calls) == (2 if path == "floats" else 0)
    # every real and imaginary part of every value and gradient went to math.fsum
    assert len(rows) == len(points) * 3 * 16 * 2
    for point, vals, grad in zip(points, values, grads, strict=True):
        radius = truncation_radius(DEFAULT_TAU, point, SeriesControl())
        got = [_bits(z) for z in vals] + [_bits(g[0]) for g in grad] + [_bits(g[1]) for g in grad]
        assert got == _explicit_sums(DEFAULT_TAU, point, radius), point


# zeros of both signs, subnormals, the smallest normal, powers of two and
# their neighbours, and a large value
_EDGE_VALUES = [0.0, 5e-324, 2.0**-1073, 2.0**-1022 - 5e-324, 2.0**-1022, 2.0**-60, 0.5, 1.0, 1.0 + 2.0**-52]
_EDGE_VALUES += [1.5, 2.0 - 2.0**-52, 2.0, 3.0, 2.0**52, 2.0**53 + 2.0, 2.0**900]
_EDGE_VALUES += [-x for x in _EDGE_VALUES]


def test_the_float_and_array_certifications_agree_on_edge_values():
    for x in _EDGE_VALUES:
        if x >= 0.0:
            assert math.ulp(math.nextafter(x, 0.0)) == np.spacing(np.nextafter(x, 0.0)), x
    lows = _EDGE_VALUES + [2.0**-53, -(2.0**-53), 2.0**-54, 2.0**-106]
    pairs = [(high, low) for high in _EDGE_VALUES for low in lows]
    settled = unsettled = 0
    for bound in (theta._TINY, 2.0**-80, 2.0**-40):
        for sign in (1.0, -1.0):
            for high, low in pairs:
                # one output whose real and imaginary parts are the same part
                floats, left = theta._settle_floats([high * sign] * 2, [low * sign] * 2, 1, bound)
                res, bad = theta._settle(np.array([high]) * sign, np.array([low]) * sign, bound)
                assert left == ([0, 1] if bad[0] else []), (high, low, bound)
                if bad[0]:
                    unsettled += 1
                else:
                    settled += 1
                    assert _bits(floats[0][0]) == _bits(complex(res[0], res[0])), (high, low, bound)
    # 1 + 2^-53 is a tie, left unsettled; most pairs settle
    assert theta._settle_floats([1.0, 1.0], [2.0**-53, 2.0**-53], 1, theta._TINY)[1] == [0, 1]
    assert 0 < unsettled < settled


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_an_empty_characteristic_set_gives_one_empty_list_per_point(count):
    points = KERNEL_POINTS[:count] + [ORIGIN] * max(0, count - len(KERNEL_POINTS))
    cd = curve_data(DEFAULT_TAU)
    assert cd.values_at((), points) == [[] for _ in range(count)]
    assert cd.rows_at([], [], points) == [[] for _ in range(count)]


def test_curve_data_radii_equal_truncation_radius_over_the_harness_and_benchmark_boxes():
    workloads = _perfbench_workloads()
    stream = SampleStream(3, "curve-radii")
    diag, off = harness._TAU_DIAG, harness._TAU_OFF
    assert (diag, off) == (workloads.TAU_DIAG, workloads.TAU_OFF)
    taus = [DEFAULT_TAU, ALT_TAU] + [
        PeriodMatrix(stream.next_complex(*diag), stream.next_complex(*diag), stream.next_complex(*off))
        for _ in range(20)
    ]
    # the harness box, the sums p + q its addition suite evaluates, and the
    # point box of the invert workload
    x0, x1, y0, y1 = harness._BOX
    boxes = [harness._BOX, (2 * x0, 2 * x1, 2 * y0, 2 * y1), workloads.POINT_BOX]
    for tau in taus:
        points = [ORIGIN] + [Point2(*pair) for pair in workloads.CURVE_POINTS]
        points += [Point2(stream.next_complex(*box), stream.next_complex(*box)) for box in boxes * 20]
        cd = CurveData(tau, SeriesControl())
        assert [cd._radius(p) for p in points] == [
            truncation_radius(tau, p, SeriesControl()) for p in points
        ]


def test_batch_radii_equal_the_per_point_radii_and_raise_the_first_error():
    cd = curve_data(DEFAULT_TAU)
    constants = lmin, reach, max_radius = cd._radius_constants
    stream = SampleStream(8, "batch-radii")
    points = [Point2(stream.next_complex(-1, 1, -4, 4), stream.next_complex(-1, 1, -4, 4)) for _ in range(300)]
    # signed zeros, a NaN real part (the radius reads only Im), and the
    # largest radius that fits, 64, next to the first that does not
    edge = (max_radius - 0.5 - reach) * lmin
    points += [ORIGIN, Point2(-0j, complex(-0.0, -0.0)), Point2(complex(math.nan, 0.1), 0.2j), Point2(edge * 1j, 0j)]
    assert theta._radii(points, *constants) == [theta._radius(p, *constants) for p in points]
    assert theta._radii(points[-1:], *constants) == [max_radius]
    over, nan = Point2((edge + lmin) * 1j, 0j), Point2(0j, complex(0.0, math.nan))
    inf = Point2(complex(0.0, -math.inf), 0j)
    for batch in ([over], [nan], [inf], points[:5] + [nan, over], points[:5] + [over, inf, nan]):
        with pytest.raises(TruncationOverflow) as loop:
            [theta._radius(p, *constants) for p in batch]
        with pytest.raises(TruncationOverflow, match=re.escape(str(loop.value))):
            theta._radii(batch, *constants)
        # rows_at reads them, before any grid
        with pytest.raises(TruncationOverflow, match=re.escape(str(loop.value))):
            cd.rows_at(_PAIR_CHARS, (), points[:3] + batch)


# requests of at most _SCALAR_OUTPUTS outputs, which the float path takes:
# values alone, values and gradients (the origin grid's among them), and
# genus 1's on the box (N, 0), which has no d/dv
_FLOAT_REQUESTS = [
    ((c,), ()) for c in ALL_CHARACTERISTICS
] + [
    (_PAIR_CHARS, ()),
    (EVEN_CHARACTERISTICS, ()),
    (ALL_CHARACTERISTICS, ()),
    (EVEN_CHARACTERISTICS, theta._NULL_GRAD_CHARS),
    (ALL_CHARACTERISTICS[:4], ALL_CHARACTERISTICS[:4]),
    ((), ALL_CHARACTERISTICS[5:10]),
]
_GENUS1 = tuple(HalfCharacteristic(a, 0, b, 0) for a in (0, 1) for b in (0, 1))


@pytest.mark.parametrize("shape", [(4, 4), (5, 5), (4, 0), (9, 0)])
def test_the_fold_gathers_and_signs_every_part_as_the_array_path_does(shape):
    requests = _FLOAT_REQUESTS if shape[1] else [(_GENUS1[:k], ()) for k in (1, 3)] + [(_GENUS1, _GENUS1)]
    rng = np.random.default_rng(sum(shape))
    for values, grads in requests:
        plan = theta._layout(values, grads, shape)
        outputs = len(plan.columns) // 2
        assert outputs == len(values) + (2 if shape[1] else 1) * len(grads) <= theta._SCALAR_OUTPUTS
        # one product where it is no wider than the parity matrix, else two
        assert len(plan.fold) == (1 if outputs <= 4 else 2)
        for count in {1, theta._SCALAR_OUTPUTS // outputs}:
            # parts whose sums are exact in any order, so any summation tree
            # gives one result: small integers times a power of two, normal or
            # subnormal, a fifth of them zeros of either sign
            for unit in (2.0**-30, 2.0**-1074):
                parts = rng.integers(-(2**20), 2**20, (2, count, len(plan.grid_class) * len(plan.parity))) * unit
                parts[rng.random(parts.shape) < 0.2] = 0.0
                parts[rng.random(parts.shape) < 0.1] = -0.0
                sums = parts
                for matrix in plan.fold:
                    sums = sums.reshape(-1, len(matrix)) @ matrix
                gathered = (parts.reshape(-1, len(plan.parity)) @ plan.parity).reshape(2, count, -1)
                expected = np.take(gathered, plan.columns, axis=2) * plan.signs
                # bit for bit but for the sign of a zero sum, which the
                # certification never settles (the gap around 0 is 0)
                assert np.array_equal(sums.reshape(2, count, -1), expected), (values, grads, count, unit)
                nonzero = expected != 0.0
                assert sums.reshape(2, count, -1)[nonzero].tobytes() == expected[nonzero].tobytes()
    # a request past the cut-over takes the array path and has no fold
    assert theta._layout(ALL_CHARACTERISTICS, ALL_CHARACTERISTICS[:1], shape).fold == ()


def test_parity_counts_and_values():
    assert len(EVEN_CHARACTERISTICS) == 10
    assert len(ODD_CHARACTERISTICS) == 6
    assert {c.label() for c in ODD_CHARACTERISTICS} == {
        "1010", "1011", "1110", "0101", "0111", "1101",
    }
    assert not HalfCharacteristic(0, 0, 0, 0).is_odd
    assert HalfCharacteristic(1, 0, 1, 0).is_odd
    assert HalfCharacteristic(1, 1, 1, 0).is_odd
    # the one that is easy to misread: ab + cd = 0, so it is even
    assert not HalfCharacteristic(1, 0, 0, 1).is_odd


@settings(max_examples=60, deadline=None)
@given(
    ci=st.integers(0, 15),
    ur=st.floats(-0.5, 0.5),
    ui=st.floats(-0.2, 0.2),
    vr=st.floats(-0.5, 0.5),
    vi=st.floats(-0.2, 0.2),
)
def test_negation_flips_odd_values(ci, ur, ui, vr, vi):
    c = ALL_CHARACTERISTICS[ci]
    p = Point2(complex(ur, ui), complex(vr, vi))
    neg = Point2(-p.u, -p.v)
    lhs = theta2(c, neg, DEFAULT_TAU)
    rhs = (-1 if c.is_odd else 1) * theta2(c, p, DEFAULT_TAU)
    assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-12


def test_odd_nulls_vanish():
    scale = _null_scale(DEFAULT_TAU)
    for c in ODD_CHARACTERISTICS:
        assert abs(curve_data(DEFAULT_TAU).nulls[c]) <= 1e-13 * scale


def test_even_null_gradients_vanish():
    scale = _null_scale(DEFAULT_TAU)
    grads = grads_at(curve_data(DEFAULT_TAU), EVEN_CHARACTERISTICS, (ORIGIN,))[1][0]
    assert len(grads) == 10
    for du, dv in grads:
        assert max(abs(du), abs(dv)) <= 1e-13 * scale


def test_truncation_radius_reference_values():
    unit = PeriodMatrix(1j, 1j, 0.0)
    assert truncation_radius(unit, ORIGIN, SeriesControl()) == 4
    assert truncation_radius(unit, ORIGIN, SeriesControl(tol=0.5)) == 1
    assert truncation_radius(DEFAULT_TAU, ORIGIN, SeriesControl()) == 4
    # tighter tolerance never shrinks the box
    n14 = truncation_radius(DEFAULT_TAU, ORIGIN, SeriesControl(tol=1e-14))
    n6 = truncation_radius(DEFAULT_TAU, ORIGIN, SeriesControl(tol=1e-6))
    assert n14 >= n6


def test_truncation_overflow_for_nearly_flat_imaginary_part():
    squash = 0.002
    tau = PeriodMatrix(
        DEFAULT_TAU.tau1.real + 1j * DEFAULT_TAU.tau1.imag * squash,
        DEFAULT_TAU.tau2.real + 1j * DEFAULT_TAU.tau2.imag * squash,
        DEFAULT_TAU.tau12.real + 1j * DEFAULT_TAU.tau12.imag * squash,
    )
    with pytest.raises(TruncationOverflow):
        truncation_radius(tau, ORIGIN, SeriesControl())
    with pytest.raises(TruncationOverflow):
        theta2(HalfCharacteristic(0, 0, 0, 0), ORIGIN, tau, SeriesControl())


@pytest.mark.parametrize("y1", [1.1, 1e16, 1e20, 1e300])
def test_lambda_min_keeps_its_precision_when_one_diagonal_entry_is_large(y1):
    tau = PeriodMatrix(complex(0.0, y1), 1.3j, 0.25j)
    with mpmath.workdps(700):  # enough digits for the cancelling closed form
        y1m, y2m, y12m = mpmath.mpf(y1), mpmath.mpf(1.3), mpmath.mpf(0.25)
        exact = (y1m + y2m) / 2 - mpmath.sqrt(((y1m - y2m) / 2) ** 2 + y12m**2)
        assert abs(tau.lambda_min - exact) <= 4 * math.ulp(float(exact))
    if y1 > 1e15:
        # the smaller eigenvalue is about 1.3, which needs radius 4 for |Im v| = 0.5;
        # as half_tr - rad it read 2.0 or 0.0, radius 3 or a division by zero
        assert truncation_radius(tau, Point2(0.0, 0.5j), SeriesControl()) == 4


def test_cli_moduli_at_a_huge_diagonal_entry_exits_without_a_traceback(capsys):
    # the nulls with a = 1 underflow there, so k0^2 = k1^2 = k2^2 = 0: refused
    assert main(["moduli", "--tau1=0,1e300"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: squared modulus k0^2 = 0j is zero or not finite")
    with pytest.raises(DegenerateTau, match="k0\\^2"):
        moduli_from_tau(PeriodMatrix(1e300j, 1.3j, 0.25j))


@pytest.mark.parametrize(
    "entries",
    [
        (complex(0.0, math.inf), 1.3j, 0.25j),
        (1.1j, complex(math.nan, 1.3), 0.25j),
        (1.1j, 1.3j, complex(math.inf, 0.25)),
        (1.1j, 1.3j, complex(0.0, math.nan)),
        # a genus-1 tau t alone, refused as the period matrix diag(t, t)
        (complex(math.nan, 1.0),),
    ],
)
def test_non_finite_period_matrix_entries_are_refused(entries):
    with pytest.raises(DegenerateTau, match="finite"):
        if len(entries) == 1:
            theta1(Genus1Characteristic(0, 0), 0.1, *entries)
        else:
            PeriodMatrix(*entries)


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: recover_pair(Point2(complex(0.0, _INF), 0.0), DEFAULT_TAU),
        lambda: recover_pair(Point2(complex(0.0, _NAN), 0.0), DEFAULT_TAU),
        lambda: recover_pair(Point2(0.1, complex(0.0, -_INF)), DEFAULT_TAU),
        lambda: recover_pair(Point2(complex(_INF, 0.1), 0.0), DEFAULT_TAU),
        lambda: theta1(Genus1Characteristic(0, 0), complex(0.0, _INF), 1j),
        lambda: theta1(Genus1Characteristic(1, 1), complex(0.0, _NAN), 1j),
        lambda: theta1(Genus1Characteristic(1, 1), complex(_INF, 0.0), 1j),
    ],
    ids=[
        "genus2-inf-im", "genus2-nan-im", "genus2-v-inf-im", "genus2-inf-re",
        "genus1-inf-im", "genus1-nan-im", "genus1-inf-re",
    ],
)
def test_non_finite_arguments_raise_truncation_overflow(evaluate):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy must not warn either
        with pytest.raises(TruncationOverflow):
            evaluate()


def test_value_stable_when_box_grows():
    ctrl = SeriesControl()
    c = HalfCharacteristic(1, 1, 0, 0)
    for point in TEST_POINTS:
        n = truncation_radius(DEFAULT_TAU, point, ctrl)
        got = theta2(c, point, DEFAULT_TAU, ctrl)
        wide = brute_theta2(c, point, DEFAULT_TAU, radius=n + 4)
        assert abs(got - wide) / max(1.0, abs(wide)) < ctrl.tol


def test_gradient_matches_finite_differences():
    h = 1e-5
    c = HalfCharacteristic(1, 0, 1, 0)
    du, _ = curve_data(DEFAULT_TAU).null_grads[c]
    fd = (
        theta2(c, Point2(h, 0.0), DEFAULT_TAU)
        - theta2(c, Point2(-h, 0.0), DEFAULT_TAU)
    ) / (2 * h)
    assert abs(du - fd) / abs(du) < 1e-8

    c0 = HalfCharacteristic(0, 0, 0, 0)
    p = Point2(0.21 - 0.09j, -0.13 + 0.11j)
    gu, gv = grads_at(curve_data(DEFAULT_TAU), (c0,), (p,))[1][0][0]
    fdu = (
        theta2(c0, Point2(p.u + h, p.v), DEFAULT_TAU)
        - theta2(c0, Point2(p.u - h, p.v), DEFAULT_TAU)
    ) / (2 * h)
    fdv = (
        theta2(c0, Point2(p.u, p.v + h), DEFAULT_TAU)
        - theta2(c0, Point2(p.u, p.v - h), DEFAULT_TAU)
    ) / (2 * h)
    assert abs(gu - fdu) / abs(gu) < 1e-8
    assert abs(gv - fdv) / abs(gv) < 1e-8


def test_gradient_richardson_extrapolation():
    h = 1e-5
    c = HalfCharacteristic(0, 0, 0, 0)
    for p in draw_points(3, "grad-richardson", 20):
        gu, _ = grads_at(curve_data(DEFAULT_TAU), (c,), (p,))[1][0][0]
        d1 = (
            theta2(c, Point2(p.u + h, p.v), DEFAULT_TAU)
            - theta2(c, Point2(p.u - h, p.v), DEFAULT_TAU)
        ) / (2 * h)
        d2 = (
            theta2(c, Point2(p.u + h / 2, p.v), DEFAULT_TAU)
            - theta2(c, Point2(p.u - h / 2, p.v), DEFAULT_TAU)
        ) / h
        rich = (4.0 * d2 - d1) / 3.0
        assert abs(gu - rich) / abs(gu) < 1e-7


def test_shift_rules_reproduce_direct_evaluation():
    for p in draw_points(7, "shift-soundness", 3):
        for c in ALL_CHARACTERISTICS:
            for kind in ShiftKind:
                rule = half_shift(c, kind)
                lhs = theta2(c, shifted_argument(kind, p, DEFAULT_TAU), DEFAULT_TAU)
                rhs = rule.factor(p, DEFAULT_TAU) * theta2(
                    rule.new_characteristic, p, DEFAULT_TAU
                )
                err = abs(lhs - rhs) / max(1.0, abs(rhs))
                assert err < 1e-11, (c.label(), kind)


def test_shift_rule_table_entries():
    for cc in (0, 1):
        for dd in (0, 1):
            rule = half_shift(HalfCharacteristic(0, cc, 0, dd), ShiftKind.U_HALF)
            assert rule.new_characteristic == HalfCharacteristic(0, cc, 1, dd)
            assert rule.sign == 1.0
            assert rule.tau1_coeff == 0 and rule.u_coeff == 0

            rule = half_shift(HalfCharacteristic(0, cc, 0, dd), ShiftKind.U_TAU_HALF)
            assert rule.new_characteristic == HalfCharacteristic(1, cc, 0, dd)
            assert rule.sign == 1.0
            assert rule.tau1_coeff == Fraction(-1, 4)
            assert rule.u_coeff == Fraction(-1)

    for c in ALL_CHARACTERISTICS:
        rule = half_shift(c, ShiftKind.U_ONE)
        assert rule.new_characteristic == c
        assert rule.sign == (-1.0) ** c.a

        rule = half_shift(c, ShiftKind.U_TAU_FULL)
        assert rule.new_characteristic == c
        assert rule.sign == (-1.0) ** c.b
        assert rule.tau1_coeff == Fraction(-1)
        assert rule.u_coeff == Fraction(-2)

        for kind in ShiftKind:
            assert abs(abs(half_shift(c, kind).sign) - 1.0) < 1e-15


def test_degenerate_period_matrix_rejected():
    with pytest.raises(DegenerateTau):
        PeriodMatrix(0.1 - 1j, -0.15 + 1.3j, 0.05 + 0.25j)
    with pytest.raises(DegenerateTau):
        PeriodMatrix(0.1 + 0.2j, 0.3 + 0.2j, 0.5j)  # det of Im tau negative
    PeriodMatrix(1j, 1j, 0.0)  # boundary of nothing: plainly valid


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(tol=-1e-10)
    with pytest.raises(ValueError):
        SeriesControl(tol=float("inf"))
    with pytest.raises(ValueError):
        SeriesControl(max_radius=3)
    SeriesControl(tol=1e-10, max_radius=4)


def test_characteristic_bits_validated():
    with pytest.raises(ValueError):
        HalfCharacteristic(2, 0, 0, 0)
    with pytest.raises(ValueError):
        HalfCharacteristic(0, 0, -1, 0)
    assert HalfCharacteristic(1, 0, 0, 1).label() == "1001"


def test_a_characteristic_equals_and_hashes_as_its_bit_tuple():
    # so a table keyed by characteristics reads by bits, and the other way round
    for c in ALL_CHARACTERISTICS:
        bits = (c.a, c.c, c.b, c.d)
        assert c == bits and hash(c) == hash(bits) and tuple(c) == bits
        assert {bits: c}[c] is c and {c: bits}[bits] is bits
    g = Genus1Characteristic(1, 0)
    assert g == (1, 0) and hash(g) == hash((1, 0)) and {(1, 0): g}[g] is g
    for bad in ((0, 0, 0, 2), (0, 0.5, 0, 0), (None, 0, 0, 0)):
        with pytest.raises(ValueError):
            HalfCharacteristic(*bad)
    for bad in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            Genus1Characteristic(*bad)
