"""Series evaluation against a brute-force oracle, parity, shift rules, truncation."""

import math
import warnings
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

import numpy as np

from conftest import brute_theta2, draw_points, reference_theta2, reference_theta2_grad

import g2theta.theta as theta
from g2theta.cli import main
from g2theta.degeneration import Genus1Characteristic, theta1
from g2theta.errors import DegenerateTau, TruncationOverflow
from g2theta.flow import flow_constants
from g2theta.inversion import recover_pair
from g2theta.moduli import moduli_from_tau
from g2theta.rng import SampleStream
from g2theta.theta import (
    ALL_CHARACTERISTICS,
    DEFAULT_TAU,
    EVEN_CHARACTERISTICS,
    ODD_CHARACTERISTICS,
    HalfCharacteristic,
    PeriodMatrix,
    Point2,
    SeriesControl,
    ShiftKind,
    curve_data,
    half_shift,
    parity,
    shifted_argument,
    theta2,
    theta2_grad,
    truncation_radius,
)

ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)

TEST_POINTS = [
    ORIGIN,
    Point2(0.31 - 0.18j, -0.42 + 0.2j),
    Point2(-0.5 + 0.2j, 0.5 - 0.2j),
]


def _null_scale(tau):
    return max(abs(curve_data(tau).nulls[c.bits]) for c in EVEN_CHARACTERISTICS)


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
            grads = cd.grads_at(ALL_CHARACTERISTICS, (point,))[1][0]
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


def test_multi_point_grid_equals_per_point_evaluation():
    radii = [truncation_radius(DEFAULT_TAU, p, SeriesControl()) for p in MIXED_RADIUS_POINTS]
    assert set(radii) == {4, 5, 6}
    cd = curve_data(DEFAULT_TAU)
    values = cd.values_at(ALL_CHARACTERISTICS, MIXED_RADIUS_POINTS)
    jets, grads = cd.grads_at(ALL_CHARACTERISTICS, MIXED_RADIUS_POINTS)
    assert jets == values
    for point, vals, grad in zip(MIXED_RADIUS_POINTS, values, grads):
        assert vals == cd.values_at(ALL_CHARACTERISTICS, (point,))[0], point
        assert grad == cd.grads_at(ALL_CHARACTERISTICS, (point,))[1][0], point
    # the order of the points does not matter either
    backwards = cd.values_at(ALL_CHARACTERISTICS, MIXED_RADIUS_POINTS[::-1])
    assert backwards == values[::-1]


def test_bounded_grids_over_mixed_radii_equal_per_point_evaluation(monkeypatch):
    # radii 4, 5 and 6 interleaved, enough points of each radius to fill
    # several grids, so values come back from many grids in input order
    stream = SampleStream(2, "bounded-grids")
    points = [
        Point2(stream.next_uniform(-0.5, 0.5) + im * 1j, stream.next_uniform(-0.5, 0.5) - im * 1j)
        for _ in range(24)
        for im in (0.05, 0.35, 0.95)
    ]
    radii = [truncation_radius(DEFAULT_TAU, p, SeriesControl()) for p in points]
    assert set(radii) == {4, 5, 6}
    cd = curve_data(DEFAULT_TAU)
    grids = []
    original = theta._lattice_terms

    def counted(chars, pts, cd, n):
        grids.append((len(chars) * len(pts) * (2 * n + 1) ** 2, n))
        return original(chars, pts, cd, n)

    monkeypatch.setattr(theta, "_lattice_terms", counted)
    values = cd.values_at(ALL_CHARACTERISTICS, points)
    jets, grads = cd.grads_at(ALL_CHARACTERISTICS, points)
    assert len(grids) > 2 * len(set(radii))
    assert all(terms <= theta._GRID_TERMS for terms, _ in grids)
    assert jets == values
    for point, vals, grad in zip(points, values, grads):
        assert vals == cd.values_at(ALL_CHARACTERISTICS, (point,))[0], point
        assert grad == cd.grads_at(ALL_CHARACTERISTICS, (point,))[1][0], point


def test_a_point_over_the_grid_budget_gets_a_grid_of_its_own(monkeypatch):
    # two radius-4 points, each 16 x 81 = 1296 terms, against a 1000-term budget
    points = KERNEL_POINTS[:2]
    assert {truncation_radius(DEFAULT_TAU, p, SeriesControl()) for p in points} == {4}
    cd = curve_data(DEFAULT_TAU)
    grids = []
    original = theta._lattice_terms

    def counted(chars, pts, cd, n):
        grids.append((len(chars), len(pts)))
        return original(chars, pts, cd, n)

    monkeypatch.setattr(theta, "_lattice_terms", counted)
    monkeypatch.setattr(theta, "_GRID_TERMS", 1000)
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
        origin_grads = cd.grads_at(ALL_CHARACTERISTICS, (ORIGIN,))[1][0]
        for c, grad in zip(ALL_CHARACTERISTICS, origin_grads, strict=True):
            assert cd.nulls[c.bits] == reference_theta2(c, ORIGIN, tau)
            assert grad == reference_theta2_grad(c, ORIGIN, tau)
            point = KERNEL_POINTS[2]
            assert theta2(c, point, tau) == reference_theta2(c, point, tau)
            assert theta2_grad(c, point, tau) == reference_theta2_grad(c, point, tau)


def test_non_finite_lattice_terms_raise_truncation_overflow():
    # |Im u| = 50 keeps the radius under max_radius but overflows exp
    far = Point2(50j, 0.0)
    cd = curve_data(DEFAULT_TAU)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy must not warn either
        with pytest.raises(TruncationOverflow):
            cd.values_at(ALL_CHARACTERISTICS, (far,))
        with pytest.raises(TruncationOverflow):
            cd.grads_at(ALL_CHARACTERISTICS[:1], (far,))
        with pytest.raises(TruncationOverflow):
            cd.values_at(ALL_CHARACTERISTICS, [ORIGIN, far])


def test_parity_counts_and_values():
    assert len(EVEN_CHARACTERISTICS) == 10
    assert len(ODD_CHARACTERISTICS) == 6
    assert {c.label() for c in ODD_CHARACTERISTICS} == {
        "1010", "1011", "1110", "0101", "0111", "1101",
    }
    assert parity(HalfCharacteristic(0, 0, 0, 0)) == 1
    assert parity(HalfCharacteristic(1, 0, 1, 0)) == -1
    assert parity(HalfCharacteristic(1, 1, 1, 0)) == -1
    # the one that is easy to misread: ab + cd = 0, so it is even
    assert parity(HalfCharacteristic(1, 0, 0, 1)) == 1


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
    rhs = parity(c) * theta2(c, p, DEFAULT_TAU)
    assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-12


def test_odd_nulls_vanish():
    scale = _null_scale(DEFAULT_TAU)
    for c in ODD_CHARACTERISTICS:
        assert abs(curve_data(DEFAULT_TAU).nulls[c.bits]) <= 1e-13 * scale


def test_even_null_gradients_vanish():
    scale = _null_scale(DEFAULT_TAU)
    grads = curve_data(DEFAULT_TAU).grads_at(EVEN_CHARACTERISTICS, (ORIGIN,))[1][0]
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
    assert main(["moduli", "--tau1=0,1e300"]) == 0
    assert "moduli collapse" in capsys.readouterr().out


@pytest.mark.parametrize(
    "entries",
    [
        (complex(0.0, math.inf), 1.3j, 0.25j),
        (1.1j, complex(math.nan, 1.3), 0.25j),
        (1.1j, 1.3j, complex(math.inf, 0.25)),
        (1.1j, 1.3j, complex(0.0, math.nan)),
    ],
)
def test_non_finite_period_matrix_entries_are_refused(entries):
    with pytest.raises(DegenerateTau, match="finite"):
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
    du, _ = curve_data(DEFAULT_TAU).null_grads[c.bits]
    fd = (
        theta2(c, Point2(h, 0.0), DEFAULT_TAU)
        - theta2(c, Point2(-h, 0.0), DEFAULT_TAU)
    ) / (2 * h)
    assert abs(du - fd) / abs(du) < 1e-8

    c0 = HalfCharacteristic(0, 0, 0, 0)
    p = Point2(0.21 - 0.09j, -0.13 + 0.11j)
    gu, gv = theta2_grad(c0, p, DEFAULT_TAU)
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
        gu, _ = theta2_grad(c, p, DEFAULT_TAU)
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
