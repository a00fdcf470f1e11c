"""Squared moduli from nulls, root-product ratios, and the consistency suite."""

import cmath

import mpmath
import pytest

from conftest import brute_theta2, draw_points

from g2theta.errors import DivisionByZeroModulus
from g2theta.inversion import parameterization_residuals
from g2theta.moduli import (
    CONSISTENCY_LABELS,
    RATIO_CHARACTERISTICS,
    ModuliSet,
    branch_points_collapse,
    moduli_consistency_residuals,
    moduli_from_tau,
    null_ratio_signs,
    null_ratios_from_moduli,
)
from g2theta.rng import SampleStream
from g2theta.theta import DEFAULT_TAU, HalfCharacteristic, PeriodMatrix, Point2, curve_data

ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)
TAU_DIAG = (-0.3, 0.3, 0.9, 1.5)
TAU_OFF = (-0.1, 0.1, 0.1, 0.35)

# bits -> (numerator pairs, denominator pairs) defining each squared modulus
SQUARED_DEFS = {
    "k0_sq": (((1, 0, 0, 0), (1, 1, 0, 0)), ((0, 0, 0, 0), (0, 1, 0, 0))),
    "k1_sq": (((1, 0, 0, 1), (1, 1, 0, 0)), ((0, 0, 0, 1), (0, 1, 0, 0))),
    "k2_sq": (((1, 0, 0, 1), (1, 0, 0, 0)), ((0, 0, 0, 1), (0, 0, 0, 0))),
    "kp0_sq": (((0, 0, 1, 0), (0, 1, 1, 0)), ((0, 0, 0, 0), (0, 1, 0, 0))),
    "kp1_sq": (((0, 0, 1, 1), (0, 1, 1, 0)), ((0, 0, 0, 1), (0, 1, 0, 0))),
    "kp2_sq": (((0, 0, 1, 1), (0, 0, 1, 0)), ((0, 0, 0, 1), (0, 0, 0, 0))),
    "k01_sq": (
        ((1, 1, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)),
        ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)),
    ),
    "k02_sq": (
        ((1, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 0)),
        ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
    ),
    "k12_sq": (
        ((1, 0, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1)),
        ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 0, 0)),
    ),
}


def draw_tau(seed, label, count):
    stream = SampleStream(seed, label)
    out = []
    for _ in range(count):
        t1 = stream.next_complex(*TAU_DIAG)
        t2 = stream.next_complex(*TAU_DIAG)
        t12 = stream.next_complex(*TAU_OFF)
        out.append(PeriodMatrix(t1, t2, t12))
    return out


def _brute_null_sq(tau):
    out = {}
    for bits in set().union(*(set(n) | set(d) for n, d in SQUARED_DEFS.values())):
        out[bits] = brute_theta2(HalfCharacteristic(*bits), ORIGIN, tau) ** 2
    return out


def test_squared_moduli_match_null_ratio_definitions():
    ms = moduli_from_tau(DEFAULT_TAU)
    n = _brute_null_sq(DEFAULT_TAU)
    for name, (num, den) in SQUARED_DEFS.items():
        ref = 1.0 + 0.0j
        for bits in num:
            ref *= n[bits]
        for bits in den:
            ref /= n[bits]
        got = getattr(ms, name)
        assert abs(got - ref) / (1.0 + abs(ref)) < 1e-12, name


def test_roots_square_back_to_recorded_squares():
    for tau in (DEFAULT_TAU, *draw_tau(2, "moduli-roots", 3)):
        ms = moduli_from_tau(tau)
        for stem in ("k0", "k1", "k2", "kp0", "kp1", "kp2", "k01", "k02", "k12"):
            root = getattr(ms, stem)
            sq = getattr(ms, stem + "_sq")
            assert abs(root * root - sq) / (1.0 + abs(sq)) < 4e-15
            # inside the Siegel box every null quotient lies on the principal
            # side, so no root is negated there
            assert root == cmath.sqrt(sq)


def test_complement_and_difference_structure():
    ms = moduli_from_tau(DEFAULT_TAU)
    assert abs(ms.kp0_sq - (1.0 - ms.k0_sq)) < 1e-10
    assert abs(ms.kp1_sq - (1.0 - ms.k1_sq)) < 1e-10
    assert abs(ms.kp2_sq - (1.0 - ms.k2_sq)) < 1e-10
    assert abs(ms.k01_sq - (ms.k0_sq - ms.k1_sq)) < 1e-10
    assert abs(ms.k02_sq - (ms.k0_sq - ms.k2_sq)) < 1e-10
    assert abs(ms.k12_sq - (ms.k1_sq - ms.k2_sq)) < 1e-10
    # the three differences telescope
    assert abs(ms.k01_sq + ms.k12_sq - ms.k02_sq) < 1e-10


def test_consistency_residuals_at_default_and_seeded_tau():
    taus = [DEFAULT_TAU] + draw_tau(5, "moduli-consistency", 10)
    taus.append(PeriodMatrix(1.1j, 1.3j, 1e-6j))
    for tau in taus:
        rows = moduli_consistency_residuals(tau)
        assert len(rows) == 15
        assert tuple(label for label, _ in rows) == CONSISTENCY_LABELS
        worst = max(r for _, r in rows)
        assert worst < 1e-10, (tau, max(rows, key=lambda t: t[1]))


def test_null_ratio_products_match_direct_ratios():
    signs = null_ratio_signs(DEFAULT_TAU)
    assert set(signs) == set(RATIO_CHARACTERISTICS)
    for bits, (sign, residual) in signs.items():
        assert sign == 1, bits
        assert residual < 1e-12, bits
    for tau in draw_tau(7, "moduli-signs", 5):
        for bits, (sign, residual) in null_ratio_signs(tau).items():
            assert sign == 1, bits
            assert residual < 1e-10, (bits, residual)


# small Im tau: k'0^2 = -1.28e-3 + 8.1e-6i lies just above the cut, where the
# principal root has the opposite sign to theta[0010] theta[0110] / (theta[0000] theta[0100])
SMALL_IM_TAU = PeriodMatrix(0.1 + 0.3j, 0.3j, 0.01j)


def _null_quotient(nulls, num, den):
    value = 1.0 + 0.0j
    for bits in num:
        value *= nulls[bits]
    for bits in den:
        value /= nulls[bits]
    return value


def test_roots_take_the_sign_of_their_null_quotient_at_small_im_tau():
    ms = moduli_from_tau(SMALL_IM_TAU)
    nulls = curve_data(SMALL_IM_TAU).nulls
    for name, (num, den) in SQUARED_DEFS.items():
        root = getattr(ms, name[: -len("_sq")])
        quotient = _null_quotient(nulls, num, den)
        assert abs(root - quotient) < abs(root + quotient), name
    for bits, (sign, residual) in null_ratio_signs(SMALL_IM_TAU).items():
        assert sign == 1, bits
        assert residual < 1e-10, (bits, residual)
    # the principal kp0 would leave these residuals of order 1
    points = draw_points(11, "small-im-tau", 4)
    results = parameterization_residuals(curve_data(SMALL_IM_TAU), points)
    for point, (rows, _) in zip(points, results):
        assert max(rows) < 1e-6, (point, max(rows))


def test_primed_ratio_uses_three_roots_only():
    ms = moduli_from_tau(DEFAULT_TAU)
    products = null_ratios_from_moduli(ms)
    assert products[(0, 0, 1, 0)] == ms.kp0 * ms.kp2 / ms.kp1
    n = curve_data(DEFAULT_TAU).null_squares
    direct = n[(0, 0, 1, 0)] / n[(0, 0, 0, 0)]  # the direct ratio null_ratio_signs reads
    assert abs(products[(0, 0, 1, 0)] - direct) < 1e-12


def test_block_diagonal_tau_collapses_to_one_elliptic_modulus():
    tau = PeriodMatrix(1.1j, 1.3j, 0.0)
    ms = moduli_from_tau(tau)
    q = mpmath.mpf(cmath.exp(1j * cmath.pi * 1.1j).real)
    ref = complex((mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4)
    assert abs(ms.k0_sq - ref) < 1e-13
    assert abs(ms.k1_sq - ref) < 1e-13
    assert abs(ms.k2_sq - ref) < 1e-13
    assert abs(ms.k01_sq) < 1e-13
    assert abs(ms.k12_sq) < 1e-13


@pytest.mark.parametrize(
    ("tau12", "collapsed"),
    [(0.0, True), (1e-6j, True), (1e-5j, False), (1e-3j, False), (0.2j, False)],
)
def test_branch_points_collapse_near_a_split_period_matrix(tau12, collapsed):
    # relative collapse |k0^2 - k_i^2| / max |k_i^2|: 1.4e-16, 2.2e-12,
    # 2.2e-10, 2.2e-6, 0.081
    ms = moduli_from_tau(PeriodMatrix(1.1j, 1.3j, tau12))
    assert branch_points_collapse(ms) is collapsed


def test_small_cross_modulus_keeps_moduli_nearly_equal():
    ms = moduli_from_tau(PeriodMatrix(1.1j, 1.3j, 1e-6j))
    assert abs(ms.k0_sq - ms.k1_sq) < 1e-8
    assert abs(ms.k1_sq - ms.k2_sq) < 1e-8


def test_zero_modulus_rejected_in_ratio_products():
    base = moduli_from_tau(DEFAULT_TAU)
    for name in ("k1", "kp1", "k02"):
        fields = {f: getattr(base, f) for f in base._fields}
        fields[name] = 0.0 + 0.0j
        with pytest.raises(DivisionByZeroModulus):
            null_ratios_from_moduli(ModuliSet(**fields))
