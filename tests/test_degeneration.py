"""Genus-1 limit: splitting, elliptic functions, ODE and integral cross-checks."""

import cmath
import math

import mpmath
import pytest
from scipy.special import ellipj, ellipk

from conftest import draw_points, reference_theta1

from g2theta import degeneration, harness, theta
from g2theta.degeneration import (
    DEGENERATION_LABELS,
    Genus1Characteristic,
    complete_integral_residuals,
    degeneration_residuals,
    elliptic_modulus,
    elliptic_residuals,
    genus1_nulls,
    theta1,
)
from g2theta.errors import (
    ConfigInvalid,
    DegenerateTau,
    QuadratureNonconvergence,
    SingularDenominator,
)
from g2theta.quadrature import tanh_sinh_01
from g2theta.rng import SampleStream
from g2theta.theta import ALL_CHARACTERISTICS, CurveData, PeriodMatrix, Point2, SeriesControl, truncation_radius

TAU1 = 0.1 + 1.1j
TAU2 = -0.15 + 1.3j
CHARS1 = tuple(Genus1Characteristic(a, b) for a in (0, 1) for b in (0, 1))
ZS = (0.23 - 0.11j, -0.37 + 0.21j)
CTRL = SeriesControl()
SPLIT = CurveData(PeriodMatrix(TAU1, TAU2, 0.0), CTRL)
NULLS1 = genus1_nulls(TAU1, CTRL)


def _nulls(tau):
    return genus1_nulls(tau, CTRL)


def _degeneration_rows(points):
    """The degeneration residuals at each point, keyed by label."""
    return [
        dict(zip(DEGENERATION_LABELS, rows, strict=True))
        for rows, _ in degeneration_residuals(SPLIT, NULLS1, points)
    ]


def _sn_ode(z, h=1e-5):
    """The sn ODE residual, the last of the elliptic residuals at z."""
    return elliptic_residuals(TAU1, NULLS1, [z], CTRL, h)[0][6]


def _jacobi_functions(z, tau):
    """sn, cn, dn at theta argument z (the sn argument is u = 2Kz) and the
    modulus, by the path elliptic_residuals takes."""
    nulls = _nulls(tau)
    [t] = degeneration._theta1_rows(CHARS1, (), [(z, tau)], CTRL)
    return (*degeneration._jacobi(nulls, t, z), elliptic_modulus(nulls))


def brute_theta1(c, z, tau, radius=30):
    total = 0.0 + 0.0j
    for n in range(-radius, radius + 1):
        m = n + 0.5 * c.a
        total += cmath.exp(1j * math.pi * (tau * m * m + 2.0 * m * (z + 0.5 * c.b)))
    return total


def test_series_matches_brute_force_sum():
    for tau in (1.0j, TAU1):
        for c in CHARS1:
            for z in ZS:
                got = theta1(c, z, tau)
                ref = brute_theta1(c, z, tau)
                assert abs(got - ref) < 1e-13 * (1.0 + abs(ref))


def test_genus1_grid_is_bit_identical_to_one_row_per_value():
    stream = SampleStream(4, "genus1-grid")
    # the float and signed-zero arguments are the ones the nulls and the
    # degeneration suite pass
    zs = [0.0, 0j, complex(-0.0, -0.0)]
    zs += [stream.next_complex(-0.5, 0.5, -1.5, 1.5) for _ in range(12)]
    args = [(z, tau) for tau in (1j, TAU1, -0.2 + 0.8j) for z in zs]
    radii = {truncation_radius(PeriodMatrix(tau, tau, 0j), Point2(z, 0j), CTRL) for z, tau in args}
    assert len(radii) >= 3
    expected = [[reference_theta1(c, z, tau) for c in CHARS1] for z, tau in args]
    assert [[theta1(c, z, tau) for c in CHARS1] for z, tau in args] == [[v for v, _ in row] for row in expected]
    # one kernel call for all of them, values and d/dz, as the call sites use it
    rows = degeneration._theta1_rows(CHARS1, CHARS1, args, CTRL)
    assert rows == [[v for v, _ in row] + [g for _, g in row] for row in expected]
    # the nulls of a tau are its even theta values at the origin, and the odd one is 0
    for tau in (1j, TAU1, -0.2 + 0.8j):
        assert dict(genus1_nulls(tau, CTRL)) == {c: theta1(c, 0.0, tau) if c != (1, 1) else 0j for c in CHARS1}


def test_a_genus1_gradient_request_builds_no_d_dv_and_settles_every_part(monkeypatch):
    # the box (N, 0) has no d/dv jets, which are exactly 0 there and no
    # certified sum can round: at generic points every value and d/dz
    # settles, on the floats path (one point) and on arrays (40)
    parts = []
    exact_row_sums = theta.exact_row_sums

    def counted(rows):
        parts.append(rows.shape)
        return exact_row_sums(rows)

    monkeypatch.setattr(theta, "exact_row_sums", counted)
    stream = SampleStream(6, "genus1-grads")
    args = [(stream.next_complex(*harness._BOX), tau) for tau in (TAU1, -0.2 + 0.8j) for _ in range(20)]
    rows = degeneration._theta1_rows(CHARS1, CHARS1, args, CTRL)
    rows += degeneration._theta1_rows(CHARS1, CHARS1, args[:1], CTRL)
    assert parts == []
    expected = [[reference_theta1(c, z, tau) for c in CHARS1] for z, tau in args + args[:1]]
    hexes = [[(x.real.hex(), x.imag.hex()) for x in row] for row in rows]
    assert hexes == [[(x.real.hex(), x.imag.hex()) for pair in zip(*row) for x in pair] for row in expected]


# theta1[a; b](z, t) in mpmath's Jacobi thetas at pi z and nome exp(i pi t):
# the index and sign of each characteristic
_JTHETA = {(0, 0): (3, 1), (0, 1): (4, 1), (1, 0): (2, 1), (1, 1): (1, -1)}


def test_matches_reference_library():
    # 40 seeded points of the elliptic suite's box, every characteristic, at
    # i, 1.5i and tau1, against a 30-digit jtheta; the error is
    # |err| / max(1, |exact|), held to the main kernel's bounds at DEFAULT_TAU
    stream = SampleStream(5, "genus1-mpmath")
    zs = [stream.next_complex(*harness._BOX) for _ in range(40)]
    value_err = grad_err = 0.0
    with mpmath.workdps(30):
        for tau in (1j, 1.5j, TAU1):
            rows = degeneration._theta1_rows(CHARS1, CHARS1, [(z, tau) for z in zs], CTRL)
            nome = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi * mpmath.mpc(tau))
            for z, row in zip(zs, rows, strict=True):
                arg = mpmath.pi * mpmath.mpc(z)
                for k, c in enumerate(CHARS1):
                    index, sign = _JTHETA[c]
                    value = sign * complex(mpmath.jtheta(index, arg, nome))
                    grad = sign * complex(mpmath.pi * mpmath.jtheta(index, arg, nome, derivative=1))
                    value_err = max(value_err, abs(row[k] - value) / max(1.0, abs(value)))
                    grad_err = max(grad_err, abs(row[4 + k] - grad) / max(1.0, abs(grad)))
    assert value_err <= 1.0e-15
    assert grad_err <= 1.5e-15


@pytest.mark.parametrize("tau", [1j, TAU1], ids=["i", "tau1"])
def test_whole_periods_in_z_change_only_the_sign(tau):
    # theta1[a; b](z + k) = (-1)^(a k) theta1[a; b](z): each z + k is exact
    # and reduces back to z, so the bits agree, up to the sign of a zero
    def bits(z, k=0):
        values = [(-1) ** (c.a * k) * theta1(c, z, tau) for c in CHARS1]
        return [((v.real + 0.0).hex(), (v.imag + 0.0).hex()) for v in values]

    for z in (0.3j, 0.25 - 0.2j, -0.375 + 0.15j):
        for k in (3, -7, 2**40):
            assert bits(z + k) == bits(z, k), (z, k)
    # 1e300 is an even integer
    for y in (0.0, 0.3, -0.45):
        assert bits(complex(1e300, y)) == bits(complex(0.0, y)), y


def test_odd_null_vanishes_and_bad_tau_rejected():
    assert abs(theta1(Genus1Characteristic(1, 1), 0.0, 1.3j)) < 1e-15
    for tau in (0.5 + 0.0j, 1.0 - 0.2j):
        with pytest.raises(DegenerateTau):
            theta1(Genus1Characteristic(0, 0), 0.1, tau)


def test_block_diagonal_values_split_into_products():
    keys = [f"split-{c.label()}" for c in ALL_CHARACTERISTICS]
    for rows in _degeneration_rows(draw_points(29, "split", 5)):
        assert max(rows[key] for key in keys) < 1e-12


def test_modulus_complement_and_duality():
    for tau in (1.0j, TAU1, 0.6j):
        mod = elliptic_modulus(_nulls(tau))
        assert abs(mod.k_sq + mod.kp_sq - 1.0) < 1e-12
    # tau -> -1/tau swaps the modulus with its complement
    assert abs(elliptic_modulus(_nulls(0.6j)).k_sq - elliptic_modulus(_nulls(1j / 0.6)).kp_sq) < 1e-12


def test_jacobi_functions_against_reference_library():
    tau = 1.2j
    sn0, cn0, dn0, mod = _jacobi_functions(0.0, tau)
    assert abs(sn0) < 1e-14
    assert abs(cn0 - 1.0) < 1e-14
    assert abs(dn0 - 1.0) < 1e-14
    m = mod.k_sq.real
    big_k = math.pi / 2.0 * theta1(Genus1Characteristic(0, 0), 0.0, tau).real ** 2
    assert abs(big_k - ellipk(m)) < 1e-12
    for z in (0.08, 0.21, 0.37):
        sn, cn, dn, _ = _jacobi_functions(z, tau)
        sn_ref, cn_ref, dn_ref, _ = ellipj(2.0 * big_k * z, m)
        assert abs(sn - sn_ref) < 1e-10
        assert abs(cn - cn_ref) < 1e-10
        assert abs(dn - dn_ref) < 1e-10


def test_jacobi_parity():
    z = 0.19 - 0.07j
    sn_p, cn_p, dn_p, _ = _jacobi_functions(z, TAU1)
    sn_m, cn_m, dn_m, _ = _jacobi_functions(-z, TAU1)
    assert abs(sn_p + sn_m) < 1e-13
    assert abs(cn_p - cn_m) < 1e-13
    assert abs(dn_p - dn_m) < 1e-13


def test_jacobi_rejects_zero_of_reference_theta():
    with pytest.raises(SingularDenominator):
        _jacobi_functions(0.6j, 1.2j)


def test_identities_at_seeded_points_and_zero():
    # the first four rows: the three squared-theta identities and the null quartic
    assert max(elliptic_residuals(TAU1, NULLS1, [0.0], CTRL, 1e-5)[0][:4]) < 1e-12
    stream = SampleStream(31, "elliptic")
    zs = [stream.next_complex(-0.4, 0.4, -0.2, 0.2) for _ in range(10)]
    assert max(max(rows[:4]) for rows in elliptic_residuals(TAU1, NULLS1, zs, CTRL, 1e-5)) < 1e-11


def test_degenerate_inversion_matches_elliptic_prediction():
    keys = (
        "x1x2-product", "complement-product", "third-factor",
        "collapse-k1sq", "collapse-k2sq", "pair-match",
    )
    assert DEGENERATION_LABELS[16:] == keys
    on_axis = Point2(0.0, 0.13 + 0.05j)
    for rows in _degeneration_rows(draw_points(37, "degen", 15) + [on_axis]):
        assert max(rows[key] for key in keys) < 1e-8


def test_collapsed_member_constant_across_points():
    from g2theta.inversion import recover_pair
    from g2theta.moduli import moduli_from_tau
    from g2theta.theta import PeriodMatrix

    tau = PeriodMatrix(TAU1, TAU2, 0.0)
    ms = moduli_from_tau(tau)
    vals = [recover_pair(pt, tau).x1 for pt in draw_points(41, "constant", 8)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-9
    assert abs(vals[0] - 1.0 / ms.k0_sq) < 1e-9


def test_sn_ode_residual_and_step_scaling():
    z0 = 0.17 - 0.06j
    assert _sn_ode(z0) < 1e-6
    ratio = _sn_ode(z0, h=2e-4) / _sn_ode(z0, h=1e-4)
    assert 3.5 < ratio < 4.5
    assert _sn_ode(0.0) < 1e-6


def test_complete_integrals_reproduce_tau_and_null():
    for tau in (1.0j, 1.5j):
        assert max(complete_integral_residuals(tau, _nulls(tau))) < 1e-9
    # the self-dual point: k^2 = 1/2 exactly at tau = i
    assert abs(elliptic_modulus(_nulls(1.0j)).k_sq - 0.5) < 1e-10


def test_complete_integrals_domain_guard():
    for tau in (0.3 + 1.0j, 0.4j, 4.0j):
        with pytest.raises(ConfigInvalid):
            complete_integral_residuals(tau, _nulls(tau))


def test_quadrature_reference_integrals():
    def arc(x, dist):
        omx2 = dist * (2.0 - dist) if x > 0.5 else 1.0 - x * x
        return 1.0 / math.sqrt(omx2)

    assert abs(tanh_sinh_01(arc) - math.pi / 2.0) < 1e-12
    assert abs(tanh_sinh_01(lambda x, dist: 1.0 / math.sqrt(x)) - 2.0) < 1e-12
    assert abs(tanh_sinh_01(lambda x, dist: 4.0 / (1.0 + x * x)) - math.pi) < 1e-12


def test_quadrature_refuses_wild_oscillation():
    with pytest.raises(QuadratureNonconvergence):
        tanh_sinh_01(lambda x, dist: math.sin(1e8 * x) * 1e6)
