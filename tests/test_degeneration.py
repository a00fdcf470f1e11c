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
    Genus1Data,
    complete_integral_residuals,
    degeneration_residuals,
    elliptic_residuals,
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
G1, G2 = Genus1Data(TAU1, CTRL), Genus1Data(TAU2, CTRL)


def _value(c, z, tau):
    """One genus-1 value theta[c](z, tau), a batch of one."""
    return Genus1Data(tau, CTRL).values_at((c,), (z,))[0][0]


def _degeneration_rows(points):
    """The degeneration residuals at each point, keyed by label."""
    return [
        dict(zip(DEGENERATION_LABELS, rows, strict=True))
        for rows, _ in degeneration_residuals(SPLIT, G1, G2, points)
    ]


def _sn_ode(z, h=1e-5):
    """The sn ODE residual, the last of the elliptic residuals at z."""
    return elliptic_residuals(G1, [z], h)[0][6]


def _jacobi_functions(z, tau):
    """sn, cn, dn at theta argument z (the sn argument is u = 2Kz) and the
    modulus, by the path elliptic_residuals takes."""
    g = Genus1Data(tau, CTRL)
    [t] = g.values_at(CHARS1, [z])
    return (*degeneration._jacobi(g.nulls, t, z), g.modulus)


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
                got = _value(c, z, tau)
                ref = brute_theta1(c, z, tau)
                assert abs(got - ref) < 1e-13 * (1.0 + abs(ref))


def _bits(rows):
    return [[(x.real.hex(), x.imag.hex()) for x in row] for row in rows]


def _reference(c, z, tau):
    """reference_theta1 at z, or at z - k times (-1)^(a k) where the kernel
    reduces z by its rounded real part k (|Re z| >= 2); z - k is exact."""
    k = round(z.real) if abs(z.real) >= 2.0 else 0
    return tuple((-1) ** (c.a * k) * x for x in reference_theta1(c, z - k, tau))


def test_genus1_grid_is_bit_identical_to_one_row_per_value():
    stream = SampleStream(4, "genus1-grid")
    # the float and signed-zero arguments are the ones the nulls and the
    # degeneration suite pass; then a z with |Re z| >= 2, which is reduced,
    # and one whose radius is past _in_factor_range, summed term by term
    zs = [0.0, 0j, complex(-0.0, -0.0), 2.7 - 0.3j, 0.3 + 10j]
    zs += [stream.next_complex(-0.5, 0.5, -1.5, 1.5) for _ in range(12)]
    taus = (1j, 1.5j, TAU1, -0.2 + 0.8j)
    args = [(z, tau) for tau in taus for z in zs]
    radii = {truncation_radius(PeriodMatrix(tau, tau, 0j), Point2(z, 0j), CTRL) for z, tau in args}
    assert len(radii) >= 3
    for tau in taus:
        g = Genus1Data(tau, CTRL)
        assert not theta._in_factor_range(g.tau, g._shape(g._radius(Point2(zs[4], 0j))))
    expected = [[_reference(c, z, tau) for c in CHARS1] for z, tau in args]
    assert [[_value(c, z, tau) for c in CHARS1] for z, tau in args] == [[v for v, _ in row] for row in expected]
    # one kernel call per tau for all of them, values and d/dz, as the call sites use it
    rows = [row for tau in taus for row in Genus1Data(tau, CTRL).rows_at(CHARS1, CHARS1, zs)]
    assert rows == [[v for v, _ in row] + [g for _, g in row] for row in expected]
    # a one-point request (_point_row) gives the bits of its z in a batch,
    # values and d/dz, the reduced and the term-by-term z too
    for tau in taus:
        g = Genus1Data(tau, CTRL)
        batch = g.rows_at(CHARS1, CHARS1, zs)
        assert _bits(g.values_at(CHARS1, [z])[0] for z in zs) == _bits(row[:4] for row in batch)
        assert _bits(g.rows_at(CHARS1, CHARS1, [z])[0] for z in zs) == _bits(batch)
    # the nulls of a tau are its even theta values at the origin, and the odd
    # one is 0; at i and 1.5i their imaginary parts are sums of exact zeros,
    # which no certified sum settles, so their one-point row takes the
    # unsettled fallback, and gives the bits of the origin in a batch
    for tau in taus:
        nulls = Genus1Data(tau, CTRL).nulls
        assert dict(nulls) == {c: _value(c, 0.0, tau) if c != (1, 1) else 0j for c in CHARS1}
        batch = Genus1Data(tau, CTRL).values_at(CHARS1[:3], zs[:2])
        assert _bits([list(nulls.values())[:3]]) == _bits(batch[:1])
        if tau.real == 0.0:
            assert [null.imag for null in nulls.values()] == [0.0] * 4


def test_a_genus1_gradient_request_builds_no_d_dv_and_settles_every_part(monkeypatch):
    # the box (N, 0) has no d/dv jets, which are exactly 0 there and no
    # certified sum can round: at generic points every value and d/dz
    # settles, on the floats path (one point) and on arrays (20 a tau)
    parts = []
    exact_row_sums = theta.exact_row_sums

    def counted(rows):
        parts.append(rows.shape)
        return exact_row_sums(rows)

    monkeypatch.setattr(theta, "exact_row_sums", counted)
    stream = SampleStream(6, "genus1-grads")
    args = [(stream.next_complex(*harness._BOX), tau) for tau in (TAU1, -0.2 + 0.8j) for _ in range(20)]
    rows = []
    for batch in (args[:20], args[20:], args[:1]):
        rows += Genus1Data(batch[0][1], CTRL).rows_at(CHARS1, CHARS1, [z for z, _ in batch])
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
            rows = Genus1Data(tau, CTRL).rows_at(CHARS1, CHARS1, zs)
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
        values = [(-1) ** (c.a * k) * _value(c, z, tau) for c in CHARS1]
        return [((v.real + 0.0).hex(), (v.imag + 0.0).hex()) for v in values]

    for z in (0.3j, 0.25 - 0.2j, -0.375 + 0.15j):
        for k in (3, -7, 2**40):
            assert bits(z + k) == bits(z, k), (z, k)
    # 1e300 is an even integer
    for y in (0.0, 0.3, -0.45):
        assert bits(complex(1e300, y)) == bits(complex(0.0, y)), y


def test_odd_null_vanishes_and_bad_tau_rejected():
    assert abs(_value(Genus1Characteristic(1, 1), 0.0, 1.3j)) < 1e-15
    for tau in (0.5 + 0.0j, 1.0 - 0.2j):
        with pytest.raises(DegenerateTau):
            Genus1Data(tau, CTRL)


def test_block_diagonal_values_split_into_products():
    keys = [f"split-{c.label()}" for c in ALL_CHARACTERISTICS]
    for rows in _degeneration_rows(draw_points(29, "split", 5)):
        assert max(rows[key] for key in keys) < 1e-12


def test_modulus_complement_and_duality():
    for tau in (1.0j, TAU1, 0.6j):
        mod = Genus1Data(tau, CTRL).modulus
        assert abs(mod.k_sq + mod.kp_sq - 1.0) < 1e-12
    # tau -> -1/tau swaps the modulus with its complement
    assert abs(Genus1Data(0.6j, CTRL).modulus.k_sq - Genus1Data(1j / 0.6, CTRL).modulus.kp_sq) < 1e-12


def test_jacobi_functions_against_reference_library():
    tau = 1.2j
    sn0, cn0, dn0, mod = _jacobi_functions(0.0, tau)
    assert abs(sn0) < 1e-14
    assert abs(cn0 - 1.0) < 1e-14
    assert abs(dn0 - 1.0) < 1e-14
    m = mod.k_sq.real
    big_k = math.pi / 2.0 * _value(Genus1Characteristic(0, 0), 0.0, tau).real ** 2
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
    assert max(elliptic_residuals(G1, [0.0], 1e-5)[0][:4]) < 1e-12
    stream = SampleStream(31, "elliptic")
    zs = [stream.next_complex(-0.4, 0.4, -0.2, 0.2) for _ in range(10)]
    assert max(max(rows[:4]) for rows in elliptic_residuals(G1, zs, 1e-5)) < 1e-11


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
        assert max(complete_integral_residuals(Genus1Data(tau, CTRL))) < 1e-9
    # the self-dual point: k^2 = 1/2 exactly at tau = i
    assert abs(Genus1Data(1.0j, CTRL).modulus.k_sq - 0.5) < 1e-10


def test_complete_integrals_domain_guard():
    for tau in (0.3 + 1.0j, 0.4j, 4.0j):
        with pytest.raises(ConfigInvalid):
            complete_integral_residuals(Genus1Data(tau, CTRL))


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
