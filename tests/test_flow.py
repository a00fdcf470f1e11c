"""Flow equations against finite differences, addition and derivative formulas."""

import numpy as np
import pytest

from conftest import DIVISOR_U, DIVISOR_V, draw_points

from g2theta.errors import SingularDenominator, StencilCrossesDivisor
from g2theta.flow import (
    addition_formula_residuals,
    derivative_formula_residuals,
    flow_constants,
    stencil_residuals,
)
from g2theta.inversion import recover_pair
from g2theta.moduli import moduli_from_tau
from g2theta.rng import SampleStream
from g2theta.theta import DEFAULT_TAU, PeriodMatrix, Point2, curve_data

CD = curve_data(DEFAULT_TAU)
ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)
FLOW_POINTS = draw_points(0, "flow", 20)


def test_constants_satisfy_definitions():
    fc = flow_constants(DEFAULT_TAU)
    ms = moduli_from_tau(DEFAULT_TAU)
    assert fc.A == -fc.a_u + fc.b_u
    assert fc.B == fc.a_u * ms.k2_sq - fc.b_u * ms.k1_sq
    assert fc.C == -fc.c_v + fc.d_v
    assert fc.D == fc.c_v * ms.k2_sq - fc.d_v * ms.k1_sq
    assert fc.det == fc.A * fc.D - fc.B * fc.C
    assert fc.P == -fc.C / fc.det
    assert fc.Q == -fc.D / fc.det
    assert fc.R == fc.A / fc.det
    assert fc.S == fc.B / fc.det


def test_constants_defined_at_seeded_tau():
    # construction re-derives a_u, b_u through an independent null weighting
    # and refuses on disagreement, so a clean return certifies both routes
    stream = SampleStream(3, "flow-tau")
    for _ in range(5):
        tau = PeriodMatrix(
            stream.next_complex(-0.3, 0.3, 0.9, 1.5),
            stream.next_complex(-0.3, 0.3, 0.9, 1.5),
            stream.next_complex(-0.1, 0.1, 0.1, 0.35),
        )
        fc = flow_constants(tau)
        assert abs(fc.det) > 0.0


def test_flow_matches_finite_differences():
    rows = stencil_residuals(CD, FLOW_POINTS, 1e-5)
    assert max(max(flow) for flow, _ in rows) < 1e-6


def test_abelian_differentials_recover_unit_rates():
    rows = stencil_residuals(CD, FLOW_POINTS, 1e-5)
    assert max(max(abelian) for _, abelian in rows) < 1e-6


def test_flow_residual_scales_quadratically_in_step():
    # central differences: halving h must cut the residual by about 4
    coarse = stencil_residuals(CD, FLOW_POINTS[:6], 1e-4)
    fine = stencil_residuals(CD, FLOW_POINTS[:6], 5e-5)
    for (flow_coarse, _), (flow_fine, _) in zip(coarse, fine):
        assert 3.5 < max(flow_coarse) / max(flow_fine) < 4.5


def test_jacobian_determinant_identity():
    fc = flow_constants(DEFAULT_TAU)
    for pt in FLOW_POINTS[:5]:
        pair = recover_pair(pt, DEFAULT_TAU)
        x1, x2, sg1, sg2 = pair.x1, pair.x2, pair.sigma1, pair.sigma2
        dx = x2 - x1
        jac = np.array([
            [(fc.A + fc.B * x2) * sg1 / dx, (fc.C + fc.D * x2) * sg1 / dx],
            [-(fc.A + fc.B * x1) * sg2 / dx, -(fc.C + fc.D * x1) * sg2 / dx],
        ])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        closed = fc.det * sg1 * sg2 / dx
        assert abs(det - closed) / (1.0 + abs(closed)) < 1e-12
        inv = np.array([
            [(fc.P + fc.Q * x1) / sg1, (fc.P + fc.Q * x2) / sg2],
            [(fc.R + fc.S * x1) / sg1, (fc.R + fc.S * x2) / sg2],
        ])
        assert np.abs(inv @ jac - np.eye(2)).max() < 1e-12


def test_addition_formulas_at_seeded_pairs():
    pts = draw_points(19, "addition", 40)
    rows = addition_formula_residuals(CD, list(zip(pts[0::2], pts[1::2])))
    assert max(max(r) for r in rows) < 1e-12


def test_addition_formulas_special_arguments():
    p, q = Point2(0.21 - 0.09j, -0.13 + 0.11j), Point2(-0.32 + 0.05j, 0.18 - 0.07j)
    shifted = Point2(p.u + 1.0, p.v)
    for pair in ((p, ORIGIN), (ORIGIN, p), (q, p), (shifted, q)):
        assert max(addition_formula_residuals(CD, [pair])[0]) < 1e-12


def test_derivative_formulas_at_seeded_points_and_origin():
    rows = derivative_formula_residuals(CD, draw_points(23, "derivative", 20))
    assert max(max(r) for r in rows) < 1e-12
    assert max(derivative_formula_residuals(CD, [ORIGIN])[0]) < 1e-12


def test_derivative_formulas_reject_divisor_point():
    with pytest.raises(SingularDenominator):
        derivative_formula_residuals(CD, [Point2(DIVISOR_U, DIVISOR_V)])


def test_stencil_near_divisor_raises():
    # the center recovers fine but the u + h stencil point lands on the divisor
    near = Point2(DIVISOR_U - 1e-5, DIVISOR_V)
    recover_pair(near, DEFAULT_TAU)
    # the flow and the Abelian residuals share this stencil
    with pytest.raises(StencilCrossesDivisor):
        stencil_residuals(CD, [near], 1e-5)
