"""End-to-end acceptance runs: the headline guarantees at stated tolerances.

Each criterion prints one [PASS]/[FAIL] line (visible under `pytest -s`, or
in captured output otherwise) and asserts the same condition.
"""

import time

import pytest

from conftest import ShiftKind, draw_points, half_shift, shifted_argument

from g2theta.degeneration import (
    complete_integral_residuals,
    degeneration_residuals,
    elliptic_modulus,
    elliptic_residuals,
)
from g2theta.flow import (
    addition_formula_residuals,
    derivative_formula_residuals,
    flow_constants,
    stencil_residuals,
)
from g2theta.harness import RunConfig, report_to_json, run_suites
from g2theta.inversion import parameterization_residuals, recover_pair
from g2theta.moduli import moduli_consistency_residuals, moduli_from_tau
from g2theta.riemann import (
    Quadruple,
    fundamental_identity_residuals,
    riemann_relation_residuals,
)
from g2theta.rng import SampleStream
from g2theta.theta import (
    ALL_CHARACTERISTICS,
    DEFAULT_TAU,
    PeriodMatrix,
    Point2,
    SeriesControl,
    curve_data,
    theta2,
)

CD = curve_data(DEFAULT_TAU)
ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_riemann_relations():
    start = time.perf_counter()
    pts = draw_points(101, "acc-riemann", 400)
    quads = [Quadruple(tuple(pts[4 * i : 4 * i + 4])) for i in range(100)]
    worst = max(max(r) for r in riemann_relation_residuals(CD, quads))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(
        "riemann-relations", ok,
        f"max residual {worst:.3e} over 100 quadruples, 8 relations each, "
        f"{elapsed:.2f}s",
    )
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_fundamental_identities():
    rows = fundamental_identity_residuals(CD, draw_points(102, "acc-fundamental", 100))
    worst = max(max(r) for r in rows)
    ok = worst < 1e-10
    _report("fundamental-identities", ok, f"max residual {worst:.3e} over 100 points")
    assert ok


def test_criterion_3_shift_table():
    worst = 0.0
    for p in draw_points(103, "acc-shifts", 10):
        for c in ALL_CHARACTERISTICS:
            for kind in ShiftKind:
                rule = half_shift(c, kind)
                lhs = theta2(c, shifted_argument(kind, p, DEFAULT_TAU), DEFAULT_TAU)
                rhs = rule.factor(p, DEFAULT_TAU) * theta2(
                    rule.new_characteristic, p, DEFAULT_TAU
                )
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst < 1e-11
    _report(
        "shift-table", ok,
        f"max residual {worst:.3e} over 16 characteristics x 5 shifts x 10 points",
    )
    assert ok


def test_criterion_4_moduli_consistency():
    stream = SampleStream(104, "acc-moduli")
    worst = 0.0
    for _ in range(10):
        tau = PeriodMatrix(
            stream.next_complex(-0.3, 0.3, 0.9, 1.5),
            stream.next_complex(-0.3, 0.3, 0.9, 1.5),
            stream.next_complex(-0.1, 0.1, 0.1, 0.35),
        )
        worst = max(worst, max(r for _, r in moduli_consistency_residuals(tau)))
    ok = worst < 1e-10
    _report("moduli-consistency", ok, f"max residual {worst:.3e} over 10 period matrices")
    assert ok


def test_criterion_5_parameterizations():
    rows = parameterization_residuals(CD, draw_points(105, "acc-params", 100))
    worst = max(max(r) for r, _ in rows)
    ok = worst < 1e-8
    _report(
        "parameterizations", ok,
        f"max residual {worst:.3e} for 15 forms in one sign class over 100 points",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="theta[10;01] is even, so (1-x1)(1-x2) stays nonzero at the origin "
    "and the second recovered member is 1/k0^2, not 1",
)
def test_criterion_5_origin_pair_as_stated():
    pair = recover_pair(ORIGIN, DEFAULT_TAU)
    members = sorted((pair.x1, pair.x2), key=abs)
    gap = max(abs(members[0]), abs(members[1] - 1.0))
    ok = gap < 1e-12
    _report("origin-pair-{0,1}", ok, f"members {members[0]:.3e}, {members[1]:.6f}")
    assert ok


def test_criterion_5_origin_pair_forced_values():
    ms = moduli_from_tau(DEFAULT_TAU)
    pair = recover_pair(ORIGIN, DEFAULT_TAU)
    gap = max(abs(pair.x2), abs(pair.x1 * ms.k0_sq - 1.0))
    ok = gap < 1e-12
    _report(
        "origin-pair-{0,1/k0^2}", ok,
        f"max deviation {gap:.3e} from the branch-point pair the nulls force",
    )
    assert ok


def test_criterion_6_flow_equations():
    flow_constants(DEFAULT_TAU)  # raises on tilde disagreement beyond 1e-8
    pts = draw_points(106, "acc-flow", 20)
    worst = max(max(flow + abelian) for flow, abelian in stencil_residuals(CD, pts, 1e-5))
    ratios = [
        max(coarse) / max(fine)
        for (coarse, _), (fine, _) in zip(
            stencil_residuals(CD, pts, 1e-4), stencil_residuals(CD, pts, 5e-5)
        )
    ]
    worst_ratio = min(ratios), max(ratios)
    ok = worst < 1e-6 and 3.5 < worst_ratio[0] and worst_ratio[1] < 4.5
    _report(
        "flow-equations", ok,
        f"max FD residual {worst:.3e} at h=1e-5, step ratios in "
        f"[{worst_ratio[0]:.3f}, {worst_ratio[1]:.3f}], tilde forms agree to 1e-8",
    )
    assert worst < 1e-6
    assert 3.5 < worst_ratio[0] and worst_ratio[1] < 4.5


def test_criterion_7_addition_and_derivative_formulas():
    pts = draw_points(107, "acc-addition", 200)
    pairs = list(zip(pts[0::2], pts[1::2]))
    worst_add = max(max(r) for r in addition_formula_residuals(CD, pairs))
    points = draw_points(108, "acc-derivative", 100)
    worst_der = max(max(r) for r in derivative_formula_residuals(CD, points))
    ok = worst_add < 1e-10 and worst_der < 1e-9
    _report(
        "addition-derivative", ok,
        f"addition max {worst_add:.3e} over 100 pairs, "
        f"derivative max {worst_der:.3e} over 100 points",
    )
    assert worst_add < 1e-10
    assert worst_der < 1e-9


def test_criterion_8_genus1_degeneration():
    tau1, tau2 = 0.1 + 1.1j, -0.15 + 1.3j
    ctrl = SeriesControl()
    split = degeneration_residuals(draw_points(109, "acc-split", 10), tau1, tau2, ctrl)
    worst_split = max(max(rows[:16]) for rows, _ in split)  # the split-* rows

    stream = SampleStream(110, "acc-elliptic")
    zs = [stream.next_complex(-0.4, 0.4, -0.2, 0.2) for _ in range(10)]
    # the three squared-theta identities and the null quartic
    worst_ell = max(max(rows[:4]) for rows in elliptic_residuals(zs, tau1, ctrl, 1e-5))

    tau = PeriodMatrix(tau1, tau2, 0.0)
    ms = moduli_from_tau(tau)
    members = [recover_pair(pt, tau).x1 for pt in draw_points(111, "acc-constant", 8)]
    spread = max(abs(v - members[0]) for v in members)
    const_gap = max(spread, abs(members[0] - 1.0 / ms.k0_sq))

    ode = max(rows[6] for rows in elliptic_residuals([0.17 - 0.06j, 0.0], tau1, ctrl, 1e-5))
    integ = max(
        max(complete_integral_residuals(1.0j)),
        max(complete_integral_residuals(1.5j)),
    )
    half_gap = abs(elliptic_modulus(1.0j).k_sq - 0.5)

    ok = (
        worst_split < 1e-12
        and worst_ell < 1e-11
        and const_gap < 1e-9
        and ode < 1e-6
        and integ < 1e-9
        and half_gap < 1e-10
    )
    _report(
        "genus1-degeneration", ok,
        f"splitting {worst_split:.3e}, identities {worst_ell:.3e}, "
        f"constant member {const_gap:.3e}, sn ODE {ode:.3e}, "
        f"integrals {integ:.3e}, k^2(i)-1/2 {half_gap:.3e}",
    )
    assert worst_split < 1e-12
    assert worst_ell < 1e-11
    assert const_gap < 1e-9
    assert ode < 1e-6
    assert integ < 1e-9
    assert half_gap < 1e-10


def test_criterion_9_byte_identical_reports():
    cfg = RunConfig(samples=20)
    first = report_to_json(run_suites(cfg))
    second = report_to_json(run_suites(cfg))
    ok = first == second and '"passed": true' in first
    _report(
        "report-determinism", ok,
        f"two runs, {len(first)} bytes each, identical: {first == second}",
    )
    assert first == second
    assert '"passed": true' in first
