"""Work counts of the theta kernel: each point is evaluated once, the
multi-point checks evaluate all their points on one grid, and the per-tau
data (moduli, flow constants) is built once per period matrix.

The counts are deterministic, so they pin the evaluation structure without
depending on timing.
"""

from collections import Counter

import g2theta.degeneration as degeneration
import g2theta.flow as flow
import g2theta.inversion as inversion
import g2theta.moduli as moduli
import g2theta.theta as theta
from conftest import draw_points

from g2theta.harness import RunConfig, run_suites
from g2theta.riemann import Quadruple, riemann_relation_residuals
from g2theta.theta import DEFAULT_TAU, PeriodMatrix


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_recover_pair_builds_one_grid_and_one_moduli_set(monkeypatch):
    # a period matrix no other test uses, so its per-tau data is built here
    tau = PeriodMatrix(0.07 + 1.23j, -0.11 + 1.17j, 0.03 + 0.21j)
    points = draw_points(5, "work-counts", 6)
    grids, builds = [], []
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    _counting(monkeypatch, moduli, "build_moduli", builds)
    inversion.recover_pair(points[0], tau)
    # the all-16 null grid, then the grid at the point
    assert [len(args[1]) for args in grids] == [1, 1]
    assert len(builds) == 1
    for point in points:
        inversion.recover_pair(point, tau)
    # one grid per call, and the moduli are not built again
    assert len(grids) == 2 + len(points)
    assert len(builds) == 1


def test_flow_suite_recovers_at_most_five_pairs_per_attempt(monkeypatch):
    flow.flow_constants(DEFAULT_TAU)  # the null gradients are a grid of their own
    stencils, grids = [], []
    _counting(monkeypatch, flow, "_recover_pairs", stencils)
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    result = run_suites(RunConfig(samples=4, suites=("flow",))).suites[0]
    attempts = result.samples_run + sum(result.skip_reasons.values())
    assert result.samples_run == 4
    # one 5-point stencil per attempt, evaluated on one grid
    assert len(stencils) == len(grids) == attempts
    assert all(len(args[1]) == 5 for args in stencils)
    assert all(len(args[1]) == 5 for args in grids)


def test_parameterizations_suite_builds_one_grid_per_attempt(monkeypatch):
    theta.curve_data(DEFAULT_TAU)  # the nulls are a grid of their own
    grids = []
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    result = run_suites(RunConfig(samples=5, suites=("parameterizations",))).suites[0]
    attempts = result.samples_run + sum(result.skip_reasons.values())
    # the ratios, the pair and the unit sums all read one 16-characteristic grid
    assert [len(args[0]) for args in grids] == [16] * attempts


def test_riemann_relations_evaluate_each_point_once(monkeypatch):
    theta.curve_data(DEFAULT_TAU)  # the nulls are a grid of their own
    calls = []
    _counting(monkeypatch, theta, "_lattice_terms", calls)
    pts = draw_points(9, "work-counts-riemann", 4)
    quad = Quadruple(tuple(pts))
    riemann_relation_residuals(quad, DEFAULT_TAU)
    # the quadruple and its transform share one kernel call
    assert len(calls) == 1
    points = calls[0][1]
    assert len(points) == len(set(points)) == 8


def test_degeneration_suite_evaluates_each_sample_point_once(monkeypatch):
    cfg = RunConfig(samples=3, suites=("degeneration",))
    run_suites(cfg)  # memoizes the nulls of the split period matrix
    radii, genus1 = [], []
    _counting(monkeypatch, theta, "truncation_radius", radii)
    _counting(monkeypatch, degeneration, "_theta1_values", genus1)
    result = run_suites(cfg).suites[0]
    attempts = result.samples_run + sum(result.skip_reasons.values())
    # one stacked grid for the splitting check, one for the recovered pair
    assert len(radii) == 2 * attempts
    # one genus-1 grid for the splitting (four values at each argument), one
    # for x (two values)
    assert [len(args[0]) for args in genus1] == [8, 2] * attempts


def test_verify_builds_per_tau_data_once(monkeypatch):
    theta._curve_data.cache_clear()
    moduli_builds, flow_builds = [], []
    _counting(monkeypatch, moduli, "build_moduli", moduli_builds)
    _counting(monkeypatch, flow, "build_flow_constants", flow_builds)
    report = run_suites(RunConfig(samples=20))
    assert report.passed
    # the configured tau, its split partner and the moduli suite's samples
    per_tau = Counter((cd.tau, cd.ctrl) for (cd,) in moduli_builds)
    assert len(per_tau) >= 21
    assert max(per_tau.values()) == 1
    assert [cd.tau for (cd,) in flow_builds] == [DEFAULT_TAU]
