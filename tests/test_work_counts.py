"""Work counts of the theta kernel: each point is evaluated once, and the
multi-point checks evaluate all their points on one grid.

The counts are deterministic, so they pin the evaluation structure without
depending on timing.
"""

import g2theta.degeneration as degeneration
import g2theta.flow as flow
import g2theta.inversion as inversion
import g2theta.riemann as riemann
import g2theta.theta as theta
from conftest import draw_points

from g2theta.harness import RunConfig, run_suites
from g2theta.riemann import Quadruple, riemann_relation_residuals
from g2theta.theta import DEFAULT_TAU


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_recover_pair_builds_one_grid_and_one_moduli_set(monkeypatch):
    points = draw_points(5, "work-counts", 6)
    inversion.recover_pair(points[0], DEFAULT_TAU)  # nulls are memoized after this
    radii, moduli = [], []
    _counting(monkeypatch, theta, "truncation_radius", radii)
    _counting(monkeypatch, inversion, "moduli_from_tau", moduli)
    for point in points:
        inversion.recover_pair(point, DEFAULT_TAU)
    assert len(radii) == len(points)
    assert len(moduli) == len(points)


def test_flow_suite_recovers_at_most_five_pairs_per_attempt(monkeypatch):
    stencils, grids = [], []
    _counting(monkeypatch, flow, "recover_pairs", stencils)
    _counting(monkeypatch, inversion, "theta_values_at", grids)
    result = run_suites(RunConfig(samples=4, suites=("flow",))).suites[0]
    attempts = result.samples_run + sum(result.skip_reasons.values())
    assert result.samples_run == 4
    # one 5-point stencil per attempt, evaluated on one grid
    assert len(stencils) == len(grids) == attempts
    assert all(len(args[0]) == 5 for args in stencils)
    assert all(len(args[1]) == 5 for args in grids)


def test_riemann_relations_evaluate_each_point_once(monkeypatch):
    calls = []
    _counting(monkeypatch, riemann, "theta_values_at", calls)
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
    _counting(monkeypatch, degeneration, "theta1", genus1)
    result = run_suites(cfg).suites[0]
    attempts = result.samples_run + sum(result.skip_reasons.values())
    # one stacked grid for the splitting check, one for the recovered pair
    assert len(radii) == 2 * attempts
    # four genus-1 values per argument for the splitting, two for x
    assert len(genus1) == 10 * attempts
