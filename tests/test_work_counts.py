"""Work counts of the theta kernel: each point is evaluated once, each
batch of a suite evaluates its points in one kernel call, on grids of one
radius within the term budget, and the per-tau data (moduli, flow
constants) is built once per period matrix.

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

from g2theta.cli import main
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


def test_a_fresh_tau_evaluates_the_origin_once(monkeypatch):
    # the per-tau work of one curves benchmark operation, at a period matrix
    # no other test uses
    tau = PeriodMatrix(0.13 + 1.19j, -0.07 + 1.08j, 0.04 + 0.23j)
    grids, sizes = [], []
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    _grid_sizes(monkeypatch, sizes)
    moduli.moduli_from_tau(tau)
    moduli.moduli_consistency_residuals(tau)
    moduli.null_ratio_signs(tau)
    flow.flow_constants(tau)
    # one grid at the origin: the 16 nulls and the (d/du, d/dv) rows of
    # [10;10] and [11;10], 20 rows of 81 terms at radius 4
    assert [(len(chars), points, radius) for chars, points, _, radius in grids] == [
        (16, (theta.ORIGIN,), 4)
    ]
    assert sizes == [20 * 81]


def _grid_sizes(monkeypatch, sizes):
    """Record the number of terms of every grid summed, genus 2 (jets
    included) and genus 1."""
    for module in (theta, degeneration):
        original = module.complex_row_sums

        def counted(rows, original=original):
            sizes.append(rows.size)
            return original(rows)

        monkeypatch.setattr(module, "complex_row_sums", counted)


def test_flow_suite_evaluates_each_batch_of_stencils_together(monkeypatch):
    flow.flow_constants(DEFAULT_TAU)  # the nulls and null gradients are a grid of their own
    stencils, grids = [], []
    _counting(monkeypatch, flow, "_pair_tables", stencils)
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    result = run_suites(RunConfig(samples=4, suites=("flow",))).suites[0]
    assert (result.samples_run, result.skip_reasons) == (4, {})
    # one batch: the 5-point stencils of all four samples in one call, on
    # grids of one radius each (4 characteristics x 81 terms a point at radius 4)
    assert [len(args[1]) for args in stencils] == [20]
    assert sum(len(args[1]) for args in grids) == 20
    assert len(grids) == len({args[3] for args in grids})


def test_parameterizations_suite_builds_one_grid_per_batch(monkeypatch):
    theta.curve_data(DEFAULT_TAU)  # the nulls are a grid of their own
    grids = []
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    result = run_suites(RunConfig(samples=5, suites=("parameterizations",))).suites[0]
    assert (result.samples_run, result.skip_reasons) == (5, {})
    # the ratios, the pair and the unit sums of all five samples read one
    # 16-characteristic grid per radius
    assert [len(args[0]) for args in grids] == [16] * len(grids)
    assert sum(len(args[1]) for args in grids) == 5
    assert len(grids) == len({args[3] for args in grids})


def test_riemann_relations_evaluate_each_point_once(monkeypatch):
    theta.curve_data(DEFAULT_TAU)  # the nulls are a grid of their own
    calls, grids = [], []
    _counting(monkeypatch, theta.CurveData, "values_at", calls)
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    pts = draw_points(9, "work-counts-riemann", 4)
    quad = Quadruple(tuple(pts))
    riemann_relation_residuals(quad, DEFAULT_TAU)
    # the quadruple and its transform share one values_at call, and each
    # point is on one grid
    assert len(calls) == 1
    points = [point for args in grids for point in args[1]]
    assert len(points) == len(set(points)) == 8


def test_degeneration_suite_evaluates_each_sample_point_once(monkeypatch):
    cfg = RunConfig(samples=3, suites=("degeneration",))
    run_suites(cfg)  # memoizes the nulls of the split period matrix
    grids, genus1 = [], []
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    _counting(monkeypatch, degeneration, "_theta1_values", genus1)
    result = run_suites(cfg).suites[0]
    assert (result.samples_run, result.skip_reasons) == (3, {})
    # one batch: the splitting check and the recovered pair read one
    # 16-characteristic grid at tau12 = 0 ...
    assert [len(args[0]) for args in grids] == [16] * len(grids)
    assert sum(len(args[1]) for args in grids) == 3
    # ... and one genus-1 evaluation, four values at u and four at v
    assert [len(args[0]) for args in genus1] == [8 * 3]


def test_verify_keeps_every_grid_within_its_budget_and_evaluates_each_point_once(monkeypatch):
    theta._curve_data.cache_clear()
    degeneration._nulls1.cache_clear()
    grids, genus1, sizes = [], [], []
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    _counting(monkeypatch, degeneration, "_theta1_grid", genus1)
    _grid_sizes(monkeypatch, sizes)
    report = run_suites(RunConfig(samples=20))
    assert report.passed
    assert max(sizes) <= theta._GRID_TERMS
    # the 305 grids of one sample at a time, less than a third of them
    assert len(sizes) == len(grids) + len(genus1) < 305 / 3
    # each point is evaluated once per period matrix, the origin too: the
    # nulls and the null gradients are one grid
    evaluated = Counter(
        (cd.tau, point) for chars, points, cd, _ in grids for point in points
    )
    assert {key: n for key, n in evaluated.items() if n > 1} == {}
    rows = Counter(row for rows, _ in genus1 for row in rows)
    assert max(rows.values()) == 1


def test_cli_invert_builds_one_grid_at_its_point(monkeypatch, capsys):
    theta.curve_data(DEFAULT_TAU)  # the nulls are a grid of their own
    grids = []
    _counting(monkeypatch, theta, "_lattice_terms", grids)
    assert main(["invert", "--u", "0.21,-0.09", "--v=-0.13,0.11"]) == 0
    capsys.readouterr()
    # the pair and all 18 parameterization rows read one 16-characteristic grid
    assert [(len(args[0]), len(args[1])) for args in grids] == [(16, 1)]


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


def test_a_run_of_more_samples_than_the_cache_holds_builds_per_tau_data_once(monkeypatch):
    theta._curve_data.cache_clear()
    moduli_builds, flow_builds = [], []
    _counting(monkeypatch, moduli, "build_moduli", moduli_builds)
    _counting(monkeypatch, flow, "build_flow_constants", flow_builds)
    cfg = RunConfig(samples=100, suites=("fundamental", "moduli", "flow"))
    assert 100 > theta._NULL_CACHE_TAUS
    report = run_suites(cfg)
    assert report.passed
    # the moduli suite's 99 drawn period matrices do not push the configured
    # tau's per-tau data out of the cache
    per_tau = Counter((cd.tau, cd.ctrl) for (cd,) in moduli_builds)
    assert len(per_tau) == 100
    assert max(per_tau.values()) == 1
    assert [cd.tau for (cd,) in flow_builds] == [DEFAULT_TAU]
