"""Work counts of the theta kernel: each point is evaluated once, each
batch of a suite evaluates its points in one kernel call, on grids of one
radius within the term budget, and the per-tau data (moduli, flow
constants) is built once per period matrix.

The counts are deterministic, so they pin the evaluation structure without
depending on timing.  A run builds its own per-tau data, so its counts do
not depend on what ran before it in the process either.
"""

from collections import Counter
from functools import lru_cache

import pytest

import g2theta.degeneration as degeneration
import g2theta.flow as flow
import g2theta.harness as harness
import g2theta.inversion as inversion
import g2theta.moduli as moduli
import g2theta.riemann as riemann
import g2theta.theta as theta
from conftest import draw_points

from g2theta.cli import main
from g2theta.harness import RunConfig, run_suites
from g2theta.riemann import Quadruple, riemann_relation_residuals
from g2theta.theta import ALL_CHARACTERISTICS, DEFAULT_TAU, PeriodMatrix, Point2


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _members(form):
    """The tables of each period matrix of a lattice form, along its leading
    axis, as bytes: one per period matrix of the grid that read it."""
    return [table.tobytes() for table in (form.quad if form.tau_factor is None else form.tau_factor)]


def test_recover_pair_builds_one_grid_and_one_moduli_set(monkeypatch):
    # a period matrix no other test uses, so its per-tau data is built here
    tau = PeriodMatrix(0.07 + 1.23j, -0.11 + 1.17j, 0.03 + 0.21j)
    points = draw_points(5, "work-counts", 6)
    grids, builds = [], []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    _counting(monkeypatch, moduli, "build_moduli", builds)
    inversion.recover_pair(points[0], tau)
    # the null grid, then the grid at the point
    assert [len(args[2]) for args in grids] == [1, 1]
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
    _counting(monkeypatch, theta, "_grid_sums", grids)
    _grid_sizes(monkeypatch, sizes)
    moduli.moduli_from_tau(tau)
    moduli.moduli_consistency_residuals(tau)
    moduli.null_ratio_signs(tau)
    flow.flow_constants(tau)
    # one grid at the origin: the 10 even nulls and the (d/du, d/dv) of
    # [10;10] and [11;10], at radius 4; the six odd nulls are exactly 0 and
    # are not summed
    assert [(len(values), len(grads), points, radius) for values, grads, points, _, radius in grids] == [
        (10, 2, (theta.ORIGIN,), (4, 4))
    ]
    # the values of the four lattice classes and the two jets of the classes
    # (1, 0) and (1, 1): 8 class-jet grids of 81 terms for 14 outputs
    assert sizes == [8 * 81]


def test_each_lattice_class_is_summed_once_for_all_of_its_characteristics(monkeypatch):
    cd = theta.curve_data(DEFAULT_TAU)  # the nulls are a grid of their own
    point = theta.Point2(0.31 - 0.18j, -0.42 + 0.2j)
    assert cd._radius(point) == 4
    sizes = []
    _grid_sizes(monkeypatch, sizes)
    cd.values_at(theta.ALL_CHARACTERISTICS, (point,))
    # 4 lattice classes of 81 terms, not one grid per characteristic (16 x 81
    # = 1,296 terms)
    assert sizes == [4 * 81]
    cd.rows_at(theta.ALL_CHARACTERISTICS, theta.ALL_CHARACTERISTICS, (point,))
    assert sizes[1:] == [3 * 4 * 81]
    inversion.recover_pair(point, DEFAULT_TAU)
    # the four characteristics recover_pair reads lie in two lattice classes
    assert sizes[2:] == [2 * 81]


def _radius_4_points(cd, count):
    points = [Point2(complex(0.3 - 0.05 * k, 0.1), complex(-0.2 + 0.04 * k, -0.1)) for k in range(count)]
    assert {cd._radius(point) for point in points} == {4}
    return points


def _counting_plan_builds(monkeypatch, builds):
    """Record every _layout build, on a cache of its own so no earlier call hits it."""
    build = theta._layout.__wrapped__

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(theta, "_layout", lru_cache(theta._layout.cache_info().maxsize)(counted))


def test_repeated_inversions_at_one_curve_and_radius_build_their_plan_once(monkeypatch):
    # two period matrices no other test uses, so their grids are made here
    taus = [
        PeriodMatrix(0.09 + 1.21j, -0.12 + 1.14j, 0.02 + 0.22j),
        PeriodMatrix(0.12 + 1.18j, -0.08 + 1.19j, 0.03 + 0.24j),
    ]
    builds = []
    _counting_plan_builds(monkeypatch, builds)
    for tau in taus:
        cd = theta.curve_data(tau)
        for point in _radius_4_points(cd, 5):
            inversion.recover_pair(point, tau)
    # the origin grid's plan (10 values and 2 gradients), then the plan of
    # the grid recover_pair reads (4 values), each built once, at radius 4,
    # and shared by the second period matrix
    assert [(len(values), len(grads), shape) for values, grads, shape in builds] == [
        (10, 2, (4, 4)),
        (4, 0, (4, 4)),
    ]
    assert list(cd._forms) == [4]


def test_a_plan_outlives_the_lattice_form_it_read(monkeypatch):
    tau = PeriodMatrix(0.11 + 1.16j, -0.09 + 1.24j, 0.01 + 0.19j)
    cd = theta.curve_data(tau)
    chars = ALL_CHARACTERISTICS[:2]
    by_radius = {cd._radius(p): p for p in (Point2(0.1 + 0.25j * k, -0.35j * k) for k in range(10))}
    radii = sorted(by_radius)[: theta._FORMS_PER_CURVE + 1]
    builds = []
    _counting_plan_builds(monkeypatch, builds)
    first = cd._form(radii[0])
    for n in radii:
        cd.values_at(chars, (by_radius[n],))
    # one plan per radius; the form of the first radius was dropped for the last
    assert [n for _, _, (n, _) in builds] == radii
    assert radii[0] not in cd._forms
    # the form is built again and the plan is not
    cd.values_at(chars, (by_radius[radii[0]],))
    assert [n for _, _, (n, _) in builds] == radii
    assert cd._form(radii[0]) is not first


def test_small_grids_certify_on_python_floats_and_large_ones_on_arrays(monkeypatch):
    theta.curve_data(DEFAULT_TAU).moduli  # the nulls are a grid of their own
    floats, arrays = [], []
    _counting(monkeypatch, theta, "_settle_floats", floats)
    _counting(monkeypatch, theta, "_settle", arrays)

    def grid_arrays():  # exact_row_sums settles 1-d arrays of rows
        return [args[0].shape for args in arrays if args[0].ndim == 2]

    # a fresh tau's origin grid: 10 values and 2 gradients, 14 outputs
    tau = PeriodMatrix(0.06 + 1.18j, -0.13 + 1.27j, 0.04 + 0.27j)
    theta.CurveData(tau, theta.SeriesControl())
    assert (len(floats), grid_arrays()) == (1, [])
    # recover_pair's grid: 1 point, 4 outputs
    cd = theta.curve_data(DEFAULT_TAU)
    inversion.recover_pair(_radius_4_points(cd, 1)[0], DEFAULT_TAU)
    assert (len(floats), grid_arrays()) == (2, [])
    # a riemann grid: 12 points of the 8 characteristics of the products, 96
    # outputs, in one grid of 7,776 terms
    cd.values_at(riemann._PRODUCT_CHARS, _radius_4_points(cd, 12))
    assert (len(floats), grid_arrays()) == (2, [(12, 16)])


def _after_the_run_curve(grids):
    """The grids after the first, which must be the origin grid of the one
    curve a run of a suite on one curve builds for itself."""
    first = grids[0]
    assert (first[2], len(_members(first[3]))) == ((theta.ORIGIN,), 1)
    return grids[1:]


def _grid_sizes(monkeypatch, sizes):
    """Record the number of terms of every grid summed, of genus 2 and of genus 1."""
    class_terms = theta._class_terms

    def counted_terms(*args):
        terms = class_terms(*args)
        sizes.append(terms.size)
        return terms

    monkeypatch.setattr(theta, "_class_terms", counted_terms)


def test_flow_suite_evaluates_each_batch_of_stencils_together(monkeypatch):
    stencils, grids = [], []
    _counting(monkeypatch, flow, "_pair_tables", stencils)
    _counting(monkeypatch, theta, "_grid_sums", grids)
    result = run_suites(RunConfig(samples=4, suites=("flow",))).suites[0]
    assert (result.samples_run, result.skip_reasons) == (4, {})
    grids = _after_the_run_curve(grids)
    # one batch: the 5-point stencils of all four samples in one call, on
    # grids of one radius each (4 characteristics x 81 terms a point at radius 4)
    assert [len(args[1]) for args in stencils] == [20]
    assert sum(len(args[2]) for args in grids) == 20
    assert len(grids) == len({args[4] for args in grids})


def test_parameterizations_suite_builds_one_grid_per_batch(monkeypatch):
    grids = []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    result = run_suites(RunConfig(samples=5, suites=("parameterizations",))).suites[0]
    assert (result.samples_run, result.skip_reasons) == (5, {})
    grids = _after_the_run_curve(grids)
    # the ratios, the pair and the unit sums of all five samples read one
    # 16-characteristic grid per radius
    assert [len(args[0]) for args in grids] == [16] * len(grids)
    assert sum(len(args[2]) for args in grids) == 5
    assert len(grids) == len({args[4] for args in grids})


def test_derivative_suite_reads_only_the_gradients_its_formulas_read(monkeypatch):
    grids = []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    result = run_suites(RunConfig(samples=20, suites=("derivative",))).suites[0]
    assert (result.samples_run, result.skip_reasons) == (20, {})
    grids = _after_the_run_curve(grids)
    # the values of nine characteristics and the gradients of the three the
    # formulas read: 4 class grids and 2 jets of 2 classes, 8 class-jet grids
    # a point, not 12, so the 20 points at radius 4 fill 2 grids, not 3
    assert [(len(args[0]), len(args[1])) for args in grids] == [(9, 3)] * len(grids)
    assert [args[4] for args in grids] == [(4, 4)] * len(grids)
    assert {theta._layout(tuple(args[0]), tuple(args[1]), (4, 4)).terms for args in grids} == {8 * 9**2}
    assert sum(len(args[2]) for args in grids) == 20
    assert len(grids) == 2


def test_riemann_relations_evaluate_each_point_once(monkeypatch):
    cd = theta.curve_data(DEFAULT_TAU)  # the nulls are a grid of their own
    calls, grids = [], []
    _counting(monkeypatch, theta.CurveData, "values_at", calls)
    _counting(monkeypatch, theta, "_grid_sums", grids)
    pts = draw_points(9, "work-counts-riemann", 4)
    quad = Quadruple(tuple(pts))
    riemann_relation_residuals(cd, [quad])
    # the quadruple and its transform share one values_at call, and each
    # point is on one grid
    assert len(calls) == 1
    points = [point for args in grids for point in args[2]]
    assert len(points) == len(set(points)) == 8


def test_degeneration_suite_evaluates_each_sample_point_once(monkeypatch):
    cfg = RunConfig(samples=3, suites=("degeneration",))
    grids, genus1 = [], []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    _counting(monkeypatch, degeneration, "_grid_sums", genus1)
    result = run_suites(cfg).suites[0]
    assert (result.samples_run, result.skip_reasons) == (3, {})
    # the run's split curve, then one batch: the splitting check and the
    # recovered pair read one 16-characteristic grid at tau12 = 0 ...
    grids = _after_the_run_curve(grids)
    assert [len(args[0]) for args in grids] == [16] * len(grids)
    assert sum(len(args[2]) for args in grids) == 3
    # ... and, after the three even genus-1 nulls of tau1, one genus-1
    # evaluation of the four values at (u, tau1) and at (v, tau2), on (N, 0)
    # boxes
    assert [(len(args[0]), args[2]) for args in genus1[:1]] == [(3, (theta.ORIGIN,))]
    assert {(len(args[0]), len(args[1]), args[4][1]) for args in genus1[1:]} == {(4, 0, 0)}
    assert sum(len(args[2]) for args in genus1[1:]) == 2 * 3


def test_verify_keeps_every_grid_within_its_budget_and_evaluates_each_point_once(monkeypatch):
    grids, genus1, sizes = [], [], []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    _counting(monkeypatch, degeneration, "_grid_sums", genus1)
    _grid_sizes(monkeypatch, sizes)
    report = run_suites(RunConfig(samples=20))
    assert report.passed
    assert max(sizes) <= theta._GRID_TERMS
    # the 305 grids of one sample at a time, less than a third of them
    assert len(sizes) == len(grids) + len(genus1) < 305 / 3
    # each point is evaluated once per period matrix, the origin too: the
    # nulls and the null gradients are one grid; a genus-1 tau's period
    # matrix diag(tau, tau) on its (N, 0) boxes counts as one more
    evaluated = Counter(
        (member, point)
        for _, _, points, form, _ in grids + genus1
        for member in _members(form)
        for point in points
    )
    assert {key: n for key, n in evaluated.items() if n > 1} == {}


def test_the_moduli_suite_stacks_the_origin_grids_of_its_batch(monkeypatch):
    cfg = RunConfig(samples=20, suites=("moduli",))
    grids, sizes = [], []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    _grid_sizes(monkeypatch, sizes)
    result = run_suites(cfg).suites[0]
    assert (result.samples_run, result.skip_reasons) == (20, {})
    # the configured tau, sample 0, is the run's curve
    grids, sizes = _after_the_run_curve(grids), sizes[1:]
    # the 19 drawn period matrices share stacked origin grids: at most one
    # per radius and _GRID_TERMS chunk, not one grid per tau (a radius with
    # one period matrix is a stack of one)
    members = [_members(args[3]) for args in grids]
    taus = Counter(tau for stack in members for tau in stack)
    assert len(taus) == 19 and max(taus.values()) == 1
    per_radius = Counter()
    for (_, _, points, _, n), stack in zip(grids, members):
        assert points == (theta.ORIGIN,)
        per_radius[n] += len(stack)
    request = (theta.EVEN_CHARACTERISTICS, theta._NULL_GRAD_CHARS)
    chunks = sum(
        -(-count // (theta._GRID_TERMS // theta._layout(*request, n).terms))
        for n, count in per_radius.items()
    )
    assert len(grids) == chunks < 19 / 4
    # every grid's class terms, 8 class-jet grids of (2N+1)^2 a period matrix
    assert len(sizes) == len(grids)
    assert max(sizes) <= theta._GRID_TERMS


def test_a_verify_run_makes_at_most_22_grids(monkeypatch):
    grids = []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    assert run_suites(RunConfig(samples=20)).passed
    assert len(grids) == 22
    # the configured and the split curve's origin grids, one each: the first
    # grid and the one before the degeneration suite's ...
    built = [grids.pop(-2), grids.pop(0)]
    assert [(args[2], len(_members(args[3]))) for args in built] == [((theta.ORIGIN,), 1)] * 2
    # ... then point grids within the class-term budget and the moduli
    # suite's stacked origin grids; one origin grid per drawn period matrix
    # made 60
    stacks = [args for args in grids if len(_members(args[3])) > 1]
    assert len(stacks) == 2


def test_a_run_does_the_same_work_whatever_ran_before_it(monkeypatch):
    calls = {"grids": [], "genus1": [], "forms1": [], "moduli": [], "flow": []}
    _counting(monkeypatch, theta, "_grid_sums", calls["grids"])
    _counting(monkeypatch, degeneration, "_grid_sums", calls["genus1"])
    _counting(monkeypatch, degeneration, "_lattice_form", calls["forms1"])
    _counting(monkeypatch, moduli, "build_moduli", calls["moduli"])
    _counting(monkeypatch, flow, "build_flow_constants", calls["flow"])
    counts = []
    for run in range(4):
        if run == 3:
            theta._curve_data.cache_clear()
        for recorded in calls.values():
            recorded.clear()
        assert run_suites(RunConfig(samples=20, seed=3)).passed
        counts.append({name: len(recorded) for name, recorded in calls.items()})
    # the 21 grids of the samples and one origin grid each of the configured
    # and split curves; the genus-1 grids: the nulls of tau1, i and 1.5i, the
    # degeneration batch's at (u, tau1) and at (v, tau2) and the elliptic
    # batch's (one radius each); the genus-1 lattice forms, kept for the run:
    # one each of tau1 (its nulls, degeneration and elliptic batches read the
    # same radius), tau2, i and 1.5i; the moduli of the two curves and of the
    # 19 drawn period matrices
    assert counts == [{"grids": 23, "genus1": 6, "forms1": 4, "moduli": 21, "flow": 1}] * 4


def test_a_verify_run_sends_only_vanishing_parts_to_exact_row_sums(monkeypatch):
    rows = []
    _counting(monkeypatch, theta, "exact_row_sums", rows)
    assert run_suites(RunConfig(samples=20, seed=3)).passed
    # the parts whose terms sum to exactly 0, which no certified sum can
    # round: on the split curve's origin grid (81 terms), the null of
    # [11;11] and the d/dv of [10;10] and [11;10]; the imaginary parts of the
    # even genus-1 nulls of i (9 terms) and 1.5i (7), whose terms are real
    assert [args[0].shape for args in rows] == [(6, 81), (3, 9), (3, 7)]


@pytest.mark.parametrize(
    ("suites", "curves", "genus1"),
    [
        # no curve; the nulls of tau1, one batch at z, z + h and z - h, then
        # the nulls of i and 1.5i
        (("elliptic",), [], [1, 3 * 20, 1, 1]),
        # the configured curve; the drawn period matrices are the suite's own
        (("moduli",), [DEFAULT_TAU], []),
        # the configured curve, then the split curve and the nulls of tau1,
        # and one batch at (u, tau1) and at (v, tau2)
        (("fundamental", "degeneration"), [DEFAULT_TAU, PeriodMatrix(*DEFAULT_TAU[:2], 0.0)], [1, 20, 20]),
    ],
)
def test_a_run_builds_only_the_per_tau_data_its_suites_read(monkeypatch, suites, curves, genus1):
    built, grids = [], []
    _counting(monkeypatch, harness, "CurveData", built)
    _counting(monkeypatch, degeneration, "_grid_sums", grids)
    assert run_suites(RunConfig(samples=20, suites=suites)).passed
    assert [args[0] for args in built] == curves
    # the points of each genus-1 grid
    assert [len(args[2]) for args in grids] == genus1


def test_the_library_leaves_the_curve_cache_alone(capsys):
    theta.curve_data(DEFAULT_TAU)  # so a stray read would be a hit, and counted
    info = theta._curve_data.cache_info()
    assert run_suites(RunConfig(samples=2)).passed
    assert main(["verify", "--samples", "2"]) == 0
    assert main(["moduli"]) == 0
    assert main(["invert", "--u", "0.21,-0.09", "--v=-0.13,0.11"]) == 0
    capsys.readouterr()
    assert theta._curve_data.cache_info() == info


@pytest.mark.parametrize(
    "tau",
    [PeriodMatrix(0.09 + 1.21j, -0.12 + 1.14j, 0.02 + 0.24j), PeriodMatrix(0.1 + 1.1j, 30j, 0.05 + 0.25j)],
    ids=["factored", "per-term"],
)
def test_a_curve_alone_is_a_batch_of_one(monkeypatch, tau):
    ctrl = theta.SeriesControl()
    radius = theta.truncation_radius(tau, theta.ORIGIN, ctrl)
    assert theta._in_factor_range(tau, (radius, radius)) == (tau.tau2.imag < 2)
    grids = []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    alone = theta.CurveData(tau, ctrl)
    [batch] = theta.curve_batch([tau], ctrl)
    # one origin grid each, on a lattice form of one period matrix
    assert [(args[2], len(_members(args[3])), args[4]) for args in grids] == [
        ((theta.ORIGIN,), 1, (radius, radius))
    ] * 2
    assert _members(alone._form(radius)) == _members(batch._form(radius)) == _members(grids[0][3])
    assert (batch.nulls, batch.null_grads) == (alone.nulls, alone.null_grads)


def test_cli_invert_builds_one_grid_at_its_point(monkeypatch, capsys):
    grids = []
    _counting(monkeypatch, theta, "_grid_sums", grids)
    assert main(["invert", "--u", "0.21,-0.09", "--v=-0.13,0.11"]) == 0
    capsys.readouterr()
    # the command's curve: its 10 even nulls at the origin; then the pair and
    # all 18 parameterization rows read one 16-characteristic grid
    assert [(len(args[0]), len(args[2])) for args in grids] == [(10, 1), (16, 1)]


def test_verify_builds_per_tau_data_once(monkeypatch):
    moduli_builds, flow_builds = [], []
    _counting(monkeypatch, moduli, "build_moduli", moduli_builds)
    _counting(monkeypatch, flow, "build_flow_constants", flow_builds)
    report = run_suites(RunConfig(samples=20))
    assert report.passed
    # the configured tau, its split partner and the moduli suite's samples
    per_tau = Counter((cd.tau, cd.ctrl) for (cd,) in moduli_builds)
    assert len(per_tau) == 21
    assert max(per_tau.values()) == 1
    assert [cd.tau for (cd,) in flow_builds] == [DEFAULT_TAU]


def test_a_run_of_more_samples_than_the_cache_holds_builds_per_tau_data_once(monkeypatch):
    moduli_builds, flow_builds = [], []
    _counting(monkeypatch, moduli, "build_moduli", moduli_builds)
    _counting(monkeypatch, flow, "build_flow_constants", flow_builds)
    cfg = RunConfig(samples=100, suites=("fundamental", "moduli", "flow"))
    assert 100 > theta._NULL_CACHE_TAUS
    report = run_suites(cfg)
    assert report.passed
    # the run's configured curve and the moduli suite's 99 drawn period
    # matrices, none of them kept by the cache
    per_tau = Counter((cd.tau, cd.ctrl) for (cd,) in moduli_builds)
    assert len(per_tau) == 100
    assert max(per_tau.values()) == 1
    assert [cd.tau for (cd,) in flow_builds] == [DEFAULT_TAU]
