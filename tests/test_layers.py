"""The public surface of each layer, as a span tracer sees it, and the
batched identity checks it exposes.

perfbench/spans.py wraps every callable a layer names in its __all__, and
each entry of harness._SUITE_RUNNERS: one per suite of harness._SUITES, the
sampling loop _run_suite bound to the suite's name.  A stale __all__ entry,
or a runner the harness does not dispatch through, would break only a
traced run, so both are checked here.

Every identity check takes a batch and returns one result per item; the
harness passes whole batches and the tests mostly batches of one, so a
batch must give, bit for bit, what its items give one at a time.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import draw_points

import g2theta.harness as harness
import g2theta.theta as theta
from g2theta.degeneration import degeneration_residuals, elliptic_residuals, genus1_nulls
from g2theta.flow import (
    addition_formula_residuals,
    derivative_formula_residuals,
    stencil_residuals,
)
from g2theta.harness import SUITE_ORDER, RunConfig, run_suites
from g2theta.inversion import parameterization_residuals
from g2theta.riemann import (
    Quadruple,
    fundamental_identity_residuals,
    riemann_relation_residuals,
)
from g2theta.theta import DEFAULT_TAU, CurveData, PeriodMatrix, Point2, SeriesControl, curve_data

LAYERS = (
    "theta",
    "riemann",
    "moduli",
    "inversion",
    "flow",
    "degeneration",
    "quadrature",
    "harness",
    "cli",
)


def _top_level_definitions(module) -> set[str]:
    """Names a module binds itself at top level: defs, classes, assignments."""
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_is_defined_in_its_layer(layer):
    module = importlib.import_module(f"g2theta.{layer}")
    exported = module.__all__
    assert len(exported) == len(set(exported))
    defined = _top_level_definitions(module)
    for name in exported:
        obj = getattr(module, name)
        assert name in defined, f"{layer}.{name} is not defined in g2theta.{layer}"
        if callable(obj):
            assert obj.__module__ == module.__name__, name


SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    """A module of perfbench/, loaded by path as it stands."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_package_and_its_cli_load_the_layers_and_no_dataclasses():
    # perfbench/spans.py's Tracer.install reads every layer of its LAYERS from
    # sys.modules after perfbench/run.py's `import g2theta; import g2theta.cli`;
    # they are the layers whose exported names are checked above
    layers = _perfbench_module("spans").LAYERS
    assert set(layers) == set(LAYERS)
    # a fresh interpreter, so no test has imported a layer first
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    code = "import sys, g2theta, g2theta.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300, check=True)
    loaded = set(proc.stdout.split())
    assert {f"g2theta.{name}" for name in layers} <= loaded
    # records are tuples: no module of the package imports dataclasses, not even lazily
    for path in sorted((SRC / "g2theta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in [module.split(".")[0] for module in modules], path.name


def test_run_suites_dispatches_every_suite_through_the_runner_table(monkeypatch):
    assert set(harness._SUITE_RUNNERS) == set(SUITE_ORDER)
    calls = []
    for name, runner in list(harness._SUITE_RUNNERS.items()):
        assert callable(runner), name

        def recorded(*args, name=name, runner=runner):
            calls.append(name)
            return runner(*args)

        monkeypatch.setitem(harness._SUITE_RUNNERS, name, recorded)
    report = run_suites(RunConfig(samples=1))
    assert calls == list(SUITE_ORDER)
    assert [s.name for s in report.suites] == list(SUITE_ORDER)


@pytest.mark.parametrize("workload", ["verify", "invert", "curves"])
def test_the_benchmark_workloads_run_on_the_library(workload, tmp_path):
    # what perfbench/workloads.py calls of the library, loaded as it stands;
    # it reads the layers from sys.modules, where perfbench/run.py imports them
    importlib.import_module("g2theta.cli")
    workloads = _perfbench_module("workloads")
    bench = workloads.make(workload, tmp_path)
    for item in bench.make_round(random.Random(0))[:2]:
        assert bench.check(item, bench.run(item)) == []
    # Verify.deep_check reads theta values at the reports' worst points
    c, origin = theta.HalfCharacteristic(0, 0, 0, 0), theta.Point2(0j, 0j)
    assert theta.theta2(c, origin, theta.PeriodMatrix(*DEFAULT_TAU)) == CD.nulls[c]


CD = curve_data(DEFAULT_TAU)
TAU1, TAU2 = 0.1 + 1.1j, -0.15 + 1.3j
SPLIT = CurveData(PeriodMatrix(TAU1, TAU2, 0.0), SeriesControl())
NULLS1 = genus1_nulls(TAU1, SeriesControl())
# two points of the harness box, and one far enough out to need a larger
# truncation radius, so the batch spans more than one grid
POINTS = draw_points(43, "batch-of-three", 2) + [Point2(0.31 + 0.55j, -0.22 - 0.48j)]
QUADS = [Quadruple(tuple(draw_points(44, f"batch-quad-{i}", 4))) for i in range(3)]

BATCHED_CHECKS = {
    "riemann": (lambda items: riemann_relation_residuals(CD, items), QUADS),
    "fundamental": (lambda items: fundamental_identity_residuals(CD, items), POINTS),
    "stencil": (lambda items: stencil_residuals(CD, items, 1e-5), POINTS),
    "addition": (
        lambda items: addition_formula_residuals(CD, items),
        list(zip(POINTS, POINTS[1:] + POINTS[:1])),
    ),
    "derivative": (lambda items: derivative_formula_residuals(CD, items), POINTS),
    "parameterization": (lambda items: parameterization_residuals(CD, items), POINTS),
    "degeneration": (
        lambda items: degeneration_residuals(SPLIT, NULLS1, items),
        POINTS,
    ),
    "elliptic": (
        lambda items: elliptic_residuals(TAU1, NULLS1, items, SeriesControl(), 1e-5),
        [point.u for point in POINTS],
    ),
}


@pytest.mark.parametrize("name", BATCHED_CHECKS)
def test_a_batch_gives_what_its_items_give_one_at_a_time(name):
    check, items = BATCHED_CHECKS[name]
    assert len(items) == 3
    assert check(items) == [result for item in items for result in check([item])]
