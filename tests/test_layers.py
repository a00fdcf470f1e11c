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
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import draw_points

import g2theta.harness as harness
from g2theta.degeneration import degeneration_residuals, elliptic_residuals
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
from g2theta.theta import DEFAULT_TAU, Point2, SeriesControl, curve_data

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
# what perfbench/run.py reads from sys.modules after `import g2theta; import g2theta.cli`
EAGER_MODULES = ("theta", "inversion", "moduli", "flow", "errors", "cli")


def test_the_package_and_its_cli_load_the_layers_and_no_dataclasses():
    # a fresh interpreter, so no test has imported a layer first
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    code = "import sys, g2theta, g2theta.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300, check=True)
    loaded = set(proc.stdout.split())
    assert {f"g2theta.{name}" for name in EAGER_MODULES} <= loaded
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

        def recorded(cfg, name=name, runner=runner):
            calls.append(name)
            return runner(cfg)

        monkeypatch.setitem(harness._SUITE_RUNNERS, name, recorded)
    report = run_suites(RunConfig(samples=1))
    assert calls == list(SUITE_ORDER)
    assert [s.name for s in report.suites] == list(SUITE_ORDER)


CD = curve_data(DEFAULT_TAU)
TAU1, TAU2 = 0.1 + 1.1j, -0.15 + 1.3j
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
        lambda items: degeneration_residuals(items, TAU1, TAU2, SeriesControl()),
        POINTS,
    ),
    "elliptic": (
        lambda items: elliptic_residuals(items, TAU1, SeriesControl(), 1e-5),
        [point.u for point in POINTS],
    ),
}


@pytest.mark.parametrize("name", BATCHED_CHECKS)
def test_a_batch_gives_what_its_items_give_one_at_a_time(name):
    check, items = BATCHED_CHECKS[name]
    assert len(items) == 3
    assert check(items) == [result for item in items for result in check([item])]
