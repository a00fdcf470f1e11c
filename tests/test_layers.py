"""The public surface of each layer, as a span tracer sees it.

perfbench/spans.py wraps every callable a layer names in its __all__, and
each suite runner in harness._SUITE_RUNNERS.  A stale __all__ entry or a
runner the harness does not dispatch through would break only a traced run,
so both are checked here.
"""

import ast
import importlib
import inspect

import pytest

import g2theta.harness as harness
from g2theta.harness import SUITE_ORDER, RunConfig, run_suites

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
