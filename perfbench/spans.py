"""Span tracing around the public functions of each g2theta layer.

Consumer modules bind library names at import time (``from .theta import
theta2``), so a wrapper is installed under every module attribute that holds
the original function, not only in the defining module.  Spans are kept in
flat arrays (label id, parent span, operation index, start, end, value) and
turned into per-layer metrics once the run is over.  Nothing under ``src/``
is changed: the wrappers live only in the traced process.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

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

SUITES = (
    "riemann",
    "fundamental",
    "moduli",
    "parameterizations",
    "flow",
    "addition",
    "derivative",
    "degeneration",
    "elliptic",
)

_SUMS = ("theta.theta2", "theta.theta2_grad")
_NULLS = ("theta.theta_null", "theta.theta_null_grad")
_RADIUS = "theta.truncation_radius"
_REPORT = "harness.report_to_json"
# spans that keep a number derived from their return value
_KEEP = {_RADIUS: int, _REPORT: len}


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("i")
        self._stack: list[int] = []
        self.op_index = -1
        self.active = False

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label: str, fn):
        lid = self._label_id(label)
        keep = _KEEP.get(label)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.label)
            self.label.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_index)
            self.value.append(-1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if keep is not None:
                self.value[idx] = keep(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer wherever it is bound.

        The suite runners are private to the harness; they are wrapped in its
        dispatch table so that each suite gets a span of its own.
        """
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"g2theta.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "g2theta" and not name.startswith("g2theta."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        runners = sys.modules["g2theta.harness"]._SUITE_RUNNERS
        for suite, fn in list(runners.items()):
            runners[suite] = self.wrap(f"harness.suite.{suite}", fn)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            value=np.frombuffer(self.value, dtype=np.int32),
        )


def layer_metrics(
    tr: Tracer, total_ops: int, count_ops: int, samples: int | None
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    Times (``*_s``, ``ns_per_term``) are per operation over every traced
    operation.  Counts are over the first ``count_ops`` operations only, so
    they repeat exactly for a given seed whatever the run length.  Per-sample
    counts divide by ``samples`` per operation (verify only; 0 elsewhere).
    ``trace.overhead_s`` needs untraced rounds and is added by the caller.
    """
    n = len(tr.label)
    label = np.frombuffer(tr.label, dtype=np.uint16)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    op = np.frombuffer(tr.op, dtype=np.int32)
    dur = np.frombuffer(tr.end, dtype=np.float64) - np.frombuffer(tr.start, dtype=np.float64)
    value = np.frombuffer(tr.value, dtype=np.int32)

    def lid(name: str) -> int:
        return tr._label_ids.get(name, len(tr.labels))  # absent: matches no span

    def is_(*names: str) -> np.ndarray:
        return np.isin(label, [lid(x) for x in names])

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time[:n]
    layer_index = {layer: k for k, layer in enumerate(LAYERS)}
    layer_lut = np.array([layer_index[s.split(".", 1)[0]] for s in tr.labels], dtype=np.int8)
    layer_of = layer_lut[label] if n else np.zeros(0, dtype=np.int8)
    counted = op < count_ops

    # index of the enclosing suite of every span, pushed down one level of
    # nesting per pass until nothing changes
    own_suite = np.full(n, -1, dtype=np.int8)
    for k, s in enumerate(SUITES):
        own_suite[label == lid(f"harness.suite.{s}")] = k
    suite_of = own_suite
    while True:
        inherited = np.where(has_parent, suite_of[np.where(has_parent, parent, 0)], -1)
        pushed = np.where(own_suite >= 0, own_suite, inherited)
        if np.array_equal(pushed, suite_of):
            break
        suite_of = pushed

    sums = is_(*_SUMS)
    trunc = is_(_RADIUS) & has_parent
    trunc &= sums[np.where(has_parent, parent, 0)]
    terms = np.where(trunc, (2 * value + 1) ** 2, 0)
    nulls = is_(*_NULLS)
    has_sum_child = np.zeros(n, dtype=bool)
    has_sum_child[parent[sums & has_parent]] = True
    misses = nulls & has_sum_child
    pairs = is_("inversion.recover_pair")
    reports = is_(_REPORT) & counted

    def per_op_count(mask: np.ndarray) -> float:
        return float(np.count_nonzero(mask & counted)) / count_ops

    def per_sample_count(mask: np.ndarray) -> float:
        if not samples:
            return 0.0
        return float(np.count_nonzero(mask & counted)) / (samples * count_ops)

    def per_op_time(mask: np.ndarray, t: np.ndarray = self_time) -> float:
        return float(t[mask].sum()) / total_ops

    theta_self = float(self_time[layer_of == layer_index["theta"]].sum())
    all_terms = int(terms.sum())
    null_calls = np.count_nonzero(nulls & counted)
    out: dict[str, tuple[float, str]] = {
        "theta.sums_per_op": (per_op_count(sums), "count"),
        "theta.terms_per_op": (float(terms[counted].sum()) / count_ops, "count"),
        "theta.max_radius": (float(value[trunc & counted].max(initial=0)), "count"),
        "theta.self_s": (theta_self / total_ops, "s"),
        "theta.ns_per_term": (theta_self / all_terms * 1e9 if all_terms else 0.0, "ns"),
        "theta.null_misses_per_op": (per_op_count(misses), "count"),
        "theta.null_hit_ratio": (
            1.0 - np.count_nonzero(misses & counted) / null_calls if null_calls else 0.0,
            "ratio",
        ),
        "moduli.calls_per_op": (per_op_count(is_("moduli.moduli_from_tau")), "count"),
        "inversion.pairs_per_op": (per_op_count(pairs), "count"),
        "flow.pairs_per_sample": (
            per_sample_count(pairs & (suite_of == SUITES.index("flow"))),
            "count",
        ),
        "degeneration.theta1_sums_per_op": (per_op_count(is_("degeneration.theta1")), "count"),
        "cli.serialize_s": (per_op_time(is_(_REPORT), dur), "s"),
        "cli.report_bytes": (float(value[reports].sum()) / count_ops, "bytes"),
        "harness.self_s": (
            per_op_time((layer_of == layer_index["harness"]) & ~is_(_REPORT)),
            "s",
        ),
    }
    for layer in ("moduli", "inversion", "flow", "riemann", "degeneration", "quadrature"):
        out[f"{layer}.self_s"] = (per_op_time(layer_of == layer_index[layer]), "s")
    for k, suite in enumerate(SUITES):
        out[f"harness.{suite}_s"] = (per_op_time(is_(f"harness.suite.{suite}"), dur), "s")
        out[f"harness.{suite}.sums_per_sample"] = (per_sample_count(sums & (suite_of == k)), "count")
    return out
