"""g2theta benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {verify,invert,curves} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; ``src`` is put on the
import path, so nothing needs installing.  The run is one process:

1. set-up, repeated ``SETUP_REPEATS`` times: import a fresh copy of g2theta
   (new module objects, empty caches) and run one warm-up operation;
2. the timed phase: whole rounds of operations until ``--seconds`` of
   operation time have passed (and at least ``count_rounds`` rounds);
3. checks of every output, and of a subsample against the mpmath oracle.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
timed phase runs with spans around every public library function and it
prints the per-layer metrics instead.  Spans are written to ``out/`` next
to this file.  The last line of standard output is the result object.

End-to-end times are reported in reference seconds.  The speed of a shared
host drifts by tens of percent over minutes, and that drift moves every
piece of code alike, so a fixed pure-Python calibration loop runs before
the first round and after every round (and every set-up), and each round's
wall time is scaled by ``CAL_REF_S`` over the mean time of the two loops
around it.  On a host as fast as the one the constant was measured on,
reference seconds are wall seconds; the wall figures are printed on the
line before the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
CAL_LOOPS = 20000  # one calibration sub-slice
CAL_REF_S = 0.0075  # three sub-slices on the reference host (2-core Xeon VM)


def _calibration_slice() -> float:
    """Wall time of three calibration sub-slices: three times their median."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc = (acc * 31 + i) & 0xFFFFF
        times.append(time.perf_counter() - t0)
    return 3.0 * statistics.median(times)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fresh_import() -> None:
    for name in [n for n in sys.modules if n == "g2theta" or n.startswith("g2theta.")]:
        del sys.modules[name]
    gc.collect()
    importlib.import_module("g2theta")
    importlib.import_module("g2theta.cli")  # the package does not import its CLI


def _setup(wl, warmup_rng) -> float:
    """Import g2theta afresh and run one warm-up operation; returns seconds."""
    gc.collect()
    t0 = time.perf_counter()
    _fresh_import()
    wl.run(wl.make_round(warmup_rng())[0])
    return time.perf_counter() - t0


def _setups(wl, warmup_rng) -> tuple[list[float], list[float]]:
    """SETUP_REPEATS set-ups: (wall seconds, reference seconds) of each."""
    wall, ref = [], []
    cal_before = _calibration_slice()
    for _ in range(SETUP_REPEATS):
        wall.append(_setup(wl, warmup_rng))
        cal_after = _calibration_slice()
        ref.append(wall[-1] * CAL_REF_S / (0.5 * (cal_before + cal_after)))
        cal_before = cal_after
    return wall, ref


class _Phase:
    """Outcome of a timed phase: per-op times and outputs kept for checks."""

    def __init__(self):
        self.op_times: list[float] = []
        self.timed = 0.0
        self.ref_op_times: list[float] = []  # the same in reference seconds
        self.ref_timed = 0.0
        self.cal_times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.kept: list = []
        self.peak_rss_mib = None  # read once rss_ops operations have run
        # traced runs only: operations and operation time of the traced rounds
        self.traced_ops = 0
        self.traced_time = 0.0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_phase(wl, rng, seconds, tracer=None) -> _Phase:
    """Whole rounds until `seconds` of operation time, at least count_rounds.

    With a tracer, even rounds are traced and odd rounds are not, so that the
    tracing overhead is measured on interleaved rounds that see the same
    machine; at least count_rounds rounds are traced.
    """
    errors = sys.modules["g2theta.errors"]
    ph = _Phase()
    rounds = 0
    min_rounds = wl.count_rounds if tracer is None else 2 * wl.count_rounds
    cal_before = _calibration_slice()
    while rounds < min_rounds or ph.timed < seconds:
        inputs = wl.make_round(rng)
        outputs = []
        traced = tracer is not None and rounds % 2 == 0
        if tracer is not None:
            tracer.active = traced
        start = time.perf_counter()
        for inp in inputs:
            if traced:
                tracer.op_index = ph.traced_ops + len(outputs)
            t0 = time.perf_counter()
            try:
                out = wl.run(inp)
            except errors.G2ThetaError as exc:
                out = exc
            ph.op_times.append(time.perf_counter() - t0)
            outputs.append(out)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        cal_after = _calibration_slice()
        scale = CAL_REF_S / (0.5 * (cal_before + cal_after))
        ph.cal_times.append(cal_after)
        cal_before = cal_after
        ph.timed += elapsed
        ph.ref_timed += elapsed * scale
        ph.ref_op_times += [t * scale for t in ph.op_times[-len(inputs):]]
        if traced:
            ph.traced_ops += len(inputs)
            ph.traced_time += elapsed
        rounds += 1
        if ph.peak_rss_mib is None and len(ph.op_times) >= wl.rss_ops:
            ph.peak_rss_mib = _peak_rss_mib()
        # outside the timed phase: cheap checks; the first good op of each
        # round is kept for the oracle checks
        kept = False
        for inp, out in zip(inputs, outputs):
            bad = [] if isinstance(out, Exception) else wl.check(inp, out)
            if isinstance(out, Exception) or bad:
                ph.failed += 1
                ph.problems += bad
            elif not kept:
                ph.kept.append((inp, out))
                kept = True
    return ph


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "g2theta" / "__init__.py").is_file():
        print(f"error: g2theta sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  imported once, outside every set-up timing

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT)
    stream = f"g2theta-perfbench/{args.workload}/{args.seed}"

    def warmup_rng():
        return random.Random(stream + "/warmup")

    setup_wall, setup_ref = _setups(wl, warmup_rng)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    ph = _timed_phase(wl, random.Random(stream), args.seconds, tracer)
    if ph.peak_rss_mib is None:
        ph.peak_rss_mib = _peak_rss_mib()

    deep = wl.deep_check(ph.kept)
    ph.failed += len(deep)
    ph.problems += deep
    attempted = len(ph.op_times)
    for line in ph.problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "ops_per_s": (attempted / ph.ref_timed, "ops/s"),
            "op_p50_ms": (statistics.median(ph.ref_op_times) * 1e3, "ms"),
            "peak_rss_mib": (ph.peak_rss_mib, "MiB"),
        }
        print(
            f"wall: setup_s {statistics.median(setup_wall):.6g}"
            f" ops_per_s {attempted / ph.timed:.6g}"
            f" op_p50_ms {statistics.median(ph.op_times) * 1e3:.6g};"
            f" calibration {statistics.median(ph.cal_times) * 1e3:.4g} ms"
            f" (reference {CAL_REF_S * 1e3:.4g} ms)"
        )
    else:
        count_ops = wl.count_rounds * wl.round_size
        metrics = spans.layer_metrics(tracer, ph.traced_ops, count_ops, wl.samples)
        untraced_ops = attempted - ph.traced_ops
        metrics["trace.overhead_s"] = (
            ph.traced_time / ph.traced_ops - (ph.timed - ph.traced_time) / untraced_ops, "s"
        )
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")

    result = {
        "correct": not ph.problems,
        "attempted": attempted,
        "failed": ph.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
