"""Time the theta kernel's fixed cost per grid, in µs per call, or two source
trees against each other, op by op.

Cases, all at DEFAULT_TAU and radius 4:

- pair grid: the grid recover_pair reads, 1 point and 4 characteristics
  (theta._grid_sums called directly on the curve's lattice form);
- recover_pair: one whole inversion at that point, the nulls cached;
- values_at 6x16 and rows_at 6x16: 6 points and all 16 characteristics,
  the size of one riemann grid, as values and as values and gradients;
- fresh CurveData: one new period matrix, its lattice form and origin grid;
- stacked CurveData: 20 new period matrices from the harness's Siegel box,
  built by curve_batch on stacked origin grids (compare 20 fresh ones);
- fresh import: the package and its CLI imported again, one import a run,
  as the set-up of perfbench/run.py does, under a name of its own so the
  other cases keep their modules.  Bytecode writing is off, so each import
  compiles the sources unless a __pycache__ next to them holds bytecode.

Each figure is the minimum over interleaved rounds of the mean of a run of
calls, so the cases share whatever the machine is doing.  Run it as

    PYTHONPATH=src python scripts/kernel_timing.py

A minimum of rounds cannot resolve an effect of 1-2% on a shared host, and
two benchmark processes run one after the other favour whichever runs
second.  So --ab BEFORE [AFTER] loads the g2theta package of each source
directory (AFTER defaults to this checkout's src) under a name of its own
in this one process, and alternates the two trees op by op, the order
flipped every round: a 20-sample `g2theta verify` through cli.main at a
fresh seed, PAIR_CALLS recover_pair at fresh points at DEFAULT_TAU,
CURVE_CALLS fresh CurveData, and a fresh import of the package and its CLI
(under a third name, so the other ops keep their modules).  Both trees get
the same inputs.  For each op it prints the median over the rounds of
BEFORE's time over AFTER's (above 1 when AFTER is faster), the quartiles of
that ratio, and whether the two trees' outputs were equal in every round:

    PYTHONPATH=src python scripts/kernel_timing.py --ab ../parent/src --rounds 300
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from g2theta import harness, inversion, theta
from g2theta.rng import SampleStream
from g2theta.theta import ALL_CHARACTERISTICS, DEFAULT_TAU, CurveData, PeriodMatrix, Point2, SeriesControl

ROUNDS = 15
CALLS = 400  # calls per run; a fresh CurveData, and 20 stacked ones, run a quarter as many
AB_ROUNDS = 100  # rounds of --ab, each one op of each kind per tree
PAIR_CALLS = 50  # recover_pair calls per timed --ab op
CURVE_CALLS = 20  # fresh CurveData per timed --ab op

# six points of truncation radius 4 at DEFAULT_TAU
POINTS = tuple(
    Point2(complex(0.31 - 0.12 * k, -0.18 + 0.05 * k), complex(-0.42 + 0.15 * k, 0.2 - 0.07 * k))
    for k in range(6)
)


def _cases():
    cd = theta.curve_data(DEFAULT_TAU)
    cd.moduli  # recover_pair reads the moduli from the cache
    assert {cd._radius(point) for point in POINTS} == {4}
    pair_chars = inversion._PAIR_CHARS
    point, ctrl, form = POINTS[0], SeriesControl(), cd._form(4)
    boxes = (harness._TAU_DIAG, harness._TAU_DIAG, harness._TAU_OFF)
    taus = [PeriodMatrix(*sample) for sample in SampleStream(0, "kernel-timing").draw(20, boxes)]
    return {
        "pair grid (1 point, 4 chars)": (CALLS, lambda: theta._grid_sums(pair_chars, (), (point,), form, 4)),
        "recover_pair": (CALLS, lambda: inversion.recover_pair(point, DEFAULT_TAU)),
        "values_at 6x16": (CALLS, lambda: cd.values_at(ALL_CHARACTERISTICS, POINTS)),
        "rows_at 6x16": (CALLS // 4, lambda: cd.rows_at(ALL_CHARACTERISTICS, ALL_CHARACTERISTICS, POINTS)),
        "fresh CurveData": (CALLS // 4, lambda: CurveData(DEFAULT_TAU, ctrl)),
        "stacked CurveData (20 taus)": (CALLS // 4, lambda: theta.curve_batch(taus, ctrl)),
        "fresh import": (1, lambda: _fresh_import("g2theta_import", Path(theta.__file__).parents[1])),
    }


def _kernel_cases() -> None:
    cases = _cases()
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(ROUNDS):
        for name, (calls, call) in cases.items():
            start = time.perf_counter()
            for _ in range(calls):
                call()
            best[name] = min(best[name], (time.perf_counter() - start) / calls)
    for name, seconds in best.items():
        print(f"{name:<30} {seconds * 1e6:8.1f} µs")


def _load_tree(name: str, src: Path):
    """The g2theta package under src, imported afresh as the package `name`."""
    for mod in [n for n in sys.modules if n == name or n.startswith(f"{name}.")]:
        del sys.modules[mod]
    init = src / "g2theta" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("cli", "inversion", "theta")}


def _fresh_import(name: str, src: Path) -> list[str]:
    """The package under src and its CLI imported afresh as `name`, which
    the g2theta modules this process uses do not share: the names of the
    modules it loaded."""
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        _load_tree(name, src)
    finally:
        sys.dont_write_bytecode = writes
    return sorted(mod.removeprefix(f"{name}.") for mod in sys.modules if mod.startswith(f"{name}."))


def _tree_ops(name: str, src: Path, report: str) -> dict:
    """Each --ab op of the tree under src, loaded as `name`: input -> a comparable output."""
    tree = _load_tree(name, src)
    cli, inversion_, theta_ = tree["cli"], tree["inversion"], tree["theta"]

    def verify(seed):
        argv = ["verify", "--samples", "20", "--seed", str(seed), "--json", report]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, Path(report).read_bytes()

    def pairs(points):
        recovered = [inversion_.recover_pair(theta_.Point2(u, v), theta_.DEFAULT_TAU) for u, v in points]
        # by name, which reads a record tree and a dataclass tree alike
        return [(p.x1, p.x2, p.sigma1, p.sigma2, p.sign_flipped) for p in recovered]

    def curves(taus):
        return [tuple(theta_.CurveData(theta_.PeriodMatrix(*tau), theta_.SeriesControl()).nulls.values()) for tau in taus]

    return {
        "verify": verify,
        "recover_pair": pairs,
        "fresh CurveData": curves,
        "fresh import": lambda _: _fresh_import(f"{name}_import", src),
    }


def _ab(before: Path, after: Path, rounds: int) -> None:
    rng = random.Random(0)

    def box(re_lo, re_hi, im_lo, im_hi):
        return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))

    def inputs(op):
        if op == "verify":
            return rng.getrandbits(63)
        if op == "fresh import":
            return None
        if op == "recover_pair":
            return [(box(*harness._BOX), box(*harness._BOX)) for _ in range(PAIR_CALLS)]
        return [(box(*harness._TAU_DIAG), box(*harness._TAU_DIAG), box(*harness._TAU_OFF)) for _ in range(CURVE_CALLS)]

    with tempfile.TemporaryDirectory() as tmp:
        trees = [
            _tree_ops(name, src.resolve(), os.path.join(tmp, f"{name}.json"))
            for name, src in (("g2theta_before", before), ("g2theta_after", after))
        ]
        for ops in trees:  # warm up: imports, the DEFAULT_TAU caches, the plans
            for op, run in ops.items():
                run(inputs(op))
        ratios = {op: [] for op in trees[0]}
        equal = dict.fromkeys(trees[0], True)
        for k in range(rounds):
            for op in ratios:
                args, seconds, outputs = inputs(op), [0.0, 0.0], [None, None]
                for i in (0, 1) if k % 2 == 0 else (1, 0):
                    start = time.perf_counter()
                    outputs[i] = trees[i][op](args)
                    seconds[i] = time.perf_counter() - start
                ratios[op].append(seconds[0] / seconds[1])
                equal[op] = equal[op] and outputs[0] == outputs[1]
    for op, values in ratios.items():
        low, median, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(
            f"{op:<16} before/after median {median:.3f} (quartiles {low:.3f}-{high:.3f}), "
            f"{len(values)} rounds, outputs equal: {equal[op]}"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ab", nargs="+", metavar="SRC", type=Path,
                    help="time the g2theta package under BEFORE against AFTER (default: this checkout's src)")
    ap.add_argument("--rounds", type=int, default=AB_ROUNDS, help="rounds of --ab")
    args = ap.parse_args()
    if args.ab is None:
        _kernel_cases()
        return 0
    if len(args.ab) > 2:
        ap.error("--ab takes BEFORE and at most one AFTER")
    before, after = (*args.ab, Path(__file__).resolve().parents[1] / "src")[:2]
    _ab(before, after, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
