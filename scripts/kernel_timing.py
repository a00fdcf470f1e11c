"""Time the theta kernel's fixed cost per grid, in µs per call, or two source
trees against each other, op by op.

Cases, all at DEFAULT_TAU and radius 4:

- pair grid: the row recover_pair reads, 1 point and 4 characteristics
  (theta._point_row: the point's terms from its factors, then theta._certify,
  the one step that certifies every request's terms);
- recover_pair: one whole inversion at that point, the nulls cached;
- pair stage: the pair from the four theta values recover_pair reads there
  (inversion._pair_from_thetas on one kept row), the kernel left out;
- values_at 6x16 and rows_at 6x16: 6 points and all 16 characteristics,
  as values and as values and gradients;
- values_at 25x8: a full riemann grid, 25 points of the 8 characteristics
  of riemann's products, whose batch point conversion and radii show here;
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
flipped every round: a `g2theta verify` of --samples samples (20 by
default) of the suites named by --suite (repeatable; all nine by default)
through cli.main at a fresh seed, PAIR_CALLS recover_pair at fresh points
of INVERT_BOX at DEFAULT_TAU (of radius 4 or 5, as perfbench's invert
workload draws them), CURVE_CALLS fresh CurveData, CURVE_CALLS operations
of perfbench's curves workload (each on a fresh period matrix: its moduli,
their consistency residuals, the null ratio signs, the flow constants and
a recover_pair at each of CURVE_POINTS), and a fresh import of the package
and its CLI (under a third name, so the other ops keep their modules).  Both trees get the
same inputs.  For each op it prints the median over the rounds of
BEFORE's time over AFTER's (above 1 when AFTER is faster), the quartiles of
that ratio, and whether the two trees' outputs were equal in every round:

    PYTHONPATH=src python scripts/kernel_timing.py --ab ../parent/src --rounds 300
    PYTHONPATH=src python scripts/kernel_timing.py --ab ../parent/src --suite degeneration --suite elliptic
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

from g2theta import harness, inversion, riemann, theta
from g2theta.rng import SampleStream
from g2theta.theta import ALL_CHARACTERISTICS, DEFAULT_TAU, CurveData, PeriodMatrix, Point2, SeriesControl

ROUNDS = 15
CALLS = 400  # calls per run; a fresh CurveData, and 20 stacked ones, run a quarter as many
AB_ROUNDS = 100  # rounds of --ab, each one op of each kind per tree
PAIR_CALLS = 50  # recover_pair calls per timed --ab op
CURVE_CALLS = 20  # fresh CurveData, or curves operations, per timed --ab op
# the box of perfbench's invert workload (POINT_BOX in perfbench/workloads.py):
# |Re| <= 0.5 and |Im| <= 0.6 in u and v, so at DEFAULT_TAU about 44% of its
# points have truncation radius 5 and the rest 4 (harness._BOX, |Im| <= 0.2,
# gives radius 4 only)
INVERT_BOX = (-0.5, 0.5, -0.6, 0.6)
# the points perfbench's curves workload inverts on every period matrix
CURVE_POINTS = ((0.1 + 0.05j, -0.2 + 0.1j), (-0.3 + 0.15j, 0.25 - 0.1j))

# six points of truncation radius 4 at DEFAULT_TAU
POINTS = tuple(
    Point2(complex(0.31 - 0.12 * k, -0.18 + 0.05 * k), complex(-0.42 + 0.15 * k, 0.2 - 0.07 * k))
    for k in range(6)
)
# 25 points of truncation radius 4 at DEFAULT_TAU, as many as a riemann grid holds
RIEMANN_POINTS = tuple(
    Point2(complex(-0.6 + 0.05 * k, 0.1 - 0.008 * k), complex(0.5 - 0.04 * k, -0.12 + 0.01 * k)) for k in range(25)
)


def _cases():
    cd = theta.curve_data(DEFAULT_TAU)
    cd.moduli  # recover_pair reads the moduli from the cache
    assert {cd._radius(point) for point in POINTS + RIEMANN_POINTS} == {4}
    pair_chars = inversion._PAIR_CHARS
    point, ctrl = POINTS[0], SeriesControl()
    [row] = cd.values_at(pair_chars, (point,))
    boxes = (harness._TAU_DIAG, harness._TAU_DIAG, harness._TAU_OFF)
    taus = [PeriodMatrix(*sample) for sample in SampleStream(0, "kernel-timing").draw(20, boxes)]
    return {
        "pair grid (1 point, 4 chars)": (CALLS, lambda: theta._point_row(cd, pair_chars, (), point)),
        "recover_pair": (CALLS, lambda: inversion.recover_pair(point, DEFAULT_TAU)),
        "pair stage": (CALLS, lambda: inversion._pair_from_thetas(cd, row, point)),
        "values_at 6x16": (CALLS, lambda: cd.values_at(ALL_CHARACTERISTICS, POINTS)),
        "rows_at 6x16": (CALLS // 4, lambda: cd.rows_at(ALL_CHARACTERISTICS, ALL_CHARACTERISTICS, POINTS)),
        "values_at 25x8 (riemann)": (CALLS // 4, lambda: cd.values_at(riemann._PRODUCT_CHARS, RIEMANN_POINTS)),
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
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("cli", "flow", "inversion", "moduli", "theta")}


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


def _tree_ops(name: str, src: Path, report: str, verify_args: list[str]) -> dict:
    """Each --ab op of the tree under src, loaded as `name`: input -> a comparable
    output; verify_args are the verify op's --samples and --suite arguments."""
    tree = _load_tree(name, src)
    cli, flow_, inversion_, moduli_, theta_ = (tree[mod] for mod in ("cli", "flow", "inversion", "moduli", "theta"))

    def verify(seed):
        argv = ["verify", *verify_args, "--seed", str(seed), "--json", report]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, Path(report).read_bytes()

    def pairs(points):
        recovered = [inversion_.recover_pair(theta_.Point2(u, v), theta_.DEFAULT_TAU) for u, v in points]
        # by name, which reads a record tree and a dataclass tree alike
        return [(p.x1, p.x2, p.sigma1, p.sigma2, p.sign_flipped) for p in recovered]

    def fresh_curves(taus):
        return [tuple(theta_.CurveData(theta_.PeriodMatrix(*tau), theta_.SeriesControl()).nulls.values()) for tau in taus]

    def curves(taus):
        out = []
        for tau in map(theta_.PeriodMatrix._make, taus):
            out.append((
                tuple(moduli_.moduli_from_tau(tau)),
                moduli_.moduli_consistency_residuals(tau),
                moduli_.null_ratio_signs(tau),
                tuple(flow_.flow_constants(tau)),
                [tuple(inversion_.recover_pair(theta_.Point2(u, v), tau)) for u, v in CURVE_POINTS],
            ))
        return out

    return {
        "verify": verify,
        "recover_pair": pairs,
        "fresh CurveData": fresh_curves,
        "curves": curves,
        "fresh import": lambda _: _fresh_import(f"{name}_import", src),
    }


def _ab(before: Path, after: Path, rounds: int, verify_args: list[str]) -> None:
    rng = random.Random(0)

    def box(re_lo, re_hi, im_lo, im_hi):
        return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))

    def inputs(op):
        if op == "verify":
            return rng.getrandbits(63)
        if op == "fresh import":
            return None
        if op == "recover_pair":
            return [(box(*INVERT_BOX), box(*INVERT_BOX)) for _ in range(PAIR_CALLS)]
        return [(box(*harness._TAU_DIAG), box(*harness._TAU_DIAG), box(*harness._TAU_OFF)) for _ in range(CURVE_CALLS)]

    with tempfile.TemporaryDirectory() as tmp:
        trees = [
            _tree_ops(name, src.resolve(), os.path.join(tmp, f"{name}.json"), verify_args)
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
    ap.add_argument("--samples", type=int, default=20, help="samples of the --ab verify op")
    ap.add_argument("--suite", action="append", choices=harness.SUITE_ORDER, default=[],
                    help="a suite of the --ab verify op (repeatable; default: all)")
    args = ap.parse_args()
    if args.ab is None:
        _kernel_cases()
        return 0
    if len(args.ab) > 2:
        ap.error("--ab takes BEFORE and at most one AFTER")
    before, after = (*args.ab, Path(__file__).resolve().parents[1] / "src")[:2]
    verify_args = ["--samples", str(args.samples), *(arg for suite in args.suite for arg in ("--suite", suite))]
    _ab(before, after, args.rounds, verify_args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
