"""Time the theta kernel's fixed cost per grid, in µs per call.

Cases, all at DEFAULT_TAU and radius 4:

- pair grid: the grid recover_pair reads, 1 point and 4 characteristics
  (theta._grid_sums called directly);
- recover_pair: one whole inversion at that point, the nulls cached;
- values_at 6x16 and grads_at 6x16: 6 points and all 16 characteristics,
  the size of one riemann grid;
- fresh CurveData: one new period matrix, its lattice form and origin grid.

Each figure is the minimum over interleaved rounds of the mean of a run of
calls, so the cases share whatever the machine is doing.  Run it as

    PYTHONPATH=src python scripts/kernel_timing.py
"""

import argparse
import sys
import time

from g2theta import inversion, theta
from g2theta.theta import ALL_CHARACTERISTICS, DEFAULT_TAU, CurveData, Point2, SeriesControl

ROUNDS = 15
CALLS = 400  # calls per run; a fresh CurveData runs a quarter as many

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
    point, ctrl = POINTS[0], SeriesControl()
    return {
        "pair grid (1 point, 4 chars)": (CALLS, lambda: theta._grid_sums(pair_chars, (), (point,), cd, 4)),
        "recover_pair": (CALLS, lambda: inversion.recover_pair(point, DEFAULT_TAU)),
        "values_at 6x16": (CALLS, lambda: cd.values_at(ALL_CHARACTERISTICS, POINTS)),
        "grads_at 6x16": (CALLS // 4, lambda: cd.grads_at(ALL_CHARACTERISTICS, POINTS)),
        "fresh CurveData": (CALLS // 4, lambda: CurveData(DEFAULT_TAU, ctrl)),
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
