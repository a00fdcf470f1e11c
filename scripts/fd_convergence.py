"""Step-size sweep for the flow equations: quadratic decay, then the noise floor.

Central differences of the recovered pair should track the closed forms with
error ~ h^2 until series round-off (~1e-14 relative per theta value,
amplified by the quotient structure) takes over near h ~ 1e-6.  The printed
ratio column should sit near 4 in the quadratic regime and collapse toward 1
at the floor.
"""

import argparse
import sys

from g2theta.flow import stencil_residuals
from g2theta.rng import SampleStream
from g2theta.theta import DEFAULT_TAU, Point2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=3, help="seeded points to average over")
    args = ap.parse_args()

    stream = SampleStream(args.seed, "fd-sweep")
    pts = [
        Point2(
            stream.next_complex(-0.5, 0.5, -0.2, 0.2),
            stream.next_complex(-0.5, 0.5, -0.2, 0.2),
        )
        for _ in range(args.points)
    ]

    hs = [1e-2 / 2**i for i in range(16)]
    print(f"{'h':>12} {'max residual':>14} {'ratio':>8}")
    prev = None
    for h in hs:
        worst = max(max(stencil_residuals(p, DEFAULT_TAU, h=h)[0]) for p in pts)
        ratio = f"{prev / worst:8.3f}" if prev else " " * 8
        print(f"{h:>12.3e} {worst:>14.6e} {ratio}")
        prev = worst
    return 0


if __name__ == "__main__":
    sys.exit(main())
