"""Conditioning scan of the tau12 -> 0 limit.

As the off-diagonal period vanishes the three squared moduli collapse to one
elliptic k^2, one recovered point freezes at the double root 1/k0^2 with
sigma -> 0, and the parameterizations that touch the collapsing factors lose
accuracy like O(tau12^-2) against the sigma noise.  This prints the whole
story on one line per tau12 so the safe operating range is visible.
"""

import argparse
import sys

from g2theta.inversion import parameterization_residuals
from g2theta.moduli import moduli_from_tau
from g2theta.theta import PeriodMatrix, Point2, curve_data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau1-im", type=float, default=1.1)
    ap.add_argument("--tau2-im", type=float, default=1.3)
    args = ap.parse_args()

    pt = Point2(0.11 - 0.04j, -0.07 + 0.06j)
    scales = [10.0 ** (-e) for e in range(1, 7)] + [0.0]
    print(f"{'tau12':>10} {'|k0^2-k1^2|':>12} {'|x1-1/k0^2|':>12} "
          f"{'|sigma1|':>10} {'max param':>10}")
    for t in scales:
        tau = PeriodMatrix(args.tau1_im * 1j, args.tau2_im * 1j, t * 1j)
        ms = moduli_from_tau(tau)
        [(rows, pair)] = parameterization_residuals(curve_data(tau), [pt])
        worst = max(rows[:15])  # param-01 to param-15, without the unit sums
        print(
            f"{t:>10.1e} {abs(ms.k0_sq - ms.k1_sq):>12.3e} "
            f"{abs(pair.x1 - 1.0 / ms.k0_sq):>12.3e} "
            f"{abs(pair.sigma1):>10.3e} {worst:>10.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
