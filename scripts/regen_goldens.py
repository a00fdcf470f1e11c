"""Write the golden verify reports under tests/data from one config table.

    PYTHONPATH=src python scripts/regen_goldens.py

GOLDENS maps each golden file to the configuration of the `g2theta verify`
run whose report it holds, byte for byte; tests/test_harness.py checks the
reports against the same table.  Regenerate the files only for a change
that alters report bytes on purpose (a report version bump, or a change to
theta values), and record the old and new residuals in CHANGES.md.
"""

import argparse
from pathlib import Path

from g2theta.harness import RunConfig, report_to_json, run_suites
from g2theta.theta import PeriodMatrix

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
ALT_TAU = PeriodMatrix(0.2 + 1.4j, -0.1 + 0.95j, 0.03 + 0.3j)

GOLDENS = {
    # g2theta verify --samples 20
    "verify_default_samples20.json": RunConfig(samples=20),
    # g2theta verify --samples 20 --tau1=0.2,1.4 --tau2=-0.1,0.95 --tau12=0.03,0.3
    "verify_alt_tau_samples20.json": RunConfig(tau=ALT_TAU, samples=20),
    # g2theta verify --samples 100 --seed N, N = 0 (the default config), 1
    # and 7: each suite's first batch holds 100 samples, spread over many
    # grids of each radius
    "verify_seed0_samples100.json": RunConfig(seed=0, samples=100),
    "verify_seed1_samples100.json": RunConfig(seed=1, samples=100),
    "verify_seed7_samples100.json": RunConfig(seed=7, samples=100),
    # g2theta verify --samples 100 --tau1=0.2,1.4 --tau2=-0.1,0.95
    # --tau12=0.03,0.3: the moduli suite draws 99 period matrices, more than
    # the curve_data cache holds
    "verify_alt_tau_samples100.json": RunConfig(tau=ALT_TAU, samples=100),
}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for name, cfg in GOLDENS.items():
        (DATA / name).write_text(report_to_json(run_suites(cfg)), encoding="utf-8")
        print(f"wrote {DATA / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
