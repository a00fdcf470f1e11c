"""The benchmark workloads: inputs from a seed, one operation, and its checks.

Every workload is a closed loop with one caller.  Inputs come in rounds of
``round_size`` operations drawn from ``random.Random`` seeded with the
workload name and seed; the program sees only those inputs.  Library
functions are looked up on their modules at call time, so the wrappers of a
traced run are the ones called.

``check`` is cheap and runs on every operation; ``deep_check`` compares a
bounded subsample against the mpmath oracle.  Both run outside the timed
phase and return a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import random
import sys
from pathlib import Path

# point box of the invert workload: radii 4 and 5 both occur at DEFAULT_TAU
POINT_BOX = (-0.5, 0.5, -0.6, 0.6)
# Siegel box of the harness: diagonal entries, then tau12
TAU_DIAG = (-0.3, 0.3, 0.9, 1.5)
TAU_OFF = (-0.1, 0.1, 0.1, 0.35)
# fixed points inverted on every curve; away from the divisor across the box
CURVE_POINTS = ((0.1 + 0.05j, -0.2 + 0.1j), (-0.3 + 0.15j, 0.25 - 0.1j))

TOL_THETA = 1e-13  # theta2 against the oracle, relative to the sum of |terms|
TOL_PAIR = 1e-9  # s1, s2 and sigma_i^2 against the oracle, relative to 1 + |ref|
TOL_MODULI = 1e-12  # k_i^2 against the oracle, relative to 1 + |ref|
TOL_RESIDUAL = 1e-8  # the library's own identity tolerance


def _complex(rng: random.Random, re_lo, re_hi, im_lo, im_hi) -> complex:
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))


def _tau_triple(tau) -> tuple[complex, complex, complex]:
    return (tau.tau1, tau.tau2, tau.tau12)


def _finite(*values: complex) -> bool:
    return all(cmath.isfinite(z) for z in values)


def _spread(items: list, k: int) -> list:
    """At most k items, evenly spaced, first and last included."""
    if len(items) <= k:
        return list(items)
    return [items[round(j * (len(items) - 1) / (k - 1))] for j in range(k)]


def _mod(name: str):
    return sys.modules[f"g2theta.{name}"]


class Invert:
    """One recover_pair at a fresh point at DEFAULT_TAU."""

    round_size = 128
    count_rounds = 2
    rss_ops = 8192
    deep_checks = 24
    samples = None

    def make_round(self, rng: random.Random) -> list:
        point2 = _mod("theta").Point2
        return [
            point2(_complex(rng, *POINT_BOX), _complex(rng, *POINT_BOX))
            for _ in range(self.round_size)
        ]

    def run(self, point):
        theta = _mod("theta")
        return _mod("inversion").recover_pair(point, theta.DEFAULT_TAU)

    def check(self, point, pair) -> list[str]:
        if not _finite(pair.x1, pair.x2, pair.sigma1, pair.sigma2):
            return [f"non-finite pair at {point}"]
        return []

    def deep_check(self, kept: list) -> list[str]:
        import oracle

        tau = _tau_triple(_mod("theta").DEFAULT_TAU)
        nulls = oracle.squared_nulls(tau)
        problems = []
        for point, pair in _spread(kept, self.deep_checks):
            s1, s2 = oracle.symmetric_functions(point.u, point.v, tau, nulls)
            gaps = {
                "x1+x2": oracle.rel_gap(pair.x1 + pair.x2, s1),
                "x1*x2": oracle.rel_gap(pair.x1 * pair.x2, s2),
                "sigma1^2": oracle.rel_gap(pair.sigma1**2, oracle.f5(pair.x1, nulls)),
                "sigma2^2": oracle.rel_gap(pair.sigma2**2, oracle.f5(pair.x2, nulls)),
            }
            bad = [f"{label} off by {gap:.3e}" for label, gap in gaps.items() if not gap <= TOL_PAIR]
            if bad:
                problems.append(f"at {point}: " + ", ".join(bad))
        return problems


class Curves:
    """A fresh period matrix: moduli, residuals, signs, flow constants, two pairs."""

    round_size = 32
    count_rounds = 2
    rss_ops = 2048
    deep_checks = 16
    samples = None

    def make_round(self, rng: random.Random) -> list:
        period_matrix = _mod("theta").PeriodMatrix
        return [
            period_matrix(
                _complex(rng, *TAU_DIAG), _complex(rng, *TAU_DIAG), _complex(rng, *TAU_OFF)
            )
            for _ in range(self.round_size)
        ]

    def run(self, tau):
        moduli, inversion = _mod("moduli"), _mod("inversion")
        point2 = _mod("theta").Point2
        ms = moduli.moduli_from_tau(tau)
        residuals = moduli.moduli_consistency_residuals(tau)
        moduli.null_ratio_signs(tau)
        _mod("flow").flow_constants(tau)
        pairs = [inversion.recover_pair(point2(u, v), tau) for u, v in CURVE_POINTS]
        return ms, residuals, pairs

    def check(self, tau, out) -> list[str]:
        _, residuals, pairs = out
        problems = []
        if len(residuals) != 15:
            problems.append(f"{len(residuals)} consistency residuals, expected 15")
        problems += [
            f"{label} = {value:.3e} at {tau}"
            for label, value in residuals
            if not value < TOL_RESIDUAL
        ]
        if not all(_finite(p.x1, p.x2, p.sigma1, p.sigma2) for p in pairs):
            problems.append(f"non-finite pair at {tau}")
        return problems

    def deep_check(self, kept: list) -> list[str]:
        import oracle

        problems = []
        for tau, (ms, _, _) in _spread(kept, self.deep_checks):
            k_sq, _ = oracle.moduli_sq(oracle.squared_nulls(_tau_triple(tau)))
            gaps = zip(("k0^2", "k1^2", "k2^2"), (ms.k0_sq, ms.k1_sq, ms.k2_sq), k_sq)
            bad = [
                f"{label} off by {gap:.3e}"
                for label, value, ref in gaps
                if not (gap := oracle.rel_gap(value, ref)) <= TOL_MODULI
            ]
            if bad:
                problems.append(f"at {tau}: " + ", ".join(bad))
        return problems


class Verify:
    """One `g2theta verify` of all nine suites through cli.main, report to a file."""

    round_size = 1
    count_rounds = 3
    rss_ops = 16
    samples = 20

    def __init__(self, out_dir: Path):
        self.report_path = out_dir / "verify-report.json"

    def make_round(self, rng: random.Random) -> list:
        return [rng.getrandbits(63)]

    def run(self, seed: int):
        argv = ["verify", "--samples", str(self.samples), "--seed", str(seed),
                "--json", str(self.report_path)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = _mod("cli").main(argv)
        return code, self.report_path.read_bytes()

    def check(self, seed, out) -> list[str]:
        code, data = out
        if code != 0:
            return [f"seed {seed}: exit code {code}"]
        doc = json.loads(data)
        problems = []
        if doc["passed"] is not True:
            problems.append(f"seed {seed}: report does not pass")
        if len(doc["suites"]) != 9:
            problems.append(f"seed {seed}: {len(doc['suites'])} suites ran, expected 9")
        problems += [
            f"seed {seed}: suite {s['name']} ran {s['samples_run']} of {self.samples} samples"
            for s in doc["suites"]
            if s["samples_run"] != self.samples
        ]
        return problems

    def deep_check(self, kept: list) -> list[str]:
        """Rerun the first and last seeds: same bytes, and theta2 right at each worst point."""
        import oracle

        theta = _mod("theta")
        problems = []
        for seed, (_, data) in _spread(kept, 2):
            bad = []
            if self.run(seed)[1] != data:
                bad.append("rerun gave a different report")
            doc = json.loads(data)
            tau = theta.DEFAULT_TAU
            for suite in doc["suites"]:
                worst = [complex(re, im) for re, im in suite["worst_point"]]
                for point, at in _worst_point_cases(suite["name"], worst, _tau_triple(tau)):
                    for bits in oracle.ALL_BITS:
                        value = theta.theta2(
                            theta.HalfCharacteristic(*bits), theta.Point2(*point),
                            theta.PeriodMatrix(*at),
                        )
                        ref, mag = oracle.theta(bits, *point, at)
                        gap = abs(value - complex(ref)) / float(mag)
                        if not gap <= TOL_THETA:
                            bad.append(
                                f"theta[{bits}] off by {gap:.3e} of sum|terms| "
                                f"at {point}, tau {at} ({suite['name']} worst point)"
                            )
            if bad:
                problems.append(f"seed {seed}: " + "; ".join(bad))
        return problems


def _worst_point_cases(suite: str, worst: list[complex], tau) -> list:
    """(point, tau) pairs to evaluate at a suite's recorded worst point.

    Point suites record (u, v) pairs at the run's tau; the moduli suite records
    a period matrix (checked at the origin); the degeneration suite works at
    tau12 = 0; the elliptic suite records a genus-1 argument z, or a genus-1
    tau t for its integral checks, checked as (z, 0) and as diag(t, t).
    """
    split = (tau[0], tau[1], 0j)
    if suite == "moduli":
        return [((0j, 0j), tuple(worst))]
    if suite == "degeneration":
        return [((worst[0], worst[1]), split)]
    if suite == "elliptic":
        (z,) = worst
        if z.real == 0.0 and z.imag >= 0.5:
            return [((0j, 0j), (z, z, 0j))]
        return [((z, 0j), split)]
    return [((worst[i], worst[i + 1]), tau) for i in range(0, len(worst), 2)]


WORKLOADS = ("verify", "invert", "curves")


def make(name: str, out_dir: Path):
    if name == "verify":
        return Verify(out_dir)
    if name == "invert":
        return Invert()
    if name == "curves":
        return Curves()
    raise ValueError(name)
