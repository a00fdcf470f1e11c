"""Write the golden files under tests/data from the tables below.

    PYTHONPATH=src python scripts/regen_goldens.py

GOLDENS maps each golden verify report to the configuration of the
`g2theta verify` run whose report it holds, byte for byte; tests/test_harness.py
checks the reports against the same table.  Three more files pin what the
reports round away: pair_layer.json holds the float.hex of the recovered
pairs and of the pair-layer residuals (pair_layer), check_rows.json the
float.hex of every residual row of every suite's checks and of each
suite's final rows (check_rows), and cli_output.json the stdout, stderr
and exit code of `g2theta invert` and `g2theta moduli` at the argument
lists of CLI_CASES (cli_outputs).  Regenerate the files only
for a change that alters their bytes on purpose (a report version bump, or
a change to theta values), and record the old and new residuals in
CHANGES.md.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

from g2theta.cli import main as cli_main
from g2theta.degeneration import degeneration_residuals
from g2theta.errors import G2ThetaError
from g2theta.flow import stencil_residuals
from g2theta.harness import _SUITES, SUITE_ORDER, RunConfig, _outcomes, report_to_json, run_suites
from g2theta.inversion import parameterization_residuals, recover_pair
from g2theta.rng import SampleStream
from g2theta.theta import DEFAULT_TAU, PeriodMatrix, Point2, curve_data

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

# the harness box of theta arguments, and how many points pair_layer draws there
PAIR_BOX = (-0.5, 0.5, -0.2, 0.2)
PAIR_POINTS = 64
# how many samples check_rows draws per suite and period matrix
CHECK_SAMPLES = 32

_SPLIT = ("--tau1=0,1.1", "--tau2=0,1.3")
_ALT = ("--tau1=0.2,1.4", "--tau2=-0.1,0.95", "--tau12=0.03,0.3")
CLI_CASES = (
    # invert: in the cell, -0 real parts, |Re| >= 2, the alternate tau, near
    # a split period matrix, a split one, the theta divisor, overflow, and a
    # huge real part
    ("invert", "--u=0.21,-0.09", "--v=-0.13,0.11"),
    ("invert", "--u=0,0", "--v=0,0"),
    ("invert", "--u=-0,0.1", "--v=-0,-0.05"),
    ("invert", "--u=2.3,0.1", "--v=-0.2,0.05"),
    ("invert", "--u=0.1,0.05", "--v=-3.7,0.02"),
    ("invert", "--u=0.11,-0.04", "--v=-0.07,0.06", *_ALT),
    ("invert", "--u=0.11,-0.04", "--v=-0.07,0.06", *_SPLIT, "--tau12=0,1e-4"),
    ("invert", "--u=0.1,0.1", "--v=0.2,0", *_SPLIT, "--tau12=0,0"),
    ("invert", "--u=-0.05783644998375757,-0.5473428289277064", "--v=0.1,-0.05"),
    ("invert", "--u=0,50", "--v=0,0"),
    ("invert", "--u=1e12,0.1", "--v=0.2,0"),
    # moduli: the default, purely imaginary, -0 real parts, the alternate
    # tau, the small-Im config, large Im tau2, and real and imaginary parts
    # far out of range
    ("moduli",),
    ("moduli", *_SPLIT, "--tau12=0,0.2"),
    ("moduli", *_SPLIT, "--tau12=0,0"),
    ("moduli", "--tau1=-0,1.1", "--tau2=-0,1.3", "--tau12=-0,0.2"),
    ("moduli", *_ALT),
    ("moduli", "--tau1=0.1,0.3", "--tau2=0,0.3", "--tau12=0,0.01"),
    ("moduli", "--tau2=0,8"),
    ("moduli", "--tau1=0.1,1.1", "--tau2=0,30", "--tau12=0.05,0.2"),
    ("moduli", "--tau1=1e20,1", "--tau2=0,1", "--tau12=0,0.2"),
    ("moduli", "--tau1=1e300,1", "--tau2=0,1", "--tau12=0,0"),
    ("moduli", "--tau1=0,1e300", "--tau2=0,1", "--tau12=0,0"),
    ("moduli", "--tau1=1e308,1", "--tau2=0,1", "--tau12=0,0"),
    ("moduli", "--tau1=0,1", "--tau2=0,1e308", "--tau12=0,0"),
)


def _hex(values) -> list[str]:
    """float.hex of each real, and of the real and imaginary parts of each complex."""
    out = []
    for x in values:
        out += [x.real.hex(), x.imag.hex()] if isinstance(x, complex) else [x.hex()]
    return out


def _pair_hex(pair) -> list:
    return _hex((pair.x1, pair.x2, pair.sigma1, pair.sigma2)) + [pair.sign_flipped]


def _batch_of_one_hex(results) -> list:
    """The rows and pair of a one-point batch of a check that returns both, as hex."""
    [(rows, pair)] = results
    return _hex(rows) + _pair_hex(pair)


def _or_error(fn) -> list:
    """fn(), or ["error", name] for the G2ThetaError it raises."""
    try:
        return fn()
    except G2ThetaError as exc:
        return ["error", type(exc).__name__]


def pair_layer() -> dict:
    """The bits of the pair layer at PAIR_POINTS points of PAIR_BOX at
    DEFAULT_TAU and at ALT_TAU, one point at a time, keyed "<tau>/<index>/<what>".

    recover_pair gives a pair, parameterization_residuals and
    degeneration_residuals (at tau12 = 0) their rows and pair, and
    stencil_residuals the flow and Abelian rows of one stencil.  The last
    key holds recover_pair at a huge real part of u.
    """
    h = RunConfig().fd_step
    stream = SampleStream(0, "pair-layer")
    out = {}
    for name, tau in (("default", DEFAULT_TAU), ("alt", ALT_TAU)):
        cd = curve_data(tau)
        for i in range(PAIR_POINTS):
            p = Point2(stream.next_complex(*PAIR_BOX), stream.next_complex(*PAIR_BOX))
            key = f"{name}/{i:02d}"
            out[f"{key}/point"] = _hex((p.u, p.v))
            out[f"{key}/recover_pair"] = _or_error(lambda: _pair_hex(recover_pair(p, tau)))
            out[f"{key}/parameterizations"] = _or_error(
                lambda: _batch_of_one_hex(parameterization_residuals(cd, [p]))
            )
            out[f"{key}/stencil"] = _or_error(lambda: _hex(sum(stencil_residuals(cd, [p], h)[0], [])))
            out[f"{key}/degeneration"] = _or_error(
                lambda: _batch_of_one_hex(degeneration_residuals([p], tau.tau1, tau.tau2, cd.ctrl))
            )
    far = Point2(1e12 + 0.1j, 0.2 + 0j)
    out["far/recover_pair"] = _hex((far.u, far.v)) + _pair_hex(recover_pair(far, DEFAULT_TAU))
    return out


def check_rows() -> dict:
    """The bits of every suite's residual rows at CHECK_SAMPLES samples at
    DEFAULT_TAU and at ALT_TAU, keyed "<tau>/<suite>/<index>".

    Each suite's samples are one block draw of its own stream, evaluated as
    one batch through the suite's evaluate (the riemann, fundamental,
    moduli consistency, parameterization, stencil, addition, derivative,
    degeneration and elliptic rows); a sample whose check raises a skippable
    error holds ["error", name].  "<tau>/<suite>/final" holds the final rows
    of the suites that end with them, finalized over those samples.
    """
    out = {}
    for name, tau in (("default", DEFAULT_TAU), ("alt", ALT_TAU)):
        cfg = RunConfig(tau=tau)
        for suite_name in SUITE_ORDER:
            suite = _SUITES[suite_name]
            batch = SampleStream(0, f"check-rows/{suite_name}").draw(CHECK_SAMPLES, suite.boxes)
            notes = []
            for i, (sample, outcome) in enumerate(zip(batch, _outcomes(suite, cfg, batch), strict=True)):
                key = f"{name}/{suite_name}/{i:02d}"
                if isinstance(outcome, G2ThetaError):
                    out[key] = ["error", type(outcome).__name__]
                    continue
                residuals, note = outcome
                out[key] = _hex(residuals)
                notes.append((note, sample))
            if suite.finalize is not None:
                final = suite.finalize(cfg, notes, {})
                out[f"{name}/{suite_name}/final"] = _hex(value for value, _ in final)
    return out


def cli_outputs() -> dict:
    """The exit code, stdout and stderr of cli.main at each argument list of
    CLI_CASES, run in this process, keyed by the joined arguments."""
    out = {}
    for argv in CLI_CASES:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(list(argv))
        out[" ".join(argv)] = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    return out


def _lines(doc: dict) -> str:
    """doc as a JSON object of one key a line."""
    return "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()) + "\n}\n"


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    files = {name: report_to_json(run_suites(cfg)) for name, cfg in GOLDENS.items()}
    files["pair_layer.json"] = _lines(pair_layer())
    files["check_rows.json"] = _lines(check_rows())
    files["cli_output.json"] = _lines(cli_outputs())
    for name, text in files.items():
        (DATA / name).write_text(text, encoding="utf-8")
        print(f"wrote {DATA / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
