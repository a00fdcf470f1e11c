"""Command-line interface: verify suites, print moduli, invert a point.

Exit codes: 0 success (every selected suite passed, every invert residual
within tolerance), 1 bad configuration, 2 numerical failure (suite or invert
residual over tolerance or not a finite number, or a divisor/singularity
error), 3 degenerate
period matrix (a split one included, where verify's parameterizations and
flow suites and invert refuse it before printing anything), 141 (128 +
SIGPIPE, as a shell reports a command that SIGPIPE ends) when the reader of
stdout closed it before the output was written, as `| head -1` may.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from functools import lru_cache

from .errors import ConfigInvalid, DegenerateTau, G2ThetaError, NonFiniteResidual
from .harness import (
    SUITE_ORDER,
    VERSION,
    RunConfig,
    config_from_sources,
    parse_complex_pair,
    parse_config_file,
    report_to_json,
    run_suites,
    tau_from_sources,
)
from .inversion import PARAMETERIZATION_LABELS, parameterization_residuals
from .moduli import (
    COLLAPSE_TOL,
    _consistency_residuals,
    branch_points_collapse,
    require_five_branch_points,
)
from .theta import CurveData, Point2, SeriesControl

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors, exit code 1
        raise ConfigInvalid(message)


def _fmt(z: complex) -> str:
    return f"{z.real:.15g}{z.imag:+.15g}i"


def _add_tau_flags(sub) -> None:
    sub.add_argument("--tau1", type=parse_complex_pair, metavar="RE,IM", default=None)
    sub.add_argument("--tau2", type=parse_complex_pair, metavar="RE,IM", default=None)
    sub.add_argument("--tau12", type=parse_complex_pair, metavar="RE,IM", default=None)


def _open_report(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"cannot write report file {path}: {exc}") from exc


def _reserve_report(path: str) -> bool:
    """Fail before the suites run if the report cannot be written.

    Returns True when this call created the file.  An existing file is only
    opened for append, so it keeps its content until the report replaces it.
    """
    try:
        open(path, "x", encoding="utf-8").close()
        return True
    except FileExistsError:
        pass
    except OSError as exc:
        raise ConfigInvalid(f"cannot write report file {path}: {exc}") from exc
    _open_report(path, "a").close()
    return False


def _cmd_verify(args) -> int:
    file_values = parse_config_file(args.config) if args.config else None
    cfg = config_from_sources(
        file_values,
        tau1=args.tau1,
        tau2=args.tau2,
        tau12=args.tau12,
        seed=args.seed,
        samples=args.samples,
        suites=args.suite,
    )
    created = _reserve_report(args.json) if args.json else False
    try:
        report = run_suites(cfg)
        text = report_to_json(report)
    except BaseException:
        if created:  # a run that writes no report leaves no empty file behind
            with contextlib.suppress(FileNotFoundError):
                os.remove(args.json)
        raise
    if args.json:
        with _open_report(args.json, "w") as fh:
            fh.write(text)
        for s in report.suites:
            verdict = "pass" if s.passed else "FAIL"
            print(
                f"{s.name:<18} {verdict}  max {s.max_residual:.3e}  "
                f"mean {s.mean_residual:.3e}  samples {s.samples_run}  skipped {s.skipped}"
            )
        print(f"report written to {args.json}")
        print(f"overall: {'pass' if report.passed else 'FAIL'}")
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 2


def _cmd_moduli(args) -> int:
    tau = tau_from_sources(None, args.tau1, args.tau2, args.tau12)
    cd = CurveData(tau, SeriesControl())
    ms = cd.moduli
    residuals = _finite("moduli", _consistency_residuals(cd), f"tau = {tuple(tau)}")
    print(f"tau1  = {_fmt(tau.tau1)}")
    print(f"tau2  = {_fmt(tau.tau2)}")
    print(f"tau12 = {_fmt(tau.tau12)}")
    print("squared moduli:")
    for name in ("k0_sq", "k1_sq", "k2_sq", "kp0_sq", "kp1_sq", "kp2_sq",
                 "k01_sq", "k02_sq", "k12_sq"):
        print(f"  {name:<7} = {_fmt(getattr(ms, name))}")
    print("roots:")
    for name in ("k0", "k1", "k2", "kp0", "kp1", "kp2", "k01", "k02", "k12"):
        print(f"  {name:<7} = {_fmt(getattr(ms, name))}")
    print("consistency residuals:")
    for label, value in residuals:
        print(f"  {label:<24} {value:.3e}")
    if branch_points_collapse(ms):
        print(
            f"note: moduli collapse, k0^2 = k1^2 = k2^2 within {COLLAPSE_TOL:g} "
            "(split period matrix)"
        )
    return _residual_gate(residuals)


def _cmd_invert(args) -> int:
    cd = CurveData(tau_from_sources(None, args.tau1, args.tau2, args.tau12), SeriesControl())
    require_five_branch_points(cd.moduli)
    [(rows, pair)] = parameterization_residuals(cd, [Point2(args.u, args.v)])
    residuals = _finite("invert", zip(PARAMETERIZATION_LABELS, rows, strict=True), f"u = {args.u}, v = {args.v}")
    print(f"x1     = {_fmt(pair.x1)}")
    print(f"x2     = {_fmt(pair.x2)}")
    print(f"sigma1 = {_fmt(pair.sigma1)}")
    print(f"sigma2 = {_fmt(pair.sigma2)}")
    print(f"sign class flipped from principal: {pair.sign_flipped}")
    print("parameterization residuals:")
    for label, value in residuals:
        print(f"  {label:<10} {value:.3e}")
    return _residual_gate(residuals)


def _finite(command: str, residuals, draw: str) -> list:
    """The (label, residual) rows as a list, checked before any is printed:
    NonFiniteResidual names the command, the first row that is not a finite
    number and the draw."""
    residuals = list(residuals)
    for label, value in residuals:
        if not math.isfinite(value):
            raise NonFiniteResidual(f"{command}: {label} is not finite at {draw}")
    return residuals


def _residual_gate(residuals) -> int:
    """2, with one error line naming the worst, if a (label, residual) row
    exceeds tol_identity, else 0."""
    tol = RunConfig().tol_identity
    over = [row for row in residuals if not row[1] <= tol]
    if over:
        label, worst = max(over, key=lambda row: row[1])
        print(f"error: {label} = {worst:.3e} exceeds {tol:g}", file=sys.stderr)
        return 2
    return 0


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state between calls."""
    parser = _Parser(
        prog="g2theta",
        description="Genus-2 theta toolkit: verification suites, moduli, Jacobi inversion.",
    )
    parser.add_argument("--version", action="version", version=f"g2theta {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    verify = sub.add_parser("verify", help="run verification suites and emit a JSON report")
    verify.add_argument(
        "--suite", action="append", choices=SUITE_ORDER, default=None,
        help="suite to run (repeatable; default: all)",
    )
    verify.add_argument("--config", metavar="PATH", default=None,
                        help="key = value config file; flags override it")
    _add_tau_flags(verify)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--samples", type=int, default=None)
    verify.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report here and print a summary instead")
    verify.set_defaults(func=_cmd_verify)

    moduli = sub.add_parser("moduli", help="print the nine squared moduli and consistency residuals")
    _add_tau_flags(moduli)
    moduli.set_defaults(func=_cmd_moduli)

    invert = sub.add_parser("invert", help="recover the point pair {x1, x2} at (u, v)")
    _add_tau_flags(invert)
    invert.add_argument("--u", type=parse_complex_pair, metavar="RE,IM", required=True)
    invert.add_argument("--v", type=parse_complex_pair, metavar="RE,IM", required=True)
    invert.set_defaults(func=_cmd_invert)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateTau as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except G2ThetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
