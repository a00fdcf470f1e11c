"""The CLI contract of invert, moduli and verify over wide inputs, the typed
failure of a residual that is not a finite number, and a stdout closed by
its reader.

Every run exits 0, 1, 2 or 3 without a traceback and prints no nan or inf.
An exit of 2 or 3 prints exactly one error line, but for a verify report
whose suites ran and failed, which prints none; an exit of 0 from invert or
moduli means every printed residual is within tol_identity.
"""

import contextlib
import io
import json
import math
import os
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import g2theta.cli as cli
import g2theta.harness as harness
from g2theta.cli import main
from g2theta.moduli import CONSISTENCY_LABELS


def _run(argv):
    """main(argv) in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _flag(name, z):
    return f"--{name}={z.real!r},{z.imag!r}"


_NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])")


# the residual rows invert and moduli print
_RESIDUAL_ROWS = {"invert": 18, "moduli": 15}


def _assert_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), argv
    assert not _NON_FINITE.search(out.lower()), (argv, out)
    if argv[0] == "verify" and out:
        # the report: exit 0 exactly when every suite passed
        assert (code, err) == (0 if json.loads(out)["passed"] else 2, ""), (argv, err)
    elif code in (2, 3):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    elif code == 0 and argv[0] in _RESIDUAL_ROWS:
        rows = [line.split() for line in out.split("residuals:\n", 1)[1].splitlines() if line.startswith("  ")]
        assert len(rows) == _RESIDUAL_ROWS[argv[0]], (argv, out)
        assert all(float(value) <= harness.RunConfig().tol_identity for _, value in rows), (argv, out)


# a real part of either sign, or 0, up to 1e20 in size
_RE = st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 20.0)).map(
    lambda sign_exp: sign_exp[0] * 10.0 ** sign_exp[1]
))


@st.composite
def _taus(draw):
    """Im tau from log-uniform eigenvalues in [1e-3, 1e3] and a rotation, so
    one eigenvalue far below the other puts tau12 near the singular
    Im tau12^2 = Im tau1 Im tau2; real parts from _RE."""
    l1, l2 = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    angle = draw(st.floats(0.0, math.pi))
    c, s = math.cos(angle), math.sin(angle)
    y1, y2, y12 = l1 * c * c + l2 * s * s, l1 * s * s + l2 * c * c, (l1 - l2) * c * s
    return [complex(draw(_RE), y) for y in (y1, y2, y12)]


# a point component: |Re| from 1e-3 to 1e8, |Im| up to 3
_COMPONENT = st.builds(
    lambda sign, exp, im: complex(sign * 10.0**exp, im),
    st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 8.0), st.floats(-3.0, 3.0),
)

# inputs that once ended in a traceback or printed a nan: k0 k1 k2
# underflowing to 0 (ZeroDivisionError), a pair whose sign class test left
# double range (a nan residual), and a square that overflowed in it
# (OverflowError)
_UNDERFLOW = [0.424620563094958 + 713.3119459833783j, -76827245103070.45 + 0.787805327458488j,
              -0.8089691045094891 - 21.174942277505156j]
_NAN_RESIDUAL = [-0.9162757972912015 + 90.87715635054603j, -2526448809.167586 + 3.1942514516776686j,
                 -0.050369728150676016 + 6.692929809773142j]
_OVERFLOW = [106.16397813941309j, 90616019159.8293 + 0.8445011873730903j, 124078.28907991172 - 5.941899954389176j]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(command=st.sampled_from(["invert", "moduli"]), tau=_taus(), u=_COMPONENT, v=_COMPONENT)
@example(command="invert", tau=_UNDERFLOW, u=2.0 - 0.5637262457353984j, v=-0.00016570671504036495 - 0.5058822040156679j)
@example(command="invert", tau=_NAN_RESIDUAL, u=30512599.714379825 - 1.7018413533963732j,
         v=-0.17876989388240822 + 0.47357665708450103j)
@example(command="invert", tau=_OVERFLOW, u=8985591.831143934 + 1.586707573089786j,
         v=-0.008616114754414093 - 2.623737679847986j)
def test_invert_and_moduli_keep_the_cli_contract(command, tau, u, v):
    argv = [command, *(_flag(name, z) for name, z in zip(("tau1", "tau2", "tau12"), tau))]
    if command == "invert":
        argv += [_flag("u", u), _flag("v", v)]
    _assert_contract(argv)


# 40 examples in about 0.7 s: most taus exit 3 or 2 before the suites
# finish, and a few pass
@settings(max_examples=40, derandomize=True, deadline=None)
@given(tau=_taus())
def test_verify_keeps_the_cli_contract(tau):
    _assert_contract(["verify", "--samples", "2", *(_flag(name, z) for name, z in zip(("tau1", "tau2", "tau12"), tau))])


def test_verify_at_the_inputs_that_crashed_it_exits_with_one_error_line():
    # the parameterizations suite raises DivisionByZeroModulus (k0 k1 k2 = 0)
    # at the first draw at the first tau, an error of the curve that ends the
    # run there, and its pair stage raises TruncationOverflow at the second
    for tau, code in ((_UNDERFLOW, 2), (_NAN_RESIDUAL, 2)):
        argv = ["verify", "--samples", "2", *(_flag(name, z) for name, z in zip(("tau1", "tau2", "tau12"), tau))]
        assert _run(argv)[:2] == (code, "")
        _assert_contract(argv)
    argv = ["verify", "--samples", "2", "--suite", "parameterizations"]
    argv += [_flag(name, z) for name, z in zip(("tau1", "tau2", "tau12"), _UNDERFLOW)]
    assert _run(argv) == (2, "", "error: k0 k1 k2 = 0 in a denominator\n")


def test_a_non_finite_residual_ends_verify_with_one_error_line(monkeypatch):
    # a nan param-06 at the second sample of the parameterizations suite
    evaluate = harness.parameterization_residuals
    draws = []

    def with_nan(cd, points):
        results = evaluate(cd, points)
        draws.extend(points)
        rows, pair = results[-1]
        results[-1] = (rows[:5] + [math.nan] + rows[6:], pair)
        return results

    monkeypatch.setattr(harness, "parameterization_residuals", with_nan)
    code, out, err = _run(["verify", "--samples", "2", "--suite", "parameterizations"])
    draw = list(draws[-1])
    assert (code, out) == (2, "")
    assert err == f"error: parameterizations: param-06 is not finite at the draw {draw}\n"


def test_a_non_finite_residual_ends_invert_and_moduli_before_anything_is_printed(monkeypatch):
    evaluate, consistency = cli.parameterization_residuals, cli._consistency_residuals

    def with_inf(cd, points):
        [(rows, pair)] = evaluate(cd, points)
        return [(rows[:9] + [math.inf] + rows[10:], pair)]

    def with_nan(cd):
        rows = consistency(cd)
        return rows[:2] + [(rows[2][0], math.nan)] + rows[3:]

    monkeypatch.setattr(cli, "parameterization_residuals", with_inf)
    monkeypatch.setattr(cli, "_consistency_residuals", with_nan)
    code, out, err = _run(["invert", "--u=0.21,-0.09", "--v=-0.13,0.11"])
    assert (code, out) == (2, "")
    assert err == "error: invert: param-10 is not finite at u = (0.21-0.09j), v = (-0.13+0.11j)\n"
    code, out, err = _run(["moduli"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: moduli: {CONSISTENCY_LABELS[2]} is not finite at tau = (")
    assert len(err.splitlines()) == 1


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its fileno is the write end of a pipe whose read end is closed."""

    def __init__(self):
        read, self.fd = os.pipe()
        os.close(read)

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv",
    [["moduli"], ["invert", "--u=0.21,-0.09", "--v=-0.13,0.11"], ["verify", "--samples", "2"]],
    ids=["moduli", "invert", "verify"],
)
def test_a_stdout_closed_by_its_reader_exits_141_without_a_traceback(monkeypatch, capsys, argv):
    # as `g2theta moduli | head -1` closes it
    pipe = _ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        assert main(argv) == 141
        # stdout now writes to devnull, so the flush at exit does not raise again
        assert os.path.samestat(os.fstat(pipe.fd), os.stat(os.devnull))
    finally:
        os.close(pipe.fd)
    assert capsys.readouterr().err == ""
