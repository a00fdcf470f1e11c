"""Seeded sampling, config parsing, JSON report stability, CLI exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2theta.cli import main
from g2theta.errors import ConfigInvalid
from g2theta.harness import (
    SUITE_ORDER,
    VERSION,
    RunConfig,
    config_from_sources,
    parse_complex_pair,
    parse_config_file,
    report_to_json,
    run_suites,
)
from g2theta.rng import SampleStream, fnv1a64, mix64


def test_mix_and_hash_known_answers():
    assert mix64(0) == 0
    assert mix64(1) == 0xD4CA22DF9C745EB2
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_stream_pinned_values():
    s = SampleStream(0, "riemann")
    assert s.next_float() == 0.3948055002748527
    assert s.next_float() == 0.7452756863015642
    assert s.next_float() == 0.454166256931657
    assert SampleStream(1, "riemann").next_float() == 0.7145816533346537
    assert SampleStream(0, "moduli").next_float() == 0.16105031671539194


def test_stream_restart_and_divergence():
    a = [SampleStream(5, "x").next_u64() for _ in range(4)]
    b = [SampleStream(5, "x").next_u64() for _ in range(4)]
    assert a == b
    c = SampleStream(6, "x")
    d = SampleStream(5, "y")
    assert c.next_u64() != a[0]
    assert d.next_u64() != a[0]


@given(
    seed=st.integers(0, 2**64 - 1),
    lo=st.floats(-10.0, 10.0),
    width=st.floats(0.125, 8.0),
)
@settings(max_examples=50, deadline=None)
def test_stream_respects_bounds(seed, lo, width):
    hi = lo + width
    stream = SampleStream(seed, "bounds")
    for _ in range(8):
        v = stream.next_uniform(lo, hi)
        assert lo <= v <= hi
    z = stream.next_complex(lo, hi, -2.0, 2.0)
    assert lo <= z.real <= hi
    assert -2.0 <= z.imag <= 2.0


def test_reports_are_byte_identical():
    cfg = RunConfig(samples=3, suites=("fundamental", "moduli"))
    first = report_to_json(run_suites(cfg))
    second = report_to_json(run_suites(cfg))
    assert first == second
    assert first.endswith("\n")

    doc = json.loads(first)
    assert list(doc) == ["version", "config", "passed", "suites"]
    assert doc["version"] == VERSION
    assert doc["config"]["tau"]["tau1"] == [0.1, 1.1]
    assert doc["config"]["suites"] == ["fundamental", "moduli"]
    assert [s["name"] for s in doc["suites"]] == ["fundamental", "moduli"]
    assert doc["passed"] is True
    for suite in doc["suites"]:
        assert suite["passed"] is True
        # floats are written as .17g, so the parse is lossless
        assert format(suite["max_residual"], ".17g") in first


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sample run\n"
        "tau1 = 0.0,1.2\n"
        "\n"
        "seed = 7   # trailing comment\n"
        "suites = moduli, flow\n",
        encoding="utf-8",
    )
    values = parse_config_file(str(path))
    assert values == {"tau1": "0.0,1.2", "seed": "7", "suites": "moduli, flow"}

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("tau3 = 1,2\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        parse_config_file(str(bad_key))

    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("seed 7\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        parse_config_file(str(bad_line))

    with pytest.raises(ConfigInvalid):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_parse_complex_pair():
    assert parse_complex_pair("1.5,-2") == 1.5 - 2.0j
    for text in ("1.5", "a,b", "1,2,3"):
        with pytest.raises(ConfigInvalid):
            parse_complex_pair(text)


def test_config_validation():
    for bad in (
        RunConfig(samples=0),
        RunConfig(samples="3"),
        RunConfig(seed=-1),
        RunConfig(seed=2**64),
        RunConfig(tol_identity=-1.0),
        RunConfig(tol_fd=float("nan")),
        RunConfig(suites=()),
        RunConfig(suites=("bogus",)),
    ):
        with pytest.raises(ConfigInvalid):
            bad.validate()


def test_config_merging_and_suite_normalization():
    fv = {"tau1": "0,1.2", "seed": "7", "samples": "5", "suites": "flow, moduli"}
    cfg = config_from_sources(fv)
    assert cfg.tau.tau1 == 1.2j
    assert cfg.seed == 7
    assert cfg.samples == 5
    # requested order does not matter; the canonical order does
    assert cfg.suites == ("moduli", "flow")

    over = config_from_sources(fv, seed=9, samples=2, suites=["riemann"])
    assert (over.seed, over.samples, over.suites) == (9, 2, ("riemann",))

    with pytest.raises(ConfigInvalid):
        config_from_sources({"suites": "bogus"})
    with pytest.raises(ConfigInvalid):
        config_from_sources({"samples": "many"})


def test_cli_verify_writes_parseable_report(capsys):
    assert main(["verify", "--samples", "2", "--suite", "fundamental"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert [s["name"] for s in doc["suites"]] == ["fundamental"]


def test_cli_verify_json_file_and_summary(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--samples", "2", "--suite", "fundamental",
        "--suite", "moduli", "--json", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "fundamental" in text and "pass" in text
    assert f"report written to {out}" in text
    assert "overall: pass" in text
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["passed"] is True


def test_cli_exit_codes(tmp_path, capsys):
    # impossible tolerance from a config file: numerical failure, code 2
    cfg = tmp_path / "strict.cfg"
    cfg.write_text("tol_identity = 1e-30\n", encoding="utf-8")
    assert main([
        "verify", "--config", str(cfg), "--samples", "2", "--suite", "fundamental",
    ]) == 2

    assert main(["verify", "--samples", "abc"]) == 1
    assert main(["verify", "--suite", "bogus"]) == 1
    assert main(["invert", "--u", "0.1,0.0"]) == 1

    assert main(["moduli", "--tau1", "0,-1"]) == 3

    # point on the theta divisor: numerical failure, code 2
    assert main([
        "invert",
        "--u=-0.05783644998375757,-0.5473428289277064",
        "--v=0.1,-0.05",
    ]) == 2
    capsys.readouterr()


def test_cli_invert_rejects_unusable_points(capsys):
    # non-finite input is a configuration error, code 1
    assert main(["invert", "--u=nan,0", "--v=0,0"]) == 1
    assert main(["invert", "--u=0,0", "--v=inf,0"]) == 1
    assert main(["verify", "--tau12=0,nan", "--samples", "1"]) == 1
    # a finite point whose lattice terms overflow: numerical failure, code 2
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["invert", "--u=0,50", "--v=0,0"]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "double range" in err


ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args):
    """A fresh interpreter with src on the path, so stderr holds everything it prints."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300, check=False
    )


def _run_cli(*args):
    return _run_python("-m", "g2theta.cli", *args)


def test_cli_overflowing_point_exits_2_without_numpy_warnings():
    proc = _run_cli("invert", "--u=0,50", "--v=0,0")
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error:") and "double range" in proc.stderr


@pytest.mark.parametrize(
    "line",
    ["max_radius = 2", "series_tol = 0", "series_tol = nan", "series_tol = 2", "series_tol = inf"],
)
def test_cli_bad_series_settings_exit_1_without_traceback(tmp_path, line):
    cfg = tmp_path / "series.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    proc = _run_cli("verify", "--config", str(cfg), "--samples", "2", "--suite", "fundamental")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "series settings" in proc.stderr


def test_cli_split_tau_verify_reports_instead_of_crashing(tmp_path):
    # at tau12 = 0 a pair can sit on the collapsed root 1/k0^2 where sigma = 0;
    # that sample is skipped, and the suites that fail there give code 2
    out = tmp_path / "split.json"
    proc = _run_cli(
        "verify", "--tau1=0,1.1", "--tau2=0,1.3", "--tau12=0,0",
        "--samples", "60", "--seed", "4", "--json", str(out),
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    flow = {s["name"]: s for s in json.loads(out.read_text())["suites"]}["flow"]
    assert flow["skip_reasons"] == {"SingularDenominator": 1}


def test_cli_moduli_output(capsys):
    assert main(["moduli"]) == 0
    text = capsys.readouterr().out
    for marker in ("\nsquared moduli:\n", "\nroots:\n", "\nconsistency residuals:\n"):
        assert marker in text
    assert "moduli collapse" not in text

    assert main(["moduli", "--tau1", "0,1.1", "--tau2", "0,1.3", "--tau12", "0,0"]) == 0
    assert "moduli collapse" in capsys.readouterr().out


def test_cli_invert_output(capsys):
    assert main(["invert", "--u", "0.21,-0.09", "--v=-0.13,0.11"]) == 0
    text = capsys.readouterr().out
    for marker in ("x1", "x2", "sigma1", "sigma2", "sign class flipped from principal:"):
        assert marker in text
    for idx in range(1, 16):
        assert f"param-{idx:02d}" in text


def test_cli_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "script", [["fd_convergence.py", "--points", "1"], ["split_limit_scan.py"]]
)
def test_scripts_run_to_completion(script):
    proc = _run_python(str(ROOT / "scripts" / script[0]), *script[1:])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
