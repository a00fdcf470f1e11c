"""Seeded sampling, config parsing, JSON report stability, CLI exit codes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIVISOR_U, DIVISOR_V

import g2theta.cli as cli
import g2theta.harness as harness
from g2theta.cli import main
from g2theta.errors import (
    CoincidentPoints,
    ConfigInvalid,
    DegenerateTau,
    DivisionByZeroModulus,
    G2ThetaError,
    PointError,
    SingularDenominator,
    StencilCrossesDivisor,
    TruncationOverflow,
)
from g2theta.degeneration import Genus1Data
from g2theta.flow import stencil_residuals
from g2theta.harness import (
    VERSION,
    RunConfig,
    config_from_sources,
    parse_complex_pair,
    parse_config_file,
    report_to_json,
    run_suites,
)
from g2theta.inversion import recover_pair
from g2theta.moduli import CONSISTENCY_LABELS
from g2theta.rng import SampleStream, fnv1a64, mix64
from g2theta.theta import DEFAULT_TAU, PeriodMatrix, Point2, SeriesControl, curve_data

DATA = Path(__file__).resolve().parent / "data"
SPLIT_TAU = PeriodMatrix(1.1j, 1.3j, 0.0)


def test_mix_and_hash_known_answers():
    assert mix64(0) == 0
    assert mix64(1) == 0xD4CA22DF9C745EB2
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


# a draw in the unit box is the float53 of each value: 0 + 1 * x is x
UNIT_BOX = (0.0, 1.0, 0.0, 1.0)


def test_stream_pinned_values():
    [[first], [second]] = SampleStream(0, "riemann").draw(2, [UNIT_BOX])
    assert first.real == 0.3948055002748527
    assert first.imag == 0.7452756863015642
    assert second.real == 0.454166256931657
    assert SampleStream(1, "riemann").draw(1, [UNIT_BOX])[0][0].real == 0.7145816533346537
    assert SampleStream(0, "moduli").draw(1, [UNIT_BOX])[0][0].real == 0.16105031671539194


def _first_u64(seed, label):
    return int(SampleStream(seed, label)._values(1)[0])


def test_stream_restart_and_divergence():
    a = [_first_u64(5, "x") for _ in range(4)]
    b = [_first_u64(5, "x") for _ in range(4)]
    assert a == b
    assert _first_u64(6, "x") != a[0]
    assert _first_u64(5, "y") != a[0]


@given(
    seed=st.integers(0, 2**64 - 1),
    lo=st.floats(-10.0, 10.0),
    width=st.floats(0.125, 8.0),
)
@settings(max_examples=50, deadline=None)
def test_stream_respects_bounds(seed, lo, width):
    hi = lo + width
    stream = SampleStream(seed, "bounds")
    for [v] in stream.draw(4, [(lo, hi, lo, hi)]):
        assert lo <= v.real <= hi and lo <= v.imag <= hi
    z = stream.next_complex(lo, hi, -2.0, 2.0)
    assert lo <= z.real <= hi
    assert -2.0 <= z.imag <= 2.0


_MASK64 = (1 << 64) - 1


def _reference_floats(seed, label):
    """The specified stream on Python ints, one float53 at a time: the scalar
    SplitMix64 reference of the block draw."""

    def mix(z):
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4B209) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    base = mix((seed & _MASK64) ^ fnv1a64(label))
    i = 0
    while True:
        i += 1
        yield (mix((base + i * 0x9E3779B97F4A7C15) & _MASK64) >> 11) * 2.0**-53


def _reference_draw(floats, count, boxes):
    # each box's real part first, then its imaginary part, sample by sample
    return [
        [
            complex(re_lo + (re_hi - re_lo) * next(floats), im_lo + (im_hi - im_lo) * next(floats))
            for re_lo, re_hi, im_lo, im_hi in boxes
        ]
        for _ in range(count)
    ]


def _draw_bits(samples):
    return [[(z.real.hex(), z.imag.hex()) for z in sample] for sample in samples]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
@pytest.mark.parametrize("label", ["riemann", "moduli", "", "fd-sweep-ü"])
def test_the_block_draw_is_the_scalar_splitmix64_stream(seed, label):
    box_sets = [harness._SUITES[name].boxes for name in ("riemann", "moduli", "elliptic")]
    box_sets.append(((-3.0, 2.5, 0.0, 1e-3), (5.0, 5.0, -1.0, 1.0)))
    for boxes in box_sets:
        stream, reference = SampleStream(seed, label), _reference_floats(seed, label)
        # consecutive batches continue the counter, an empty one included
        for count in (3, 0, 1, 17, 0):
            got = stream.draw(count, boxes)
            assert _draw_bits(got) == _draw_bits(_reference_draw(reference, count, boxes))
        # next_complex reads the same stream, and the unit box gives float53 itself
        z = stream.next_complex(*boxes[0])
        assert _draw_bits([[z]]) == _draw_bits(_reference_draw(reference, 1, boxes[:1]))
        lo, hi = boxes[-1][:2]
        [[z]] = stream.draw(1, [(0.0, 1.0, lo, hi)])
        assert z.real.hex() == next(reference).hex()
        assert z.imag.hex() == (lo + (hi - lo) * next(reference)).hex()


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


def _load_script(name):
    """The module of scripts/<name>, imported without running its main."""
    path = Path(__file__).resolve().parents[1] / "scripts" / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGEN = _load_script("regen_goldens.py")
GOLDENS = REGEN.GOLDENS  # the configs the golden verify reports hold


def _numpy_build() -> str:
    """numpy's version and the CPU features it dispatches beyond its baseline.

    The kernel's complex products are numpy multiplies, whose last bit
    depends on the dispatched code path, so a golden mismatch names them.
    """
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return f"numpy {np.__version__}, dispatched CPU features {dispatched}"


def _assert_golden(name):
    assert report_to_json(run_suites(GOLDENS[name])) == (DATA / name).read_text(
        encoding="utf-8"
    ), _numpy_build()


@pytest.mark.parametrize("name", ["verify_default_samples20.json", "verify_alt_tau_samples20.json"])
def test_reports_match_golden_files(name):
    # the reports of `g2theta verify --samples 20` at the default config and
    # at --tau1=0.2,1.4 --tau2=-0.1,0.95 --tau12=0.03,0.3, byte for byte
    _assert_golden(name)


def test_a_report_of_full_batches_matches_its_golden_file():
    _assert_golden("verify_seed7_samples100.json")


@pytest.mark.parametrize("seed", [0, 1])
def test_reports_of_full_batches_at_the_other_standing_seeds_match_their_golden_files(seed):
    # `g2theta verify --samples 100 --seed N`; seed 0 is the default config
    _assert_golden(f"verify_seed{seed}_samples100.json")


def test_an_alternate_tau_report_of_more_samples_than_the_cache_holds_matches_its_golden_file():
    _assert_golden("verify_alt_tau_samples100.json")


def test_the_golden_table_covers_every_golden_file():
    assert sorted(GOLDENS) == sorted(path.name for path in DATA.glob("verify_*.json"))


def _golden_json(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def test_the_pair_layer_keeps_its_bits():
    # float.hex of every recovered pair and every pair-layer residual at 64
    # points of the harness box at the default and the alternate tau
    golden = _golden_json("pair_layer.json")
    assert REGEN.pair_layer() == golden, _numpy_build()
    flips = {v[-1] for k, v in golden.items() if k.endswith("/recover_pair")}
    assert flips == {False, True}  # both sign classes are chosen


def test_invert_and_moduli_print_what_they_printed():
    # stdout, stderr and exit code of `g2theta invert` and `g2theta moduli`
    # at each argument list of scripts/regen_goldens.py:CLI_CASES
    golden = _golden_json("cli_output.json")
    assert list(golden) == [" ".join(argv) for argv in REGEN.CLI_CASES]
    for argv, result in REGEN.cli_outputs().items():
        assert result == golden[argv], (argv, _numpy_build())


def test_every_check_row_keeps_its_bits():
    # float.hex of every residual row of every suite at 32 samples at the
    # default and the alternate tau, and of each suite's final rows: the
    # reports keep only each suite's max, mean and worst point
    golden = _golden_json("check_rows.json")
    assert REGEN.check_rows() == golden, _numpy_build()
    assert not any(row[0] == "error" for row in golden.values())


def test_a_suite_whose_samples_all_skip_reports_nothing_but_the_skips(monkeypatch):
    def divisor(cfg, data, batch):
        raise SingularDenominator("on the divisor")

    suite = harness._SUITES["degeneration"]
    monkeypatch.setitem(harness._SUITES, "degeneration", suite._replace(evaluate=divisor))
    result = run_suites(RunConfig(samples=3, suites=("degeneration",))).suites[0]
    assert (result.samples_run, result.skipped) == (0, 3)
    assert result.skip_reasons == {"SingularDenominator": 30}
    assert (result.max_residual, result.mean_residual) == (0.0, 0.0)
    assert (result.worst_check, result.worst_point, result.extras) == ("", [], {})
    assert result.passed is False


def test_a_residual_list_that_drifts_from_its_labels_fails_loudly(monkeypatch):
    suite = harness._SUITES["fundamental"]
    short = suite._replace(evaluate=lambda cfg, data, batch: [([0.0, 0.0], None) for _ in batch])
    monkeypatch.setitem(harness._SUITES, "fundamental", short)
    with pytest.raises(ValueError):
        run_suites(RunConfig(samples=1, suites=("fundamental",)))


def _one_by_one_walk(name, cfg):
    """The sampling walk without batches: the reference for _run_suite.

    Each draw is evaluated alone, as soon as it is drawn; a skippable error
    costs its sample one of 10 attempts.  The fold is the harness's own.
    """
    suite = harness._SUITES[name]
    data = harness._PerTau(cfg.series)
    stream = SampleStream(cfg.seed, name)
    rows, notes, skip_reasons, skipped = [], [], {}, 0

    def evaluate(sample):
        try:
            [outcome] = suite.evaluate(cfg, data, [sample])
        except harness._SKIPPABLE as exc:
            return exc
        return outcome

    def take(sample, outcome):
        residuals, note = outcome
        rows.extend(
            (label, value, sample) for label, value in zip(suite.labels, residuals, strict=True)
        )
        notes.append((note, sample))

    draws = cfg.samples
    if suite.config_tau_first:
        sample = [cfg.tau.tau1, cfg.tau.tau2, cfg.tau.tau12]
        take(sample, evaluate(sample))
        draws -= 1
    for _ in range(draws):
        for _attempt in range(10):
            sample = [stream.next_complex(*box) for box in suite.boxes]
            outcome = evaluate(sample)
            if isinstance(outcome, G2ThetaError):
                reason = type(outcome).__name__
                skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
                continue
            take(sample, outcome)
            break
        else:
            skipped += 1
    extras = {}
    if suite.finalize is not None:
        final = suite.finalize(cfg, data, notes, extras)
        rows.extend(
            (label, value, point)
            for label, (value, point) in zip(suite.final_labels, final, strict=True)
        )
    total, worst, worst_check, worst_point, within = 0.0, 0.0, "", [], True
    for label, value, point in rows:
        total += value
        if value > worst:
            worst, worst_check, worst_point = value, label, list(point)
        if value > (cfg.tol_fd if label in suite.fd_labels else cfg.tol_identity):
            within = False
    return harness.SuiteResult(
        name=name,
        passed=within and skipped < 0.2 * cfg.samples,
        tolerance=cfg.tol_identity,
        fd_tolerance=cfg.tol_fd,
        samples_run=len(notes),
        skipped=skipped,
        skip_reasons=dict(sorted(skip_reasons.items())),
        max_residual=worst,
        mean_residual=total / len(rows) if rows else 0.0,
        worst_check=worst_check,
        worst_point=worst_point,
        checks=list(suite.labels + suite.final_labels),
        extras=extras,
    )


def _run_suite(name, cfg):
    """_run_suite on per-tau data of its own, as run_suites passes it."""
    return harness._run_suite(name, cfg, harness._PerTau(cfg.series))


def _inject(monkeypatch, name, cfg, errors):
    """Make the draws at the given stream indices fail with errors[index].

    Every batch that holds such a draw raises, as a real check does: a
    batch that holds several raises the last of them.  The real evaluate
    runs on the batches that hold none.
    """
    suite = harness._SUITES[name]
    stream = SampleStream(cfg.seed, name)
    index = {
        tuple(stream.next_complex(*box) for box in suite.boxes): i for i in range(40 * cfg.samples)
    }

    def evaluate(cfg, data, batch):
        for sample in reversed(batch):
            i = index.get(tuple(sample))
            if i in errors:
                raise errors[i]
        return suite.evaluate(cfg, data, batch)

    monkeypatch.setitem(harness._SUITES, name, suite._replace(evaluate=evaluate))


@pytest.mark.parametrize("name", ["flow", "degeneration", "moduli"])
def test_batched_walk_with_skips_equals_the_one_by_one_walk(monkeypatch, name):
    # six stream samples; moduli evaluates the configured tau first
    cfg = RunConfig(samples=6 + (name == "moduli"), suites=(name,))
    # draws by sample: 0 | 1 2 | 3 | 4..13, ten failed attempts, skipped |
    # 14 15 | 16 17; the failure at draw 1 sits in the middle of the first
    # batch, and the base PointError is a skip too
    errors = {
        1: SingularDenominator("mid-batch"),
        4: CoincidentPoints("coincident"),
        **{i: StencilCrossesDivisor(f"crossing {i}") for i in range(5, 15)},
        16: PointError("at one point"),
    }
    _inject(monkeypatch, name, cfg, errors)
    batches = []
    outcomes = harness._outcomes

    def recorded(suite, cfg, data, batch):
        batches.append(batch)
        return outcomes(suite, cfg, data, batch)

    monkeypatch.setattr(harness, "_outcomes", recorded)
    batched = _run_suite(name, cfg)
    assert batched == _one_by_one_walk(name, cfg)
    assert (batched.samples_run, batched.skipped) == (cfg.samples - 1, 1)
    assert batched.skip_reasons == {
        "CoincidentPoints": 1, "PointError": 1, "SingularDenominator": 1,
        "StencilCrossesDivisor": 10,
    }
    # the walk takes draws 0..17; each batch holds as many draws as samples
    # are still open, so no draw past 17 is evaluated
    drawn = [sample for batch in batches for sample in batch]
    if name == "moduli":  # the configured tau is a batch of one
        assert batches[0] == [[cfg.tau.tau1, cfg.tau.tau2, cfg.tau.tau12]]
        drawn = drawn[1:]
    assert drawn == _draws(name, cfg.seed, 18)
    assert len(batches[-1]) < len(batches[1])


def _draws(name, seed, count):
    stream = SampleStream(seed, name)
    boxes = harness._SUITES[name].boxes
    return [[stream.next_complex(*box) for box in boxes] for _ in range(count)]


def test_an_overflow_the_walk_reaches_is_raised_as_the_one_by_one_walk_raises_it(monkeypatch):
    cfg = RunConfig(samples=5, suites=("fundamental",))
    errors = {
        2: SingularDenominator("skipped first"),
        3: TruncationOverflow("required radius 70 exceeds max_radius 64"),
        4: TruncationOverflow("lattice sum left double range: non-finite term"),
    }
    _inject(monkeypatch, "fundamental", cfg, errors)
    with pytest.raises(TruncationOverflow) as reference:
        _one_by_one_walk("fundamental", cfg)
    with pytest.raises(TruncationOverflow) as batched:
        _run_suite("fundamental", cfg)
    assert str(batched.value) == str(reference.value) == "required radius 70 exceeds max_radius 64"


@pytest.mark.parametrize("name", ["parameterizations", "flow", "degeneration"])
def test_an_error_of_the_period_matrix_ends_the_run_at_the_draw_that_raises_it(monkeypatch, name):
    # a DivisionByZeroModulus belongs to the curve, not to a point: the run
    # raises it at draw 3, not skips it, and so never reaches draw 4
    cfg = RunConfig(samples=5, suites=(name,))
    errors = {
        1: SingularDenominator("skipped first"),
        3: DivisionByZeroModulus("k0 k1 k2 = 0 in a denominator"),
        4: TruncationOverflow("unreached"),
    }
    _inject(monkeypatch, name, cfg, errors)
    with pytest.raises(DivisionByZeroModulus) as reference:
        _one_by_one_walk(name, cfg)
    with pytest.raises(DivisionByZeroModulus) as batched:
        _run_suite(name, cfg)
    assert str(batched.value) == str(reference.value) == "k0 k1 k2 = 0 in a denominator"


@pytest.mark.parametrize(
    ("tau", "tol", "error", "message"),
    [
        # the configured tau is split, so its moduli collapse, and the run
        # refuses it before any suite runs
        (
            (0.1 + 8j, -0.1 + 3j, 0j), 1e-25, DegenerateTau,
            "moduli collapse, k0^2 = k1^2 = k2^2 within 1e-10 (split period matrix): "
            "the parameterizations and flow suites need five distinct branch points",
        ),
        # a point of an earlier suite needs radius 5
        ((0.1 + 2j, -0.1 + 3j, 0.02 + 0.2j), 1e-40, TruncationOverflow, "required radius 5 exceeds max_radius 4"),
    ],
)
def test_a_per_tau_build_that_raises_leaves_the_run_its_first_error(tau, tol, error, message):
    # the genus-1 nulls at i, read by the last suite's final, need radius 5
    # or 6, past max_radius; the run raises the error it reaches first
    cfg = RunConfig(tau=PeriodMatrix(*tau), samples=5, series=SeriesControl(tol, 4))
    with pytest.raises(TruncationOverflow):
        Genus1Data(1j, cfg.series).nulls
    with pytest.raises(error) as caught:
        run_suites(cfg)
    assert str(caught.value) == message


def test_an_overflow_past_the_last_draw_is_never_evaluated(monkeypatch):
    # 5 samples with one skip take draws 0..5; draw 6 is never reached
    cfg = RunConfig(samples=5, suites=("fundamental",))
    errors = {1: SingularDenominator("on the divisor"), 6: TruncationOverflow("unreached")}
    _inject(monkeypatch, "fundamental", cfg, errors)
    result = _run_suite("fundamental", cfg)
    assert result == _one_by_one_walk("fundamental", cfg)
    assert (result.samples_run, result.skip_reasons) == (5, {"SingularDenominator": 1})


def _outcome_key(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return outcome


@pytest.mark.parametrize(
    ("name", "bad", "error"),
    [
        # a stencil offset of this point lands on the divisor of theta[00;11]
        ("flow", [DIVISOR_U - 1e-5, DIVISOR_V], StencilCrossesDivisor),
        ("parameterizations", [DIVISOR_U, DIVISOR_V], SingularDenominator),
        ("derivative", [DIVISOR_U, DIVISOR_V], SingularDenominator),
    ],
)
def test_a_real_error_in_a_batch_gives_the_outcomes_of_one_sample_at_a_time(name, bad, error):
    cfg = RunConfig(suites=(name,))
    suite, data = harness._SUITES[name], harness._PerTau(cfg.series)
    good = [0.21 - 0.09j, -0.13 + 0.11j]
    batch = [good, bad, [0.1 + 0.05j, -0.2 + 0.1j]]
    batched = harness._outcomes(suite, cfg, data, batch)
    alone = [outcome for sample in batch for outcome in harness._outcomes(suite, cfg, data, [sample])]
    assert [_outcome_key(o) for o in batched] == [_outcome_key(o) for o in alone]
    assert type(batched[1]) is error
    assert not isinstance(batched[0], Exception) and not isinstance(batched[2], Exception)
    with pytest.raises(error):  # the check itself raises it, batched or alone
        suite.evaluate(cfg, data, [bad])


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


def test_config_defaults_come_from_run_config():
    assert config_from_sources({}) == RunConfig()
    assert config_from_sources(None, suites=["flow", "flow"]).suites == ("flow",)


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
    # at tau12 = 0 the branch points collapse, so the suites that read the
    # pair on the curve refuse the period matrix: code 3, before any suite runs
    out = tmp_path / "split.json"
    proc = _run_cli(
        "verify", "--tau1=0,1.1", "--tau2=0,1.3", "--tau12=0,0",
        "--samples", "60", "--seed", "4", "--json", str(out),
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and "moduli collapse" in proc.stderr
    # the flow stencil there raises a skippable error, not a division by zero:
    # this pair sits on the collapsed root 1/k0^2, where sigma = 0
    point = Point2(0.2568588991595585 - 0.05753327218064916j, -0.17557780446869053 + 0.009911243493877508j)
    with pytest.raises(SingularDenominator):
        stencil_residuals(curve_data(SPLIT_TAU), [point], 1e-5)


def test_cli_failed_verify_leaves_no_report_file_it_created(tmp_path):
    split = ("--tau1=0,1.1", "--tau2=0,1.3", "--tau12=0,0")
    created = tmp_path / "x.json"
    proc = _run_cli("verify", *split, "--json", str(created))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert not created.exists()
    # a report already there is left as it was
    existing = tmp_path / "old.json"
    existing.write_text("{}\n", encoding="utf-8")
    proc = _run_cli("verify", *split, "--json", str(existing))
    assert proc.returncode == 3
    assert existing.read_text(encoding="utf-8") == "{}\n"


def test_split_tau_refused_only_by_suites_that_read_the_curve():
    for suites in (("flow",), ("parameterizations",)):
        with pytest.raises(DegenerateTau):
            run_suites(RunConfig(tau=SPLIT_TAU, samples=2, suites=suites))
    report = run_suites(RunConfig(tau=SPLIT_TAU, samples=2, suites=("moduli", "degeneration")))
    assert report.passed


def test_cli_unreadable_config_and_unwritable_report_exit_1_without_traceback(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# r\xe9glage\nseed = 1\n".encode("latin-1"))
    proc = _run_cli("verify", "--config", str(cfg), "--samples", "2", "--suite", "fundamental")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "cannot read config file" in proc.stderr

    report = tmp_path / "missing" / "x.json"
    proc = _run_cli("verify", "--samples", "2", "--suite", "fundamental", "--json", str(report))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "cannot write report file" in proc.stderr


def test_cli_unwritable_report_is_refused_before_the_suites_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suites", lambda cfg: pytest.fail("the suites ran"))
    assert main(["verify", "--json", str(tmp_path / "missing" / "x.json")]) == 1
    assert "cannot write report file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--tau1=1e308,1", "--tau2=0,1"], ["--tau1=0,1", "--tau2=0,1e308"]],
    ids=["real-part", "imaginary-part"],
)
def test_cli_moduli_exits_2_without_a_warning_when_the_lattice_form_overflows(argv, capsys):
    # the quadratic form leaves double range; under filterwarnings = error a
    # numpy warning would raise here instead of the typed error
    assert main(["moduli", *argv, "--tau12=0,0"]) == 2
    assert capsys.readouterr().err == "error: lattice sum left double range: non-finite term\n"


def test_cli_moduli_exits_2_when_a_consistency_residual_fails(capsys):
    # Re tau1 = 1e20 loses the phases of the nulls: residuals up to 6.2e-4
    assert main(["moduli", "--tau1=1e20,1", "--tau2=0,1", "--tau12=0,0.2"]) == 2
    out, err = capsys.readouterr()
    assert all(label in out for label in CONSISTENCY_LABELS)
    assert err == "error: k0sq-complement = 6.183e-04 exceeds 1e-08\n"
    assert main(["moduli"]) == 0
    assert capsys.readouterr().err == ""


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
    for idx in range(1, 4):
        assert f"unit-sum-{idx}" in text


@pytest.mark.parametrize(
    "argv",
    [
        # close to a split period matrix, not split: every row is printed,
        # param-04 is 2.4e-8
        ["--u=0.11,-0.04", "--v=-0.07,0.06", "--tau1=0,1.1", "--tau2=0,1.3", "--tau12=0,1e-4"],
    ],
)
def test_cli_invert_exits_2_when_a_residual_exceeds_the_identity_tolerance(argv, capsys):
    assert main(["invert", *argv]) == 2
    captured = capsys.readouterr()
    assert "unit-sum-3" in captured.out  # every row is printed first
    tol = RunConfig().tol_identity
    assert captured.err.startswith("error: param-04 = ")
    assert captured.err.rstrip().endswith(f"exceeds {tol:g}")


@pytest.mark.parametrize("tau12", ["0,0", "0,1e-7"])
def test_cli_invert_refuses_a_split_period_matrix_before_printing(tau12, capsys):
    # k0^2 = k1^2 = k2^2 within 1e-10: the pair and its parameterizations
    # lose their meaning, so invert exits 3 with verify's message
    argv = ["--u=0.1,0.1", "--v=0.2,0", "--tau1=0,1.1", "--tau2=0,1.3", f"--tau12={tau12}"]
    assert main(["invert", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    with pytest.raises(DegenerateTau) as verify_error:
        run_suites(RunConfig(tau=SPLIT_TAU, samples=1, suites=("parameterizations",)))
    assert captured.err == f"error: {verify_error.value}\n"


def test_small_but_distinct_moduli_are_not_a_collapse(capsys):
    # k0^2 = 2.4e-10 and k2^2 = 1.9e-10 differ by 19%, though their gap,
    # 4.7e-11, is below COLLAPSE_TOL: the gap is measured against max |k_i^2|
    tau = ["--tau1=0.1,8", "--tau2=-0.1,3"]
    point = ["--u=0.1,0.05", "--v=0.2,0"]
    assert main(["invert", *point, *tau, "--tau12=0.02,0.3"]) == 0
    assert "unit-sum-3" in capsys.readouterr().out
    assert main(["moduli", *tau, "--tau12=0.02,0.3"]) == 0
    assert "moduli collapse" not in capsys.readouterr().out
    # the split period matrix of the same tau1 and tau2 still collapses
    assert main(["invert", *point, *tau, "--tau12=0,0"]) == 3
    assert capsys.readouterr().err.startswith("error: moduli collapse")
    assert main(["moduli", *tau, "--tau12=0,0"]) == 0
    assert "moduli collapse" in capsys.readouterr().out


def test_invert_at_a_huge_real_part_equals_the_pair_in_the_cell(capsys):
    # theta[c](u + k, v) = (-1)^(a k) theta[c](u, v): the kernel evaluates
    # at u - 1e12 = 0.1i exactly, so the pair is the same to the bit
    far = recover_pair(Point2(1e12 + 0.1j, 0.2), DEFAULT_TAU)
    assert far == recover_pair(Point2(0.1j, 0.2), DEFAULT_TAU)
    assert main(["invert", "--u=1e12,0.1", "--v=0.2,0"]) == 0
    assert "unit-sum-3" in capsys.readouterr().out


def test_cli_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


SRC = DATA.parents[1] / "src"
# loads the script at argv[1] as _load_script does, sets the module constants
# of the JSON object argv[2], and exits with its main() on the arguments after
_RUN_SCRIPT = """
import importlib.util, json, sys
from pathlib import Path
path, settings = Path(sys.argv[1]), json.loads(sys.argv[2])
spec = importlib.util.spec_from_file_location(path.stem, path)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
for attr, value in settings.items():
    setattr(module, attr, value)
sys.argv = [path.name, *sys.argv[3:]]
sys.exit(module.main())
"""


@pytest.mark.parametrize(
    "script",
    [
        # a header, then one row per step size or per tau12
        ("fd_convergence.py", ["--points", "1"], 1 + 16, {}),
        ("split_limit_scan.py", [], 1 + 7, {}),
        # one row per case, each case run at least once
        ("kernel_timing.py", [], 9, {"ROUNDS": 1, "CALLS": 4}),
        # one row per op, this checkout timed against itself
        ("kernel_timing.py", ["--ab", str(SRC), "--rounds", "2"], 5,
         {"PAIR_CALLS": 2, "CURVE_CALLS": 2}),
        # the verify op cut to a few samples of two suites
        ("kernel_timing.py", ["--ab", str(SRC), "--rounds", "2", "--samples", "3",
                              "--suite", "degeneration", "--suite", "elliptic"], 5,
         {"PAIR_CALLS": 2, "CURVE_CALLS": 2}),
    ],
)
def test_scripts_run_to_completion(script):
    # in a child interpreter, so what a script does to sys.modules stays there
    name, argv, lines, settings = script
    path = DATA.parents[1] / "scripts" / name
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_SCRIPT, str(path), json.dumps(settings), *argv],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == lines
