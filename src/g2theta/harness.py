"""Verification suites over seeded samples, with a deterministic JSON report.

Every suite is one _Suite record in _SUITES, and one loop, _run_suite, runs
them all.  A record gives the boxes a sample draws (one complex number per
box, from the suite's own counter-based stream, see rng.py), the labels of
the residuals each sample gives, and which of them are finite-difference
checks.  evaluate(cfg, data, samples) takes a batch of samples and returns
the residuals and a note of each, or raises; the batched checks behind it
read the theta values of the whole batch from one kernel call.  Suites
that end with checks made once per run also give the labels of those final
rows and finalize(cfg, data, notes, extras), which sees the note evaluate
returned with every sample that ran.

data holds the run's per-tau data (_PerTau): each tau's is built at its
first read and kept for the rest of the run, and nothing is kept from one
run to the next, so a run does the same work whatever ran before it in the
process.

A drawn sample whose check raises a PointError (it lands on a theta
divisor or otherwise breaks a precondition of its point) is re-drawn up to
10 times, then counted as skipped; an error of the period matrix, as
DivisionByZeroModulus or DegenerateTau, ends the run at the first draw
that raises it, and the configured tau, evaluated as a batch of one, is
never skipped.  The loop
draws as many samples as are still open, in one block draw of the suite's
stream (SampleStream.draw), evaluates them as one batch and replays that
walk over the outcomes, until no sample is open.  Every open sample needs
at least one more draw, so no batch holds a draw the walk would not reach,
and the draws are the same as one at a time.  Errors take
one path: a batch that raises, a skip included, is evaluated again one
sample at a time (_outcomes), where a skippable error becomes its sample's
outcome and any other error is raised at the first draw that raises it.
No value depends on which samples share a batch, so the replay gives the
same residuals.

The loop folds the residuals in one order: the configured tau as sample 0
when the record asks for it, then the stream samples in draw order, then
the final rows.  The mean is a float sum taken in that order, and the first
largest residual names the worst check.  A suite passes when every residual
is within its tolerance and less than 20% of its samples were skipped; a
residual that is not a finite number ends the run with NonFiniteResidual,
which names the suite, the check and the draw.

Identity checks are measured against tol_identity; finite-difference checks
(the flow suite and the sn-ode check of the elliptic suite) against tol_fd.
The parameterizations and flow suites read the point pair on the configured
curve, so run_suites refuses, with DegenerateTau, a configured tau whose
branch points collapse (a split period matrix) before any suite runs.

Reports serialize with fixed key order and 17-significant-digit floats, so
two runs with the same config produce byte-identical JSON.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from json.encoder import encode_basestring_ascii

from . import __version__
from .degeneration import (
    DEGENERATION_LABELS,
    Genus1Data,
    complete_integral_residuals,
    degeneration_residuals,
    elliptic_residuals,
)
from .errors import (
    ConfigInvalid,
    G2ThetaError,
    NonFiniteResidual,
    PointError,
)
from .flow import addition_formula_residuals, derivative_formula_residuals, stencil_residuals
from .inversion import PARAMETERIZATION_LABELS, parameterization_residuals
from .moduli import (
    CONSISTENCY_LABELS,
    RATIO_CHARACTERISTICS,
    _consistency_residuals,
    _null_ratio_signs,
    require_five_branch_points,
)
from .riemann import Quadruple, fundamental_identity_residuals, riemann_relation_residuals
from .rng import SampleStream
from .theta import (
    DEFAULT_TAU,
    CurveData,
    PeriodMatrix,
    Point2,
    SeriesControl,
    curve_batch,
)

__all__ = [
    "VERSION",
    "SUITE_ORDER",
    "RunConfig",
    "SuiteResult",
    "Report",
    "run_suites",
    "parse_config_file",
    "parse_complex_pair",
    "tau_from_sources",
    "config_from_sources",
    "report_to_json",
]

VERSION = __version__

# sampling box for theta arguments (and genus-1 z draws)
_BOX = (-0.5, 0.5, -0.2, 0.2)
# Siegel-region box for sampled period matrices: diagonal entries then tau12
_TAU_DIAG = (-0.3, 0.3, 0.9, 1.5)
_TAU_OFF = (-0.1, 0.1, 0.1, 0.35)

_SKIPPABLE = PointError


def _split(cfg) -> PeriodMatrix:
    """The split period matrix on the configured diagonal: tau12 is forced to 0."""
    return PeriodMatrix(cfg.tau.tau1, cfg.tau.tau2, 0.0)


class _Suite(
    namedtuple(
        "_Suite",
        "boxes labels evaluate fd_labels final_labels finalize config_tau_first reads_curve",
        defaults=(frozenset(), (), None, False, False),
    )
):
    """One suite: what each sample draws, the residuals it gives, how a run ends.

    boxes holds a sample's draw boxes and labels its residuals' labels.
    evaluate(cfg, data, samples) returns, in order, each sample's residuals
    in label order and a note; an error at any sample raises for the whole
    batch, and _outcomes sorts it out.  fd_labels are checked against the
    finite-difference tolerance.  finalize(cfg, data, notes, extras), if
    not None, gets the (note, sample) of every sample that ran, records
    what it reports beyond residuals in extras, and returns one (residual,
    point) per final label.  With config_tau_first the configured tau is
    sample 0; reads_curve says the suite needs the pair on the configured
    curve.
    """

    __slots__ = ()


def _points(batch) -> list[Point2]:
    return [Point2(*sample) for sample in batch]


def _moduli_final(cfg, data, notes, extras):
    """Root-product null ratios at the configured tau, sign branch recorded."""
    signs = _null_ratio_signs(data[cfg.tau])
    extras["null_ratio_signs"] = {
        "".join(map(str, bits)): signs[bits][0] for bits in RATIO_CHARACTERISTICS
    }
    point = [cfg.tau.tau1, cfg.tau.tau2, cfg.tau.tau12]
    return [(signs[bits][1], point) for bits in RATIO_CHARACTERISTICS]


def _degeneration_final(cfg, data, notes, extras):
    """Spread of the pair member frozen at 1/k0^2 of the split curve."""
    predicted = 1.0 / data[_split(cfg)].moduli.k0_sq
    members = [
        (min((pair.x1, pair.x2), key=lambda x: abs(x - predicted)), sample)
        for pair, sample in notes
    ]
    if not members:
        return [(0.0, [])]  # a 0.0 row moves neither the max nor the mean
    base, point = members[0]
    extras["constant_member"] = base
    spread = 0.0
    for member, sample in members[1:]:
        gap = abs(member - base) / (1.0 + abs(base))
        if gap > spread:
            spread, point = gap, sample
    return [(spread, point)]


def _elliptic_final(cfg, data, notes, extras):
    """Complete integrals at two fixed taus and the self-dual modulus at i."""
    rows = []
    for t in (1j, 1.5j):
        res = complete_integral_residuals(data[t])
        rows += [(res[0], [t]), (res[1], [t])]
    mod_i = data[1j].modulus
    extras["modulus_sq_at_i"] = mod_i.k_sq
    rows.append((abs(mod_i.k_sq - 0.5), [1j]))
    return rows


def _sample_curves(cfg, data, batch) -> list[CurveData]:
    """The per-tau data of a batch of moduli samples, each a period matrix.

    A drawn period matrix is used once, so the batch's CurveData are built
    here, their origin grids stacked (curve_batch); the configured tau's is
    the run's.
    """
    taus = [PeriodMatrix(*sample) for sample in batch]
    fresh = iter(curve_batch([tau for tau in taus if tau != cfg.tau], cfg.series))
    return [data[cfg.tau] if tau == cfg.tau else next(fresh) for tau in taus]


_FLOW_LABELS = (
    "flow-dx1-du", "flow-dx2-du", "flow-dx1-dv", "flow-dx2-dv", "abelian-du", "abelian-dv"
)

_SUITES = {
    "riemann": _Suite(
        boxes=(_BOX,) * 8,
        labels=tuple(f"riemann-{way}-{i}" for way in ("forward", "inverse") for i in range(1, 5)),
        evaluate=lambda cfg, data, batch: [(r, None) for r in riemann_relation_residuals(
            data[cfg.tau], [Quadruple(tuple(map(Point2, s[::2], s[1::2]))) for s in batch]
        )],
    ),
    "fundamental": _Suite(
        boxes=(_BOX, _BOX),
        labels=("fund-1", "fund-2", "fund-3"),
        evaluate=lambda cfg, data, batch: [
            (r, None) for r in fundamental_identity_residuals(data[cfg.tau], _points(batch))
        ],
    ),
    "moduli": _Suite(
        boxes=(_TAU_DIAG, _TAU_DIAG, _TAU_OFF),
        labels=CONSISTENCY_LABELS,
        evaluate=lambda cfg, data, batch: [
            ([value for _, value in _consistency_residuals(cd)], None)
            for cd in _sample_curves(cfg, data, batch)
        ],
        final_labels=tuple("ratio-" + "".join(map(str, bits)) for bits in RATIO_CHARACTERISTICS),
        finalize=_moduli_final,
        config_tau_first=True,
    ),
    "parameterizations": _Suite(
        boxes=(_BOX, _BOX),
        labels=PARAMETERIZATION_LABELS,
        evaluate=lambda cfg, data, batch: parameterization_residuals(data[cfg.tau], _points(batch)),
        reads_curve=True,
    ),
    "flow": _Suite(
        boxes=(_BOX, _BOX),
        labels=_FLOW_LABELS,
        evaluate=lambda cfg, data, batch: [
            (flow + abelian, None)
            for flow, abelian in stencil_residuals(data[cfg.tau], _points(batch), cfg.fd_step)
        ],
        fd_labels=frozenset(_FLOW_LABELS),
        reads_curve=True,
    ),
    "addition": _Suite(
        boxes=(_BOX,) * 4,
        labels=("addition-1", "addition-2"),
        evaluate=lambda cfg, data, batch: [(r, None) for r in addition_formula_residuals(
            data[cfg.tau], [(Point2(s[0], s[1]), Point2(s[2], s[3])) for s in batch]
        )],
    ),
    "derivative": _Suite(
        boxes=(_BOX, _BOX),
        labels=("deriv-ratio1-du", "deriv-ratio1-dv", "deriv-ratio2-du", "deriv-ratio2-dv"),
        evaluate=lambda cfg, data, batch: [
            (r, None) for r in derivative_formula_residuals(data[cfg.tau], _points(batch))
        ],
    ),
    "degeneration": _Suite(
        boxes=(_BOX, _BOX),
        labels=DEGENERATION_LABELS,
        # the split locus attached to the configured diagonal
        evaluate=lambda cfg, data, batch: degeneration_residuals(
            data[_split(cfg)], data[cfg.tau.tau1], data[cfg.tau.tau2], _points(batch)
        ),
        final_labels=("constant-member-spread",),
        finalize=_degeneration_final,
    ),
    "elliptic": _Suite(
        boxes=(_BOX,),
        labels=(
            "elliptic-sq-1", "elliptic-sq-2", "elliptic-sq-3", "elliptic-null-quartic",
            "jacobi-sn-cn", "jacobi-dn", "sn-ode",
        ),
        # genus-1 theory at tau = tau1 of the config
        evaluate=lambda cfg, data, batch: [
            (r, None) for r in elliptic_residuals(data[cfg.tau.tau1], [s[0] for s in batch], cfg.fd_step)
        ],
        fd_labels=frozenset(["sn-ode"]),
        final_labels=(
            "complete-tau-i", "complete-norm-i", "complete-tau-1.5i", "complete-norm-1.5i",
            "self-dual-modulus",
        ),
        finalize=_elliptic_final,
    ),
}

SUITE_ORDER = tuple(_SUITES)


class RunConfig(
    namedtuple(
        "RunConfig",
        "tau seed samples tol_identity tol_fd fd_step series suites",
        defaults=(DEFAULT_TAU, 0, 100, 1e-8, 1e-5, 1e-5, SeriesControl(), SUITE_ORDER),
    )
):
    __slots__ = ()

    def validate(self) -> None:
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ConfigInvalid(f"samples must be a positive integer, got {self.samples}")
        if not (0 <= self.seed < 2**64):
            raise ConfigInvalid(f"seed must fit in 64 unsigned bits, got {self.seed}")
        for name in ("tol_identity", "tol_fd", "fd_step"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ConfigInvalid(f"{name} must be positive, got {value}")
        if not self.suites:
            raise ConfigInvalid("no suites selected")
        unknown = [s for s in self.suites if s not in SUITE_ORDER]
        if unknown:
            raise ConfigInvalid(f"unknown suites: {unknown}; known: {list(SUITE_ORDER)}")


class SuiteResult(
    namedtuple(
        "SuiteResult",
        "name passed tolerance fd_tolerance samples_run skipped skip_reasons max_residual "
        "mean_residual worst_check worst_point checks extras",
        defaults=(None,),
    )
):
    """extras, what the suite reports beyond residuals, is a new dict when not given."""

    __slots__ = ()

    def __new__(cls, *fields, **named):
        result = super().__new__(cls, *fields, **named)
        return result if result.extras is not None else result._replace(extras={})


class Report(namedtuple("Report", "version config suites passed")):
    __slots__ = ()


def _outcomes(suite: _Suite, cfg: RunConfig, data: _PerTau, batch: list[list[complex]]) -> list:
    """suite.evaluate over the batch on the run's per-tau data, one outcome
    per sample: the sample's (residuals, note), or the skippable error
    raised at it.

    This is where the errors of a batch become outcomes.  A batch that
    raises, whatever the error, is evaluated again one sample at a time, in
    order: a skippable error becomes its sample's outcome, and any other
    error is raised at the first sample that raises it, as the one-by-one
    walk would.
    """
    if len(batch) > 1:
        try:
            return suite.evaluate(cfg, data, batch)
        except G2ThetaError:
            pass
    outcomes = []
    for sample in batch:
        try:
            outcomes += suite.evaluate(cfg, data, [sample])
        except _SKIPPABLE as exc:
            outcomes.append(exc)
    return outcomes


def _run_suite(name: str, cfg: RunConfig, data: _PerTau) -> SuiteResult:
    """Draw, evaluate and fold one suite's samples, then its final rows, on
    the run's per-tau data."""
    suite = _SUITES[name]
    stream = SampleStream(cfg.seed, name)
    # (labels, residuals, point) of each sample, then of each final row, in fold order
    rows: list[tuple[tuple[str, ...], list[float], list[complex]]] = []
    notes: list[tuple[object, list[complex]]] = []
    skip_reasons: dict[str, int] = {}
    skipped = 0

    def take(sample, outcome):
        residuals, note = outcome
        if len(residuals) != len(suite.labels):
            raise ValueError(f"{name}: {len(residuals)} residuals for {len(suite.labels)} labels")
        rows.append((suite.labels, residuals, sample))
        notes.append((note, sample))

    unresolved = cfg.samples
    if suite.config_tau_first:  # never skipped: an error there ends the run
        sample = [cfg.tau.tau1, cfg.tau.tau2, cfg.tau.tau12]
        [outcome] = _outcomes(suite, cfg, data, [sample])
        if isinstance(outcome, G2ThetaError):
            raise outcome
        take(sample, outcome)
        unresolved -= 1
    # every unresolved sample needs one more draw at least, so a batch of
    # that many holds only draws the one-by-one walk reaches
    failed = 0  # failed attempts of the current sample
    while unresolved:
        batch = stream.draw(unresolved, suite.boxes)
        for sample, outcome in zip(batch, _outcomes(suite, cfg, data, batch), strict=True):
            if isinstance(outcome, _SKIPPABLE):
                reason = type(outcome).__name__
                skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
                failed += 1
                if failed < 10:
                    continue
                skipped += 1
            else:
                take(sample, outcome)
            failed = 0
            unresolved -= 1

    extras: dict = {}
    if suite.finalize is not None:
        final = suite.finalize(cfg, data, notes, extras)
        rows += [
            ((label,), [value], point)
            for label, (value, point) in zip(suite.final_labels, final, strict=True)
        ]

    tolerance = {
        label: cfg.tol_fd if label in suite.fd_labels else cfg.tol_identity
        for label in suite.labels + suite.final_labels
    }
    count, total, worst, worst_check, worst_point, within = 0, 0.0, 0.0, "", [], True
    for labels, values, point in rows:
        count += len(values)
        for label, value in zip(labels, values):
            total += value
            if value > worst:
                worst, worst_check, worst_point = value, label, point
            if not value <= tolerance[label]:  # over it, or not a number
                if not math.isfinite(value):
                    raise NonFiniteResidual(f"{name}: {label} is not finite at the draw {point}")
                within = False
    return SuiteResult(
        name=name,
        passed=within and skipped < 0.2 * cfg.samples,
        tolerance=cfg.tol_identity,
        fd_tolerance=cfg.tol_fd,
        samples_run=len(notes),
        skipped=skipped,
        skip_reasons=dict(sorted(skip_reasons.items())),
        max_residual=worst,
        mean_residual=total / count if count else 0.0,
        worst_check=worst_check,
        worst_point=list(worst_point),
        checks=list(suite.labels + suite.final_labels),
        extras=extras,
    )


_SUITE_RUNNERS = {name: partial(_run_suite, name) for name in SUITE_ORDER}


class _PerTau(dict):
    """The per-tau data of a run: a PeriodMatrix's CurveData, a genus-1
    tau's Genus1Data, each built at its first read, so a run builds only
    what its suites read, once, and raises a build's error where it first
    reads it."""

    def __init__(self, ctrl: SeriesControl):
        super().__init__()
        self.ctrl = ctrl

    def __missing__(self, tau):
        built = self[tau] = CurveData(tau, self.ctrl) if isinstance(tau, PeriodMatrix) else Genus1Data(tau, self.ctrl)
        return built


def run_suites(config: RunConfig) -> Report:
    config.validate()
    selected = [name for name in SUITE_ORDER if name in config.suites]
    data = _PerTau(config.series)
    if any(_SUITES[name].reads_curve for name in selected):
        require_five_branch_points(data[config.tau].moduli)
    results = [_SUITE_RUNNERS[name](config, data) for name in selected]
    return Report(
        version=VERSION,
        config=config,
        suites=results,
        passed=all(r.passed for r in results),
    )


def parse_complex_pair(text: str) -> complex:
    """Parse 'RE,IM' into a finite complex number."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigInvalid(f"expected RE,IM, got {text!r}")
    try:
        re, im = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigInvalid(f"expected RE,IM, got {text!r}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ConfigInvalid(f"expected finite RE,IM, got {text!r}")
    return complex(re, im)


_DEFAULTS = RunConfig()
_TAU_KEYS = ("tau1", "tau2", "tau12")
# the int and float fields of RunConfig share their config-file key
_NUMBER_KEYS = tuple(name for name in RunConfig._fields if type(getattr(_DEFAULTS, name)) in (int, float))
_SERIES_KEYS = {"series_tol": "tol", "max_radius": "max_radius"}  # key -> SeriesControl field
_CONFIG_KEYS = {*_TAU_KEYS, *_NUMBER_KEYS, *_SERIES_KEYS, "suites"}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` file, UTF-8, `#` comments; returns raw strings."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _parse_number(name: str, text: str, kind: type):
    try:
        return int(text, 0) if kind is int else float(text)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigInvalid(f"{name} must be {what}, got {text!r}") from exc


def tau_from_sources(
    file_values: dict[str, str] | None = None,
    tau1: complex | None = None,
    tau2: complex | None = None,
    tau12: complex | None = None,
) -> PeriodMatrix:
    """The period matrix from flags, else config-file values, else DEFAULT_TAU."""
    fv = file_values or {}
    flags = dict(zip(_TAU_KEYS, (tau1, tau2, tau12)))
    return PeriodMatrix(*(
        flags[key] if flags[key] is not None
        else parse_complex_pair(fv[key]) if key in fv
        else getattr(DEFAULT_TAU, key)
        for key in _TAU_KEYS
    ))


def config_from_sources(
    file_values: dict[str, str] | None = None,
    tau1: complex | None = None,
    tau2: complex | None = None,
    tau12: complex | None = None,
    seed: int | None = None,
    samples: int | None = None,
    suites: list[str] | None = None,
) -> RunConfig:
    """Merge defaults, config-file values, and flag overrides (flags win).

    The defaults are those of RunConfig, SeriesControl and DEFAULT_TAU.
    """
    fv = dict(file_values or {})

    def read(key: str, default):
        return _parse_number(key, fv[key], type(default)) if key in fv else default

    tau = tau_from_sources(fv, tau1, tau2, tau12)
    flags = {"seed": seed, "samples": samples}
    numbers = {
        key: flags[key] if flags.get(key) is not None else read(key, getattr(_DEFAULTS, key))
        for key in _NUMBER_KEYS
    }
    try:
        series = SeriesControl(**{
            name: read(key, getattr(_DEFAULTS.series, name)) for key, name in _SERIES_KEYS.items()
        })
    except ValueError as exc:
        raise ConfigInvalid(f"series settings: {exc}") from exc
    if suites is None:
        suites = SUITE_ORDER if "suites" not in fv else [
            s.strip() for s in fv["suites"].split(",") if s.strip()
        ]
    cfg = RunConfig(tau=tau, series=series, suites=tuple(suites), **numbers)
    cfg.validate()
    return cfg._replace(suites=tuple(name for name in SUITE_ORDER if name in cfg.suites))


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x}")
    return format(x, ".17g")


# The JSON of a scalar by its type; a str is quoted by encode_basestring_ascii,
# the C encoder json.dumps itself uses for one
_SCALAR_JSON = {
    type(None): lambda _: "null",
    bool: lambda flag: "true" if flag else "false",
    int: str,
    float: _fmt_float,
    complex: lambda z: f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]",
    str: encode_basestring_ascii,
}


def _json_value(obj) -> str:
    for kind in type(obj).__mro__:  # its own type first, so a subclass is written as its base
        write = _SCALAR_JSON.get(kind)
        if write is not None:
            return write(obj)
    raise TypeError(f"unserializable value {obj!r}")


def _json_dumps(obj, indent: int = 0) -> str:
    """obj as indented JSON; a dict, list or tuple of exactly that type is a container."""
    kind = type(obj)
    if kind is not dict and kind is not list and kind is not tuple:
        return _json_value(obj)
    if not obj:
        return "{}" if kind is dict else "[]"
    pad, inner = "  " * indent, "  " * (indent + 1)
    if kind is dict:
        parts = [
            f"{inner}{encode_basestring_ascii(str(key))}: {_json_dumps(value, indent + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if all(type(v) in (int, float, complex, str) for v in obj):
        return "[" + ", ".join(map(_json_value, obj)) + "]"
    parts = [f"{inner}{_json_dumps(v, indent + 1)}" for v in obj]
    return "[\n" + ",\n".join(parts) + "\n" + pad + "]"


def report_to_json(report: Report) -> str:
    """Serialize with fixed key order; complex as [re, im]; floats as .17g."""
    cfg = report.config
    doc = {
        "version": report.version,
        "config": {
            "tau": {"tau1": cfg.tau.tau1, "tau2": cfg.tau.tau2, "tau12": cfg.tau.tau12},
            "seed": cfg.seed,
            "samples": cfg.samples,
            "tol_identity": cfg.tol_identity,
            "tol_fd": cfg.tol_fd,
            "fd_step": cfg.fd_step,
            "series": {"tol": cfg.series.tol, "max_radius": cfg.series.max_radius},
            "suites": list(cfg.suites),
        },
        "passed": report.passed,
        "suites": [
            {
                "name": s.name,
                "passed": s.passed,
                "tolerance": s.tolerance,
                "fd_tolerance": s.fd_tolerance,
                "samples_run": s.samples_run,
                "skipped": s.skipped,
                "skip_reasons": s.skip_reasons,
                "max_residual": s.max_residual,
                "mean_residual": s.mean_residual,
                "worst_check": s.worst_check,
                "worst_point": list(s.worst_point),
                "checks": list(s.checks),
                "extras": s.extras,
            }
            for s in report.suites
        ],
    }
    return _json_dumps(doc) + "\n"
