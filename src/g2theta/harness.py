"""Verification suites over seeded samples, with a deterministic JSON report.

Each suite draws its own sample stream (seeded counter-based generator, see
rng.py), evaluates a fixed set of labeled residual checks per sample, and
aggregates max/mean residuals in sample order.  Points that land on a theta
divisor or otherwise break a precondition are re-drawn up to 10 times, then
counted as skipped; a suite passes when every residual is within tolerance
and less than 20% of its samples were skipped.

Identity checks are measured against tol_identity; finite-difference checks
(the flow suite and the sn-ode check of the elliptic suite) against tol_fd.

Reports serialize with fixed key order and 17-significant-digit floats, so
two runs with the same config produce byte-identical JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .degeneration import (
    complete_integral_residuals,
    degenerate_inversion,
    elliptic_identity_residuals,
    elliptic_modulus,
    jacobi_functions,
    sn_ode_residual,
    splitting_residuals,
)
from .errors import (
    CoincidentPoints,
    ConfigInvalid,
    DegenerateTau,
    DivisionByZeroModulus,
    SingularDenominator,
    StencilCrossesDivisor,
)
from .flow import (
    addition_formula_residuals,
    derivative_formula_residuals,
    stencil_residuals,
)
from .inversion import (
    PARAMETERIZATION_LABELS,
    parameterization_residuals,
    unit_sum_identity_residuals,
)
from .moduli import (
    RATIO_CHARACTERISTICS,
    moduli_consistency_residuals,
    moduli_from_tau,
    null_ratio_signs,
)
from .riemann import Quadruple, fundamental_identity_residuals, riemann_relation_residuals
from .rng import SampleStream
from .theta import ALL_CHARACTERISTICS, DEFAULT_TAU, PeriodMatrix, Point2, SeriesControl

__all__ = [
    "VERSION",
    "SUITE_ORDER",
    "RunConfig",
    "SuiteResult",
    "Report",
    "run_suites",
    "parse_config_file",
    "parse_complex_pair",
    "report_to_json",
]

VERSION = "0.1.0"

SUITE_ORDER = (
    "riemann",
    "fundamental",
    "moduli",
    "parameterizations",
    "flow",
    "addition",
    "derivative",
    "degeneration",
    "elliptic",
)

# sampling box for theta arguments (and genus-1 z draws)
_BOX = (-0.5, 0.5, -0.2, 0.2)
# Siegel-region box for sampled period matrices: diagonal entries then tau12
_TAU_DIAG = (-0.3, 0.3, 0.9, 1.5)
_TAU_OFF = (-0.1, 0.1, 0.1, 0.35)

_SKIPPABLE = (
    SingularDenominator,
    CoincidentPoints,
    StencilCrossesDivisor,
    DivisionByZeroModulus,
    DegenerateTau,
)


@dataclass(frozen=True)
class RunConfig:
    tau: PeriodMatrix = DEFAULT_TAU
    seed: int = 0
    samples: int = 100
    tol_identity: float = 1e-8
    tol_fd: float = 1e-5
    fd_step: float = 1e-5
    series: SeriesControl = SeriesControl()
    suites: tuple[str, ...] = SUITE_ORDER

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


@dataclass
class SuiteResult:
    name: str
    passed: bool
    tolerance: float
    fd_tolerance: float
    samples_run: int
    skipped: int
    skip_reasons: dict[str, int]
    max_residual: float
    mean_residual: float
    worst_check: str
    worst_point: list[complex]
    checks: list[str]
    extras: dict = field(default_factory=dict)


@dataclass
class Report:
    version: str
    config: RunConfig
    suites: list[SuiteResult]
    passed: bool


class _Aggregate:
    """Deterministic fold of labeled residuals in evaluation order."""

    def __init__(self, tol_identity: float, tol_fd: float, fd_labels: frozenset[str]):
        self.tol_identity = tol_identity
        self.tol_fd = tol_fd
        self.fd_labels = fd_labels
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.worst_check = ""
        self.worst_point: list[complex] = []
        self.within = True

    def add(self, label: str, value: float, point: list[complex]) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
            self.worst_check = label
            self.worst_point = list(point)
        tol = self.tol_fd if label in self.fd_labels else self.tol_identity
        if value > tol:
            self.within = False


def _run_sampled(
    name: str,
    cfg: RunConfig,
    checks: list[str],
    fd_labels: frozenset[str],
    draw,
    evaluate,
    finalize=None,
    first_sample=None,
) -> SuiteResult:
    """Shared sampling loop: draw, evaluate labeled rows, aggregate, finalize.

    draw(stream) -> sample; evaluate(sample) -> list of (label, residual);
    a sample is a list of complex scalars, recorded verbatim as the worst
    point.  first_sample, when given, is evaluated before the stream draws
    (it counts toward the sample budget and is never skipped silently).
    """
    stream = SampleStream(cfg.seed, name)
    agg = _Aggregate(cfg.tol_identity, cfg.tol_fd, fd_labels)
    extras: dict = {}
    skipped = 0
    skip_reasons: dict[str, int] = {}
    samples_run = 0

    budget = cfg.samples
    if first_sample is not None:
        for label, value in evaluate(first_sample):
            agg.add(label, value, first_sample)
        samples_run += 1
        budget -= 1

    for _ in range(max(budget, 0)):
        rows = None
        sample = None
        for _attempt in range(10):
            sample = draw(stream)
            try:
                rows = evaluate(sample)
            except _SKIPPABLE as exc:
                reason = type(exc).__name__
                skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
                rows = None
                continue
            break
        if rows is None:
            skipped += 1
            continue
        samples_run += 1
        for label, value in rows:
            agg.add(label, value, sample)

    if finalize is not None:
        for label, value, point in finalize(extras):
            agg.add(label, value, point)

    mean = agg.total / agg.count if agg.count else 0.0
    passed = agg.within and (skipped < 0.2 * cfg.samples)
    return SuiteResult(
        name=name,
        passed=passed,
        tolerance=cfg.tol_identity,
        fd_tolerance=cfg.tol_fd,
        samples_run=samples_run,
        skipped=skipped,
        skip_reasons=dict(sorted(skip_reasons.items())),
        max_residual=agg.max,
        mean_residual=mean,
        worst_check=agg.worst_check,
        worst_point=agg.worst_point,
        checks=checks,
        extras=extras,
    )


def _draw_point(stream: SampleStream) -> list[complex]:
    return [stream.next_complex(*_BOX), stream.next_complex(*_BOX)]


def _suite_riemann(cfg: RunConfig) -> SuiteResult:
    labels = [f"riemann-forward-{i}" for i in range(1, 5)] + [
        f"riemann-inverse-{i}" for i in range(1, 5)
    ]

    def draw(stream):
        return [stream.next_complex(*_BOX) for _ in range(8)]

    def evaluate(sample):
        quad = Quadruple((
            Point2(sample[0], sample[1]),
            Point2(sample[2], sample[3]),
            Point2(sample[4], sample[5]),
            Point2(sample[6], sample[7]),
        ))
        res = riemann_relation_residuals(quad, cfg.tau, cfg.series)
        return list(zip(labels, res))

    return _run_sampled("riemann", cfg, labels, frozenset(), draw, evaluate)


def _suite_fundamental(cfg: RunConfig) -> SuiteResult:
    labels = ["fund-1", "fund-2", "fund-3"]

    def evaluate(sample):
        res = fundamental_identity_residuals(Point2(sample[0], sample[1]), cfg.tau, cfg.series)
        return list(zip(labels, res))

    return _run_sampled("fundamental", cfg, labels, frozenset(), _draw_point, evaluate)


def _suite_moduli(cfg: RunConfig) -> SuiteResult:
    consistency_labels = [label for label, _ in moduli_consistency_residuals(cfg.tau, cfg.series)]
    ratio_labels = ["ratio-" + "".join(map(str, bits)) for bits in RATIO_CHARACTERISTICS]
    labels = consistency_labels + ratio_labels

    def draw(stream):
        return [
            stream.next_complex(*_TAU_DIAG),
            stream.next_complex(*_TAU_DIAG),
            stream.next_complex(*_TAU_OFF),
        ]

    def evaluate(sample):
        tau = PeriodMatrix(sample[0], sample[1], sample[2])
        return moduli_consistency_residuals(tau, cfg.series)

    def finalize(extras):
        # root-product null ratios at the config tau, sign branch recorded
        signs = null_ratio_signs(cfg.tau, cfg.series)
        extras["null_ratio_signs"] = {
            "".join(map(str, bits)): signs[bits][0] for bits in RATIO_CHARACTERISTICS
        }
        point = [cfg.tau.tau1, cfg.tau.tau2, cfg.tau.tau12]
        return [
            ("ratio-" + "".join(map(str, bits)), signs[bits][1], point)
            for bits in RATIO_CHARACTERISTICS
        ]

    first = [cfg.tau.tau1, cfg.tau.tau2, cfg.tau.tau12]
    return _run_sampled(
        "moduli", cfg, labels, frozenset(), draw, evaluate,
        finalize=finalize, first_sample=first,
    )


def _suite_parameterizations(cfg: RunConfig) -> SuiteResult:
    unit_labels = ["unit-sum-1", "unit-sum-2", "unit-sum-3"]

    def evaluate(sample):
        point = Point2(sample[0], sample[1])
        rows = list(parameterization_residuals(point, cfg.tau, cfg.series))
        rows += list(zip(unit_labels, unit_sum_identity_residuals(point, cfg.tau, cfg.series)))
        return rows

    return _run_sampled(
        "parameterizations",
        cfg,
        list(PARAMETERIZATION_LABELS) + unit_labels,
        frozenset(),
        _draw_point,
        evaluate,
    )


def _suite_flow(cfg: RunConfig) -> SuiteResult:
    labels = [
        "flow-dx1-du",
        "flow-dx2-du",
        "flow-dx1-dv",
        "flow-dx2-dv",
        "abelian-du",
        "abelian-dv",
    ]

    def evaluate(sample):
        point = Point2(sample[0], sample[1])
        flow, abelian = stencil_residuals(point, cfg.tau, cfg.series, h=cfg.fd_step)
        return list(zip(labels, flow + abelian))

    return _run_sampled(
        "flow", cfg, labels, frozenset(labels), _draw_point, evaluate
    )


def _suite_addition(cfg: RunConfig) -> SuiteResult:
    labels = ["addition-1", "addition-2"]

    def draw(stream):
        return [stream.next_complex(*_BOX) for _ in range(4)]

    def evaluate(sample):
        p = Point2(sample[0], sample[1])
        q = Point2(sample[2], sample[3])
        return list(zip(labels, addition_formula_residuals(p, q, cfg.tau, cfg.series)))

    return _run_sampled("addition", cfg, labels, frozenset(), draw, evaluate)


def _suite_derivative(cfg: RunConfig) -> SuiteResult:
    labels = ["deriv-ratio1-du", "deriv-ratio1-dv", "deriv-ratio2-du", "deriv-ratio2-dv"]

    def evaluate(sample):
        point = Point2(sample[0], sample[1])
        return list(zip(labels, derivative_formula_residuals(point, cfg.tau, cfg.series)))

    return _run_sampled("derivative", cfg, labels, frozenset(), _draw_point, evaluate)


def _suite_degeneration(cfg: RunConfig) -> SuiteResult:
    """Split locus attached to the configured diagonal: tau12 is forced to 0."""
    tau1, tau2 = cfg.tau.tau1, cfg.tau.tau2
    split_tau = PeriodMatrix(tau1, tau2, 0.0)
    ms = moduli_from_tau(split_tau, cfg.series)
    constant_predicted = 1.0 / ms.k0_sq
    split_labels = sorted(f"split-{c.label()}" for c in ALL_CHARACTERISTICS)
    inv_labels = [
        "x1x2-product",
        "complement-product",
        "third-factor",
        "collapse-k1sq",
        "collapse-k2sq",
        "pair-match",
    ]
    labels = split_labels + inv_labels + ["constant-member-spread"]
    constants: list[tuple[complex, list[complex]]] = []

    def evaluate(sample):
        point = Point2(sample[0], sample[1])
        rows = sorted(splitting_residuals(point, tau1, tau2, cfg.series).items())
        inv, pair = degenerate_inversion(point, tau1, tau2, cfg.series)
        rows += [(label, inv[label]) for label in inv_labels]
        member = min((pair.x1, pair.x2), key=lambda x: abs(x - constant_predicted))
        constants.append((member, sample))
        return rows

    def finalize(extras):
        if not constants:
            return []
        base, _ = constants[0]
        extras["constant_member"] = base
        spread, point = 0.0, constants[0][1]
        for member, sample in constants[1:]:
            gap = abs(member - base) / (1.0 + abs(base))
            if gap > spread:
                spread, point = gap, sample
        return [("constant-member-spread", spread, point)]

    return _run_sampled(
        "degeneration", cfg, labels, frozenset(), _draw_point, evaluate, finalize=finalize
    )


def _suite_elliptic(cfg: RunConfig) -> SuiteResult:
    """Genus-1 theory at tau = tau1 of the config, plus fixed-integral checks."""
    tau = cfg.tau.tau1
    labels = [
        "elliptic-sq-1",
        "elliptic-sq-2",
        "elliptic-sq-3",
        "elliptic-null-quartic",
        "jacobi-sn-cn",
        "jacobi-dn",
        "sn-ode",
        "complete-tau-i",
        "complete-norm-i",
        "complete-tau-1.5i",
        "complete-norm-1.5i",
        "self-dual-modulus",
    ]

    def draw(stream):
        return [stream.next_complex(*_BOX)]

    def evaluate(sample):
        z = sample[0]
        rows = list(
            zip(
                ["elliptic-sq-1", "elliptic-sq-2", "elliptic-sq-3", "elliptic-null-quartic"],
                elliptic_identity_residuals(z, tau, cfg.series),
            )
        )
        sn, cn, dn, mod = jacobi_functions(z, tau, cfg.series)
        rows.append(("jacobi-sn-cn", abs(sn * sn + cn * cn - 1.0)))
        rows.append(("jacobi-dn", abs(dn * dn + mod.k_sq * sn * sn - 1.0)))
        rows.append(("sn-ode", sn_ode_residual(z, tau, cfg.series, h=cfg.fd_step)))
        return rows

    def finalize(extras):
        out = []
        for t, tag in ((1j, "i"), (1.5j, "1.5i")):
            res = complete_integral_residuals(t, cfg.series)
            out.append((f"complete-tau-{tag}", res[0], [t]))
            out.append((f"complete-norm-{tag}", res[1], [t]))
        mod_i = elliptic_modulus(1j, cfg.series)
        extras["modulus_sq_at_i"] = mod_i.k_sq
        out.append(("self-dual-modulus", abs(mod_i.k_sq - 0.5), [1j]))
        return out

    return _run_sampled(
        "elliptic", cfg, labels, frozenset(["sn-ode"]), draw, evaluate, finalize=finalize
    )


_SUITE_RUNNERS = {
    "riemann": _suite_riemann,
    "fundamental": _suite_fundamental,
    "moduli": _suite_moduli,
    "parameterizations": _suite_parameterizations,
    "flow": _suite_flow,
    "addition": _suite_addition,
    "derivative": _suite_derivative,
    "degeneration": _suite_degeneration,
    "elliptic": _suite_elliptic,
}


def run_suites(config: RunConfig) -> Report:
    config.validate()
    selected = [name for name in SUITE_ORDER if name in config.suites]
    results = [_SUITE_RUNNERS[name](config) for name in selected]
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


_CONFIG_KEYS = {
    "tau1",
    "tau2",
    "tau12",
    "seed",
    "samples",
    "tol_identity",
    "tol_fd",
    "fd_step",
    "series_tol",
    "max_radius",
    "suites",
}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` file, UTF-8, `#` comments; returns raw strings."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
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


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ConfigInvalid(f"{name} must be an integer, got {text!r}") from exc


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigInvalid(f"{name} must be a number, got {text!r}") from exc


def config_from_sources(
    file_values: dict[str, str] | None = None,
    tau1: complex | None = None,
    tau2: complex | None = None,
    tau12: complex | None = None,
    seed: int | None = None,
    samples: int | None = None,
    suites: list[str] | None = None,
) -> RunConfig:
    """Merge defaults, config-file values, and flag overrides (flags win)."""
    fv = dict(file_values or {})

    def file_complex(key: str, default: complex) -> complex:
        return parse_complex_pair(fv[key]) if key in fv else default

    t1 = tau1 if tau1 is not None else file_complex("tau1", DEFAULT_TAU.tau1)
    t2 = tau2 if tau2 is not None else file_complex("tau2", DEFAULT_TAU.tau2)
    t12 = tau12 if tau12 is not None else file_complex("tau12", DEFAULT_TAU.tau12)
    tau = PeriodMatrix(t1, t2, t12)

    cfg_seed = seed if seed is not None else _parse_int("seed", fv.get("seed", "0"))
    cfg_samples = (
        samples if samples is not None else _parse_int("samples", fv.get("samples", "100"))
    )
    try:
        series = SeriesControl(
            tol=_parse_float("series_tol", fv.get("series_tol", "1e-14")),
            max_radius=_parse_int("max_radius", fv.get("max_radius", "64")),
        )
    except ValueError as exc:
        raise ConfigInvalid(f"series settings: {exc}") from exc
    if suites is not None:
        requested = list(suites)
    elif "suites" in fv:
        requested = [s.strip() for s in fv["suites"].split(",") if s.strip()]
    else:
        requested = list(SUITE_ORDER)
    unknown = [s for s in requested if s not in SUITE_ORDER]
    if unknown:
        raise ConfigInvalid(f"unknown suites: {unknown}; known: {list(SUITE_ORDER)}")
    ordered = tuple(name for name in SUITE_ORDER if name in requested)

    cfg = RunConfig(
        tau=tau,
        seed=cfg_seed,
        samples=cfg_samples,
        tol_identity=_parse_float("tol_identity", fv.get("tol_identity", "1e-8")),
        tol_fd=_parse_float("tol_fd", fv.get("tol_fd", "1e-5")),
        fd_step=_parse_float("fd_step", fv.get("fd_step", "1e-5")),
        series=series,
        suites=ordered,
    )
    cfg.validate()
    return cfg


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x}")
    return format(x, ".17g")


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unserializable value {obj!r}")


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_json_dumps(value, indent + 1)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, complex, str)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(_json_value(v) for v in obj) + "]"
        parts = [f"{inner}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_value(obj)


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
