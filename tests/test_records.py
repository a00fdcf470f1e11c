"""The record types: how they are built, printed, compared and validated.

Each record is built positionally and by keyword, and its repr is pinned as
text, because error messages embed it.  Records are immutable; their
defaults are immutable too, except SuiteResult.extras, which is a fresh
dict for each result.
"""

import pytest

from g2theta import degeneration, flow, harness, inversion, moduli, riemann, theta
from g2theta.errors import DegenerateTau

P = theta.Point2(1 + 2j, -0.5j)
P_TEXT = "Point2(u=(1+2j), v=(-0-0.5j))"
TAU = {"tau1": 0.1 + 1.1j, "tau2": -0.15 + 1.3j, "tau12": 0.05 + 0.25j}
TAU_TEXT = "PeriodMatrix(tau1=(0.1+1.1j), tau2=(-0.15+1.3j), tau12=(0.05+0.25j))"
SERIES_TEXT = "SeriesControl(tol=1e-14, max_radius=64)"
SUITES_TEXT = (
    "('riemann', 'fundamental', 'moduli', 'parameterizations', 'flow', 'addition', "
    "'derivative', 'degeneration', 'elliptic')"
)
CONFIG_TEXT = (
    f"RunConfig(tau={TAU_TEXT}, seed=0, samples=1, tol_identity=1e-08, tol_fd=1e-05, "
    f"fd_step=1e-05, series={SERIES_TEXT}, suites={SUITES_TEXT})"
)
MODULI_NAMES = (
    "k0_sq k1_sq k2_sq kp0_sq kp1_sq kp2_sq k01_sq k02_sq k12_sq k0 k1 k2 kp0 kp1 kp2 k01 k02 k12".split()
)
FLOW_NAMES = "a_u b_u c_v d_v A B C D P Q R S det".split()


def _evaluate(cfg, batch):
    return []


RESULT = {
    "name": "a", "passed": True, "tolerance": 1e-8, "fd_tolerance": 1e-5, "samples_run": 3,
    "skipped": 0, "skip_reasons": {}, "max_residual": 0.0, "mean_residual": 0.0,
    "worst_check": "", "worst_point": [], "checks": [], "extras": {"k": 1j},
}
RESULT_TEXT = (
    "SuiteResult(name='a', passed=True, tolerance=1e-08, fd_tolerance=1e-05, samples_run=3, "
    "skipped=0, skip_reasons={}, max_residual=0.0, mean_residual=0.0, worst_check='', "
    "worst_point=[], checks=[], extras={'k': 1j})"
)

# (type, fields by name in field order, repr text, hashable)
RECORDS = [
    (theta.Point2, {"u": 1 + 2j, "v": -0.5j}, P_TEXT, True),
    (theta.PeriodMatrix, TAU, TAU_TEXT, True),
    (theta.SeriesControl, {"tol": 1e-14, "max_radius": 64}, SERIES_TEXT, True),
    (theta._LatticeForm, {"quad": None, "tau_factor": None}, "_LatticeForm(quad=None, tau_factor=None)", True),
    (
        moduli.ModuliSet,
        dict(zip(MODULI_NAMES, range(18))),
        "ModuliSet(" + ", ".join(f"{name}={i}" for i, name in enumerate(MODULI_NAMES)) + ")",
        True,
    ),
    (inversion.CurveSpec, {"k0_sq": 1, "k1_sq": 2, "k2_sq": 3j}, "CurveSpec(k0_sq=1, k1_sq=2, k2_sq=3j)", True),
    (inversion.SymmetricFunctions, {"s1": 1j, "s2": 2}, "SymmetricFunctions(s1=1j, s2=2)", True),
    (
        inversion.PointPair,
        {"x1": 1, "x2": 2, "sigma1": 3, "sigma2": 4, "sign_flipped": True},
        "PointPair(x1=1, x2=2, sigma1=3, sigma2=4, sign_flipped=True)",
        True,
    ),
    (
        degeneration.EllipticModulus,
        {"k_sq": 1, "kp_sq": 2, "k": 3, "kp": 4},
        "EllipticModulus(k_sq=1, kp_sq=2, k=3, kp=4)",
        True,
    ),
    (
        flow.FlowConstants,
        dict(zip(FLOW_NAMES, range(13))),
        "FlowConstants(" + ", ".join(f"{name}={i}" for i, name in enumerate(FLOW_NAMES)) + ")",
        True,
    ),
    (riemann.Quadruple, {"points": (P, P, P, P)}, f"Quadruple(points=({P_TEXT}, {P_TEXT}, {P_TEXT}, {P_TEXT}))", True),
    (
        harness._Suite,
        {
            "boxes": ((0.0, 1.0, 0.0, 1.0),), "labels": ("a",), "evaluate": _evaluate,
            "fd_labels": frozenset(), "final_labels": (), "finalize": None,
            "config_tau_first": False, "reads_curve": False,
        },
        f"_Suite(boxes=((0.0, 1.0, 0.0, 1.0),), labels=('a',), evaluate={_evaluate!r}, "
        "fd_labels=frozenset(), final_labels=(), finalize=None, config_tau_first=False, reads_curve=False)",
        True,
    ),
    (
        harness.RunConfig,
        {
            "tau": theta.DEFAULT_TAU, "seed": 0, "samples": 1, "tol_identity": 1e-8, "tol_fd": 1e-5,
            "fd_step": 1e-5, "series": theta.SeriesControl(), "suites": harness.SUITE_ORDER,
        },
        CONFIG_TEXT,
        True,
    ),
    (harness.SuiteResult, RESULT, RESULT_TEXT, False),
    (
        harness.Report,
        {"version": "0.2.0", "config": harness.RunConfig(samples=1), "suites": [], "passed": True},
        f"Report(version='0.2.0', config={CONFIG_TEXT}, suites=[], passed=True)",
        False,
    ),
]
IDS = [record[0].__name__ for record in RECORDS]
# a field of each record and another valid value for it
ALTERED = {
    theta.Point2: ("v", 0.5j),
    theta.PeriodMatrix: ("tau12", 0.1j),
    theta.SeriesControl: ("max_radius", 65),
    theta._LatticeForm: ("quad", 0j),
    moduli.ModuliSet: ("k12", 0),
    inversion.CurveSpec: ("k2_sq", 3),
    inversion.SymmetricFunctions: ("s1", -1j),
    inversion.PointPair: ("sign_flipped", False),
    degeneration.EllipticModulus: ("kp", 5),
    flow.FlowConstants: ("det", 0),
    riemann.Quadruple: ("points", (P, P, P, theta.Point2(0j, 0j))),
    harness._Suite: ("reads_curve", True),
    harness.RunConfig: ("seed", 1),
    harness.SuiteResult: ("extras", {}),
    harness.Report: ("passed", False),
}


@pytest.mark.parametrize(("cls", "named", "text", "hashable"), RECORDS, ids=IDS)
def test_a_record_is_built_by_position_or_by_keyword_and_prints_as_before(cls, named, text, hashable):
    by_position, by_keyword = cls(*named.values()), cls(**named)
    assert repr(by_position) == repr(by_keyword) == text
    for name, value in named.items():
        assert getattr(by_position, name) is value


@pytest.mark.parametrize(("cls", "named", "text", "hashable"), RECORDS, ids=IDS)
def test_records_compare_and_hash_by_their_fields(cls, named, text, hashable):
    record = cls(**named)
    assert record == cls(*named.values())
    name, value = ALTERED[cls]
    assert record != cls(**{**named, name: value})
    if hashable:
        assert hash(record) == hash(cls(**named)) == hash(tuple(named.values()))
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize(("cls", "named", "text", "hashable"), RECORDS, ids=IDS)
def test_a_record_refuses_assignment(cls, named, text, hashable):
    record = cls(**named)
    for name, value in named.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert repr(record) == text


def test_defaults_are_filled_in_and_no_result_shares_its_extras():
    assert theta.SeriesControl(tol=1e-12) == theta.SeriesControl(1e-12, 64)
    assert harness.RunConfig(samples=3).tau == theta.DEFAULT_TAU
    assert harness.RunConfig(samples=3).series == theta.SeriesControl()
    suite = harness._Suite((), (), _evaluate)
    assert (suite.fd_labels, suite.final_labels, suite.finalize) == (frozenset(), (), None)
    assert (suite.config_tau_first, suite.reads_curve) == (False, False)
    twelve = {name: value for name, value in RESULT.items() if name != "extras"}
    first, second = harness.SuiteResult(**twelve), harness.SuiteResult(*twelve.values())
    assert first.extras == second.extras == {}
    first.extras["k"] = 1
    assert second.extras == {} and harness.SuiteResult(**twelve).extras == {}


@pytest.mark.parametrize(
    ("tau", "message"),
    [
        ((float("nan"), 1j, 0), "period matrix entries must be finite, got PeriodMatrix(tau1=nan, tau2=1j, tau12=0)"),
        ((1j, complex("inf"), 0), "period matrix entries must be finite, got PeriodMatrix(tau1=1j, tau2=(inf+0j), tau12=0)"),
        ((1j, 1j, 2j), "Im tau not positive definite: Im tau1=1.0, det=-3.0"),
        ((-1j, 1j, 0), "Im tau not positive definite: Im tau1=-1.0, det=-1.0"),
    ],
)
def test_a_period_matrix_is_validated_with_its_messages(tau, message):
    named = dict(zip(TAU, tau))
    for build in (
        lambda: theta.PeriodMatrix(*tau),
        lambda: theta.PeriodMatrix(**named),
        lambda: theta.PeriodMatrix(**TAU)._replace(**named),
    ):
        with pytest.raises(DegenerateTau) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize(
    ("named", "message"),
    [
        ({"tol": 0.0}, "tol must lie in (0, 1), got 0.0"),
        ({"tol": 1.0}, "tol must lie in (0, 1), got 1.0"),
        ({"tol": float("nan")}, "tol must lie in (0, 1), got nan"),
        ({"max_radius": 3}, "max_radius must be at least 4"),
    ],
)
def test_a_series_control_is_validated_with_its_messages(named, message):
    for build in (lambda: theta.SeriesControl(**named), lambda: theta.SeriesControl()._replace(**named)):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_characteristics_are_validated_when_replaced_too():
    with pytest.raises(ValueError, match="characteristic bit a must be 0 or 1"):
        theta.HalfCharacteristic(0, 0, 0, 0)._replace(a=2)
    with pytest.raises(ValueError, match="characteristic entries must be bits"):
        degeneration.Genus1Characteristic(0, 1)._replace(b=5)
    assert theta.HalfCharacteristic(0, 0, 0, 0)._replace(d=1) == (0, 0, 0, 1)


@pytest.mark.parametrize("points", [(P, P, P), (P,) * 5, ()])
def test_a_quadruple_holds_exactly_four_points(points):
    for build in (lambda: riemann.Quadruple(points), lambda: riemann.Quadruple((P,) * 4)._replace(points=points)):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == "quadruple needs exactly 4 points"
    assert riemann.Quadruple(points=(P,) * 4).points == (P,) * 4
