"""Two-point recovery from theta ratios, the 15 ratio parameterizations and
the three unit sums."""

from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import DIVISOR_U, DIVISOR_V, draw_points

import g2theta.inversion as inversion
from g2theta.errors import (
    CoincidentPoints,
    DivisionByZeroModulus,
    SingularDenominator,
)
from g2theta.inversion import (
    PARAMETERIZATION_LABELS,
    parameterization_residuals,
    recover_pair,
)
from g2theta.moduli import moduli_from_tau
from g2theta.rng import SampleStream
from g2theta.theta import DEFAULT_TAU, CurveData, PeriodMatrix, Point2, curve_data

ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)
DIVISOR_POINT = Point2(DIVISOR_U, DIVISOR_V)


def f5(x, ms):
    """x (1 - x) (1 - k0^2 x) (1 - k1^2 x) (1 - k2^2 x), multiplied left to right
    as the pair recovery does."""
    return x * (1.0 - x) * (1.0 - ms.k0_sq * x) * (1.0 - ms.k1_sq * x) * (1.0 - ms.k2_sq * x)


def _symmetric_functions(point, tau):
    """s1 = x1 + x2 and s2 = x1 x2 at the point, from the four thetas
    recover_pair reads and the curve's symmetric_factors."""
    cd = curve_data(tau)
    [(ref, num, comp, _)] = inversion._pair_tables(cd, (point,))
    (kkk, factor), den = cd.symmetric_factors, ref * ref
    s2 = num**2 / (kkk * den)
    return 1.0 + s2 - factor * comp**2 / den, s2


def _first_stage(point, tau):
    """x1, x2 and the squared reference theta at the point: the pair path's first stage."""
    cd = curve_data(tau)
    return inversion._pair_xs(cd, inversion._pair_tables(cd, (point,))[0], point)


def _hex(pair):
    """A PointPair's bits: float.hex of every real and imaginary part, and the sign class."""
    parts = (part for z in pair[:4] for part in (z.real, z.imag))
    return (*map(float.hex, parts), pair.sign_flipped)


def test_recover_pair_alone_gives_the_pairs_of_a_batch():
    # points of the benchmark's invert box, |Re| <= 0.5 and |Im| <= 0.6, of
    # truncation radius 4 and 5 at DEFAULT_TAU: recover_pair's one-point grid,
    # certified on Python floats, against parameterization_residuals' batch,
    # on grids of each radius certified on arrays
    stream = SampleStream(29, "invert-box")
    points = [Point2(*stream.draw(1, [(-0.5, 0.5, -0.6, 0.6)] * 2)[0]) for _ in range(24)]
    cd = curve_data(DEFAULT_TAU)
    assert sorted({cd._radius(point) for point in points}) == [4, 5]
    batch = [_hex(pair) for _, pair in parameterization_residuals(cd, points)]
    assert [_hex(recover_pair(point, DEFAULT_TAU)) for point in points] == batch


def test_quintic_reference_values():
    curve = moduli_from_tau(DEFAULT_TAU)._replace(k0_sq=2.0 + 0.0j, k1_sq=3.0 + 0.0j, k2_sq=5.0 + 0.0j)
    assert f5(2.0, curve) == 270.0
    for root in (0.0, 1.0, 0.5, 1.0 / 3.0, 0.2):
        assert abs(f5(root, curve)) < 1e-14


def test_origin_recovers_branch_point_pair():
    ms = moduli_from_tau(DEFAULT_TAU)
    s1, s2 = _symmetric_functions(ORIGIN, DEFAULT_TAU)
    assert abs(s2) < 1e-12
    assert abs(s1 - 1.0 / ms.k0_sq) < 1e-12
    pair = recover_pair(ORIGIN, DEFAULT_TAU)
    assert abs(pair.x2) < 1e-12
    assert abs(pair.x1 * ms.k0_sq - 1.0) < 1e-12
    # both members sit on branch points, so the sigma values are noise-level
    assert abs(pair.sigma1) < 1e-7
    assert abs(pair.sigma2) < 1e-7


@pytest.mark.xfail(
    strict=True,
    reason="theta[10;01] is even, so (1-x1)(1-x2) stays nonzero at the origin "
    "and the second recovered member is 1/k0^2, not 1",
)
def test_origin_pair_is_zero_and_one():
    pair = recover_pair(ORIGIN, DEFAULT_TAU)
    members = sorted((pair.x1, pair.x2), key=abs)
    assert abs(members[0]) < 1e-12
    assert abs(members[1] - 1.0) < 1e-12


def test_recovery_deterministic_and_canonically_ordered():
    pt = Point2(0.21 - 0.09j, -0.13 + 0.11j)
    a = recover_pair(pt, DEFAULT_TAU)
    b = recover_pair(pt, DEFAULT_TAU)
    assert (a.x1, a.x2, a.sigma1, a.sigma2, a.sign_flipped) == (
        b.x1, b.x2, b.sigma1, b.sigma2, b.sign_flipped,
    )
    assert (a.x1.real, a.x1.imag) > (a.x2.real, a.x2.imag)


@given(
    ur=st.floats(-0.5, 0.5), ui=st.floats(-0.2, 0.2),
    vr=st.floats(-0.5, 0.5), vi=st.floats(-0.2, 0.2),
)
@settings(max_examples=25, deadline=None)
def test_pair_consistent_with_symmetric_functions(ur, ui, vr, vi):
    pt = Point2(complex(ur, ui), complex(vr, vi))
    try:
        pair = recover_pair(pt, DEFAULT_TAU)
    except (SingularDenominator, CoincidentPoints):
        assume(False)
        return
    s1, s2 = _symmetric_functions(pt, DEFAULT_TAU)
    ms = moduli_from_tau(DEFAULT_TAU)
    scale = 1.0 + abs(pair.x1) + abs(pair.x2)
    assert abs(pair.x1 + pair.x2 - s1) < 1e-10 * scale
    assert abs(pair.x1 * pair.x2 - s2) < 1e-10 * scale**2
    for x, sg in ((pair.x1, pair.sigma1), (pair.x2, pair.sigma2)):
        val = f5(x, ms)
        assert abs(sg * sg - val) < 1e-10 * (1.0 + abs(val))


def _labeled_rows(point, tau):
    """The parameterization residuals at the point, keyed by label, in order."""
    [(rows, _)] = parameterization_residuals(curve_data(tau), [point])
    return list(zip(PARAMETERIZATION_LABELS, rows, strict=True))


def _worst(rows, prefix):
    """The largest residual among the rows whose label starts with prefix."""
    return max(value for label, value in rows if label.startswith(prefix))


def test_parameterizations_at_seeded_points():
    worst_param = 0.0
    worst_unit = 0.0
    for pt in draw_points(17, "inversion", 20):
        rows = _labeled_rows(pt, DEFAULT_TAU)
        worst_param = max(worst_param, _worst(rows, "param-"))
        worst_unit = max(worst_unit, _worst(rows, "unit-sum-"))
    assert worst_param < 1e-8
    assert worst_unit < 1e-10
    # fifteen ratios, then the three unit sums
    assert PARAMETERIZATION_LABELS[15:] == ("unit-sum-1", "unit-sum-2", "unit-sum-3")


def test_first_parameterization_vanishes_at_origin():
    rows = _labeled_rows(ORIGIN, DEFAULT_TAU)
    assert dict(rows)["param-01"] < 1e-12
    assert _worst(rows, "unit-sum-") < 1e-10


def test_near_block_diagonal_tau():
    tau = PeriodMatrix(1.1j, 1.3j, 0.01j)
    pt = Point2(0.11 - 0.04j, -0.07 + 0.06j)
    rows = _labeled_rows(pt, tau)
    assert _worst(rows, "param-") < 1e-8
    assert _worst(rows, "unit-sum-") < 1e-10


def test_block_diagonal_collapse_pins_one_member():
    # at tau12 = 0 one member freezes at the collapsed double root 1/k0^2
    # with sigma = 0; products touching the triple factor lose meaning there,
    # but the first two parameterizations and the unit sums stay exact
    tau = PeriodMatrix(1.1j, 1.3j, 0.0)
    ms = moduli_from_tau(tau)
    pt = Point2(0.11 - 0.04j, -0.07 + 0.06j)
    pair = recover_pair(pt, tau)
    assert abs(pair.x1 * ms.k0_sq - 1.0) < 1e-12
    assert abs(pair.sigma1) < 1e-12
    rows = _labeled_rows(pt, tau)
    assert dict(rows)["param-01"] < 1e-12
    assert dict(rows)["param-02"] < 1e-12
    assert _worst(rows, "unit-sum-") < 1e-12


def test_divisor_point_raises_everywhere():
    for fn in (_first_stage, recover_pair, _labeled_rows):
        with pytest.raises(SingularDenominator):
            fn(DIVISOR_POINT, DEFAULT_TAU)


def test_coincident_pair_guard(monkeypatch):
    # a discriminant of exactly zero cannot be produced by honest series
    # evaluation (noise keeps it above threshold), so feed one in directly:
    # the thetas (1, 1, 0, 0) on a curve whose symmetric_factors are (1, 1)
    # give s1 = 2 and s2 = 1
    curve = SimpleNamespace(
        null_scale=1.0,
        symmetric_factors=(1.0 + 0.0j, 1.0 + 0.0j),
        moduli=moduli_from_tau(DEFAULT_TAU),
        values_at=lambda chars, points: [[1.0 + 0.0j, 1.0 + 0.0j, 0j, 0j]],
    )
    monkeypatch.setattr(inversion, "curve_data", lambda tau, ctrl: curve)
    with pytest.raises(CoincidentPoints):
        inversion.recover_pair(Point2(0.1, 0.1), DEFAULT_TAU)


def test_vanishing_modulus_root_in_a_denominator_is_typed(monkeypatch):
    # k01 sits only in parameterization denominators, so the pair is still
    # recovered and the table must refuse the zero root with a typed error
    ms = moduli_from_tau(DEFAULT_TAU)._replace(k01=0j)
    monkeypatch.setattr(CurveData, "moduli", property(lambda cd: ms))
    with pytest.raises(DivisionByZeroModulus):
        parameterization_residuals(curve_data(DEFAULT_TAU), [Point2(0.1, 0.1)])
    # the table is built after the first pair, so a point error raises first
    with pytest.raises(SingularDenominator):
        parameterization_residuals(curve_data(DEFAULT_TAU), [DIVISOR_POINT, Point2(0.1, 0.1)])
