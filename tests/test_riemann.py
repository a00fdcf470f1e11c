"""Quadruple transform, the eight product relations, fundamental identities."""

import numpy as np

from conftest import brute_theta2, draw_points

from g2theta import riemann
from g2theta.moduli import moduli_consistency_residuals
from g2theta.riemann import (
    Quadruple,
    fundamental_identity_residuals,
    riemann_relation_residuals,
    riemann_transform,
)
from g2theta.theta import DEFAULT_TAU, HalfCharacteristic, Point2, curve_data

CD = curve_data(DEFAULT_TAU)
ORIGIN = Point2(0.0 + 0.0j, 0.0 + 0.0j)
ZEROS = Quadruple((ORIGIN, ORIGIN, ORIGIN, ORIGIN))

S = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)

GENERIC = Quadruple((
    Point2(0.3 - 0.1j, 0.05j),
    Point2(-0.2 + 0.0j, 0.4 + 0.0j),
    Point2(0.11 + 0.02j, -0.3 + 0.0j),
    Point2(0.25 + 0.0j, 0.125 - 0.06j),
))


def _products(q):
    """M, M', M'' and M''' over the quadruple, as the relations read them."""
    return riemann._products(CD.values_at(riemann._PRODUCT_CHARS, q.points))


def _draw_quadruples(seed, label, count):
    out = []
    for chunk in range(count):
        pts = draw_points(seed, f"{label}-{chunk}", 4)
        out.append(Quadruple(tuple(pts)))
    return out


def test_transform_reference_vector():
    q = Quadruple((
        Point2(1.0, 0.0), Point2(2.0, 0.0), Point2(3.0, 0.0), Point2(4.0, 0.0),
    ))
    qt = riemann_transform(q)
    assert [p.u for p in qt.points] == [5.0, -2.0, -1.0, 0.0]
    assert all(p.v == 0.0 for p in qt.points)


def test_transform_fixed_point():
    u, v = 0.37 - 0.12j, -0.21 + 0.08j
    q = Quadruple((Point2(u, v), Point2(u, v), Point2(0.0, 0.0), Point2(0.0, 0.0)))
    qt = riemann_transform(q)
    for a, b in zip(q.points, qt.points):
        assert a.u == b.u and a.v == b.v


def test_transform_is_involution():
    twice = riemann_transform(riemann_transform(GENERIC))
    for a, b in zip(GENERIC.points, twice.points):
        assert abs(a.u - b.u) < 1e-15
        assert abs(a.v - b.v) < 1e-15
    # the scaled matrix squares to 4I
    assert np.array_equal(S @ S, 4.0 * np.eye(4))


def test_products_at_zero_quadruple():
    def nul(bits):
        return curve_data(DEFAULT_TAU).nulls[bits]

    m, _, _, m3 = _products(ZEROS)
    assert abs(m - (nul((0, 0, 0, 0)) ** 4 + nul((0, 1, 0, 0)) ** 4)) < 1e-14
    assert abs(m3 - (nul((0, 0, 1, 0)) ** 4 + nul((0, 1, 1, 0)) ** 4)) < 1e-14


def test_product_matches_brute_force():
    got = _products(GENERIC)[1]
    ref = 0.0 + 0.0j
    for bits in ((1, 0, 0, 0), (1, 1, 0, 0)):
        prod = 1.0 + 0.0j
        for p in GENERIC.points:
            prod *= brute_theta2(HalfCharacteristic(*bits), p, DEFAULT_TAU)
        ref += prod
    assert abs(got - ref) / max(1.0, abs(ref)) < 1e-12


def test_relations_at_zero_quadruple():
    assert max(riemann_relation_residuals(CD, [ZEROS])[0]) < 1e-11


def test_relations_at_seeded_quadruples():
    rows = riemann_relation_residuals(CD, _draw_quadruples(11, "relations", 25))
    assert max(max(r) for r in rows) < 1e-10


def test_relation_roundtrip():
    # applying the transform twice at the product level returns the start
    m = np.array(_products(GENERIC))
    mt = np.array(_products(riemann_transform(GENERIC)))
    back = S @ (S @ m) / 4.0
    scale = 1.0 + np.abs(m).max()
    assert np.abs(back - m).max() / scale < 1e-14
    assert np.abs(2.0 * m - S @ mt).max() / scale < 1e-12
    assert np.abs(2.0 * mt - S @ m).max() / scale < 1e-12


def test_products_even_under_negation():
    neg = Quadruple(tuple(Point2(-p.u, -p.v) for p in GENERIC.points))
    for a, b in zip(_products(GENERIC), _products(neg), strict=True):
        assert abs(a - b) / max(1.0, abs(a)) < 1e-12
    res_pos, res_neg = riemann_relation_residuals(CD, [GENERIC, neg])
    assert max(abs(a - b) for a, b in zip(res_pos, res_neg)) < 1e-12


def test_fundamental_identities_at_origin_and_seeded_points():
    assert max(fundamental_identity_residuals(CD, [ORIGIN])[0]) < 1e-11
    rows = fundamental_identity_residuals(CD, draw_points(13, "fundamental", 20))
    assert max(max(r) for r in rows) < 1e-10


def test_third_identity_reduces_to_null_sum_at_origin():
    # at the origin the third identity and the third null sum rule coincide
    assert fundamental_identity_residuals(CD, [ORIGIN])[0][2] < 1e-12
    rows = dict(moduli_consistency_residuals(DEFAULT_TAU))
    assert rows["null-sum-3"] < 1e-12

    def nul2(bits):
        return CD.nulls[bits] ** 2

    lhs = nul2((0, 0, 0, 1)) * nul2((0, 0, 0, 0))
    rhs = nul2((0, 0, 1, 1)) * nul2((0, 0, 1, 0)) + nul2((1, 0, 0, 1)) * nul2((1, 0, 0, 0))
    assert abs(lhs - rhs) / (1.0 + abs(lhs)) < 1e-12


def test_fundamental_identity_survives_half_period_shift():
    base = Point2(0.21 - 0.09j, -0.13 + 0.11j)
    shifted = Point2(
        base.u + DEFAULT_TAU.tau1 / 2.0, base.v + DEFAULT_TAU.tau12 / 2.0
    )
    assert max(fundamental_identity_residuals(CD, [shifted])[0]) < 1e-10
