"""Riemann transform on argument quadruples and the eight theta relations.

Four products of theta values over a quadruple of points,

    M   = prod theta[00;00](u_i, v_i) + prod theta[01;00](u_i, v_i)
    M'  = prod theta[10;00](u_i, v_i) + prod theta[11;00](u_i, v_i)
    M'' = prod theta[10;10](u_i, v_i) + prod theta[11;10](u_i, v_i)
    M'''= prod theta[00;10](u_i, v_i) + prod theta[01;10](u_i, v_i)

satisfy linear relations against the same products evaluated at the
transformed quadruple (u~, v~) = (A u, A v), where A is the orthogonal
involution (1/2)[[1,1,1,1],[1,1,-1,-1],[1,-1,1,-1],[1,-1,-1,1]].  With
S = 2A the relations read 2*(M, M', M'', M''') = S * (M~, M'~, M''~, M'''~)
and symmetrically with both sides swapped.

Also here: the three fundamental squared-theta identities in two variables
linking a product of nulls and theta values across four characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .theta import (
    CurveData,
    HalfCharacteristic,
    PeriodMatrix,
    Point2,
    SeriesControl,
    curve_data,
)

__all__ = [
    "Quadruple",
    "ProductVariant",
    "riemann_transform",
    "product_m",
    "riemann_relation_residuals",
    "fundamental_identity_residuals",
]


@dataclass(frozen=True)
class Quadruple:
    points: tuple[Point2, Point2, Point2, Point2]

    def __post_init__(self):
        if len(self.points) != 4:
            raise ValueError("quadruple needs exactly 4 points")


class ProductVariant(Enum):
    M = "M"
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"


_VARIANT_PAIRS = {
    ProductVariant.M: (HalfCharacteristic(0, 0, 0, 0), HalfCharacteristic(0, 1, 0, 0)),
    ProductVariant.M1: (HalfCharacteristic(1, 0, 0, 0), HalfCharacteristic(1, 1, 0, 0)),
    ProductVariant.M2: (HalfCharacteristic(1, 0, 1, 0), HalfCharacteristic(1, 1, 1, 0)),
    ProductVariant.M3: (HalfCharacteristic(0, 0, 1, 0), HalfCharacteristic(0, 1, 1, 0)),
}

_VARIANTS = (ProductVariant.M, ProductVariant.M1, ProductVariant.M2, ProductVariant.M3)
# every characteristic a product reads, variant pairs in _VARIANTS order
_PRODUCT_CHARS = tuple(c for t in _VARIANTS for c in _VARIANT_PAIRS[t])

# rows of 2A; its own inverse up to the factor 4 (S @ S == 4 I)
_S_ROWS = (
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
)


def riemann_transform(q: Quadruple) -> Quadruple:
    us = [p.u for p in q.points]
    vs = [p.v for p in q.points]
    new = []
    for row in _S_ROWS:
        nu = sum(w * x for w, x in zip(row, us)) / 2.0
        nv = sum(w * x for w, x in zip(row, vs)) / 2.0
        new.append(Point2(nu, nv))
    return Quadruple(tuple(new))


def _fold_products(values) -> complex:
    """Sum over characteristics of the product over points.

    values[i][k] is theta of the k-th characteristic of a variant pair at the
    i-th point of the quadruple.
    """
    total = 0.0 + 0.0j
    for k in (0, 1):
        prod = 1.0 + 0.0j
        for vals in values:
            prod *= vals[k]
        total += prod
    return total


def product_m(
    variant: ProductVariant,
    q: Quadruple,
    tau: PeriodMatrix,
    ctrl: SeriesControl = SeriesControl(),
) -> complex:
    return _fold_products(curve_data(tau, ctrl).values_at(_VARIANT_PAIRS[variant], q.points))


def _all_products(values) -> list[complex]:
    """The four products in _VARIANTS order from _PRODUCT_CHARS values per point."""
    return [
        _fold_products([vals[2 * j : 2 * j + 2] for vals in values])
        for j in range(len(_VARIANTS))
    ]


def _relation_residuals(lhs_vec, rhs_vec):
    """Residuals of 2*lhs_i = sum_j S_ij rhs_j, normalized per relation."""
    out = []
    for i, row in enumerate(_S_ROWS):
        lhs = 2.0 * lhs_vec[i]
        rhs = sum(w * m for w, m in zip(row, rhs_vec))
        scale = 1.0 + max(
            abs(lhs), max(abs(m) for m in rhs_vec)
        )
        out.append(abs(lhs - rhs) / scale)
    return out


def riemann_relation_residuals(
    q: Quadruple, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> list[float]:
    """Eight residuals: the four forward relations, then the four inverse ones."""
    return _riemann_relations(curve_data(tau, ctrl), (q,))[0]


def _riemann_relations(cd: CurveData, quads) -> list[list[float]]:
    """riemann_relation_residuals of each quadruple; all the quadruples and
    their transforms are evaluated in one values_at call."""
    points = [p for q in quads for p in q.points + riemann_transform(q).points]
    values = cd.values_at(_PRODUCT_CHARS, points)
    out = []
    for i in range(0, len(values), 8):
        m = _all_products(values[i : i + 4])
        mt = _all_products(values[i + 4 : i + 8])
        out.append(_relation_residuals(m, mt) + _relation_residuals(mt, m))
    return out


# each identity: null(n0)^2 th(t0)^2 = sum of signed null^2 th^2 terms
_FUNDAMENTAL_TERMS = (
    (
        ((0, 0, 0, 0), (0, 0, 0, 0)),
        (
            (1, (0, 0, 1, 0), (0, 0, 1, 0)),
            (1, (1, 0, 0, 0), (1, 0, 0, 0)),
            (1, (1, 1, 1, 1), (1, 1, 1, 1)),
        ),
    ),
    (
        ((0, 1, 0, 0), (0, 0, 0, 0)),
        (
            (1, (0, 1, 1, 0), (0, 0, 1, 0)),
            (1, (1, 1, 0, 0), (1, 0, 0, 0)),
            (1, (1, 1, 1, 1), (1, 0, 1, 1)),
        ),
    ),
    (
        ((0, 0, 0, 1), (0, 0, 0, 0)),
        (
            (1, (0, 0, 1, 1), (0, 0, 1, 0)),
            (1, (1, 0, 0, 1), (1, 0, 0, 0)),
            (-1, (1, 1, 1, 1), (1, 1, 1, 0)),
        ),
    ),
)
_FUNDAMENTAL_CHARS = tuple(
    HalfCharacteristic(*bits)
    for bits in dict.fromkeys(
        [t0 for (_, t0), _ in _FUNDAMENTAL_TERMS]
        + [tb for _, terms in _FUNDAMENTAL_TERMS for _, _, tb in terms]
    )
)


def fundamental_identity_residuals(
    point: Point2, tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> list[float]:
    """Residuals of the three four-term squared-theta identities at (u, v)."""
    return _fundamental_identities(curve_data(tau, ctrl), (point,))[0]


def _fundamental_identities(cd: CurveData, points) -> list[list[float]]:
    """fundamental_identity_residuals at each point, from one values_at call."""
    null_sq = {bits: value**2 for bits, value in cd.nulls.items()}
    out = []
    for values in cd.values_at(_FUNDAMENTAL_CHARS, points):
        th_sq = {c.bits: value**2 for c, value in zip(_FUNDAMENTAL_CHARS, values)}
        rows = []
        for (n0, t0), rhs_terms in _FUNDAMENTAL_TERMS:
            lhs = null_sq[n0] * th_sq[t0]
            terms = [sign * null_sq[nb] * th_sq[tb] for sign, nb, tb in rhs_terms]
            rhs = sum(terms)
            scale = 1.0 + max(abs(lhs), max(abs(t) for t in terms))
            rows.append(abs(lhs - rhs) / scale)
        out.append(rows)
    return out
