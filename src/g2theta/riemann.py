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

from collections import namedtuple

from .theta import CurveData, HalfCharacteristic, Point2

__all__ = [
    "Quadruple",
    "riemann_transform",
    "riemann_relation_residuals",
    "fundamental_identity_residuals",
]


class Quadruple(namedtuple("Quadruple", "points")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, points: tuple[Point2, Point2, Point2, Point2]):
        if len(points) != 4:
            raise ValueError("quadruple needs exactly 4 points")
        return super().__new__(cls, points)


# every characteristic a product reads: the pairs of M, M', M'' and M'''
_PRODUCT_CHARS = tuple(
    HalfCharacteristic(*bits)
    for bits in (
        (0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0),
        (1, 0, 1, 0), (1, 1, 1, 0), (0, 0, 1, 0), (0, 1, 1, 0),
    )
)


def _s_rows(x0, x1, x2, x3) -> tuple:
    """The four rows of S = 2A, (1,1,1,1), (1,1,-1,-1), (1,-1,1,-1) and
    (1,-1,-1,1), applied to (x0, x1, x2, x3); S is its own inverse up to the
    factor 4 (S @ S == 4 I).

    Each row is summed left to right from an int 0, the fold of sum() over
    the weighted terms: for finite x, x + y and x - y have the bits of
    x + 1*y and x + (-1)*y, as a running sum from 0 is never -0.  Rows that
    begin alike share their first sums.
    """
    first = 0 + x0
    plus, minus = first + x1, first - x1
    return plus + x2 + x3, plus - x2 - x3, minus + x2 - x3, minus - x2 + x3


def riemann_transform(q: Quadruple) -> Quadruple:
    us, vs = zip(*q.points)
    nus, nvs = _s_rows(*us), _s_rows(*vs)
    return Quadruple(tuple([Point2(nu / 2.0, nv / 2.0) for nu, nv in zip(nus, nvs)]))


def _products(values) -> list[complex]:
    """Per variant pair, the sum over its two characteristics of the product
    over the points: values[i][k] is theta of characteristic k at point i,
    consecutive characteristics forming a pair.

    Each product runs left to right from 1 + 0j and each pair's sum from 0j.
    """
    prods = [(1.0 + 0.0j) * a * b * c * d for a, b, c, d in zip(*values)]
    return [0j + prods[k] + prods[k + 1] for k in range(0, len(prods), 2)]


def _relation_residuals(lhs_vec, rhs_vec) -> list[float]:
    """Residuals of 2*lhs_i = sum_j S_ij rhs_j, normalized per relation by
    1 + max(|2 lhs_i|, max_j |rhs_j|); the inner max, the same for every
    relation, is taken once, and the outer one inline, the first of equals
    kept as max() keeps it.  Each sum runs as _s_rows sums."""
    top = max(map(abs, rhs_vec))
    out = []
    for lhs, rhs in zip(lhs_vec, _s_rows(*rhs_vec)):
        lhs = 2.0 * lhs
        size = abs(lhs)
        out.append(abs(lhs - rhs) / (1.0 + (top if top > size else size)))
    return out


def riemann_relation_residuals(cd: CurveData, quads) -> list[list[float]]:
    """Eight residuals of each quadruple: the four forward relations, then
    the four inverse ones.  All the quadruples and their transforms are
    evaluated in one values_at call."""
    points = [p for q in quads for p in q.points + riemann_transform(q).points]
    values = cd.values_at(_PRODUCT_CHARS, points)
    out = []
    for i in range(0, len(values), 8):
        m = _products(values[i : i + 4])
        mt = _products(values[i + 4 : i + 8])
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


def fundamental_identity_residuals(cd: CurveData, points) -> list[list[float]]:
    """Residuals of the three four-term squared-theta identities at each
    point (u, v), from one values_at call.

    Each term's left-most factor, its null square (signed on the right-hand
    side), is taken once per batch, and the right-hand side is summed left
    to right from an int 0, as sum() summed it.
    """
    null_sq = cd.null_squares
    index = {c: i for i, c in enumerate(_FUNDAMENTAL_CHARS)}
    table = [
        (null_sq[n0], index[t0], *[(sign * null_sq[nb], index[tb]) for sign, nb, tb in rhs_terms])
        for (n0, t0), rhs_terms in _FUNDAMENTAL_TERMS
    ]
    out = []
    for values in cd.values_at(_FUNDAMENTAL_CHARS, points):
        th_sq = [value**2 for value in values]
        rows = []
        for n0, t0, (w1, t1), (w2, t2), (w3, t3) in table:
            lhs = n0 * th_sq[t0]
            r1, r2, r3 = w1 * th_sq[t1], w2 * th_sq[t2], w3 * th_sq[t3]
            scale = 1.0 + max(abs(lhs), max(abs(r1), abs(r2), abs(r3)))
            rows.append(abs(lhs - (0 + r1 + r2 + r3)) / scale)
        out.append(rows)
    return out
