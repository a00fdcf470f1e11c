"""Moduli of the genus-2 curve from theta-nulls, and their consistency relations.

The curve y^2 = x(1-x)(1-k0^2 x)(1-k1^2 x)(1-k2^2 x) has squared moduli
expressible as ratios of squared even theta-nulls, e.g.

    k0^2 = n[1000] n[1100] / (n[0000] n[0100])        n[.] = theta-null^2

with complements k'_i^2 = 1 - k_i^2 and differences k_ij^2 = k_i^2 - k_j^2
also given directly by null products.  Inversely, each of the nine squared
null ratios theta^2[.](0)/theta^2[0000](0) is a product of moduli roots.

Each root recorded here is signed as the quotient of unsquared theta-nulls
whose square defines it (k0 = theta[1000] theta[1100] / (theta[0000]
theta[0100]), and so on), not taken on the principal branch: near the
negative real axis, where Im tau is small, the principal root of a square
can have the opposite sign.  The nine root-product formulas for the null
ratios then hold with sign +1; the sign is still detected against the
directly computed ratio and reported, never hidden (see null_ratio_signs).
"""

from __future__ import annotations

import cmath
from collections import namedtuple

from .errors import DegenerateTau, DivisionByZeroModulus
from .theta import (
    EVEN_CHARACTERISTICS,
    CurveData,
    PeriodMatrix,
    SeriesControl,
    _rel,
    curve_data,
)

__all__ = [
    "ModuliSet",
    "moduli_from_tau",
    "null_ratios_from_moduli",
    "null_ratio_signs",
    "moduli_consistency_residuals",
    "branch_points_collapse",
    "require_five_branch_points",
    "CONSISTENCY_LABELS",
    "COLLAPSE_TOL",
    "RATIO_CHARACTERISTICS",
]


class ModuliSet(
    namedtuple(
        "ModuliSet",
        "k0_sq k1_sq k2_sq kp0_sq kp1_sq kp2_sq k01_sq k02_sq k12_sq k0 k1 k2 kp0 kp1 kp2 k01 k02 k12",
    )
):
    """The nine squared moduli, then their nine roots, each group in the
    order k0 k1 k2 k'0 k'1 k'2 k01 k02 k12."""

    __slots__ = ()


def moduli_from_tau(tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()) -> ModuliSet:
    """The moduli of tau, built once per period matrix (CurveData.moduli)."""
    return curve_data(tau, ctrl).moduli


# each modulus root as a quotient of even theta-nulls, (numerator, denominator)
# positions in EVEN_CHARACTERISTICS, in ModuliSet field order: the squared
# modulus is the same quotient of squared nulls
_ROOT_QUOTIENTS = tuple(
    tuple(tuple(map(EVEN_CHARACTERISTICS.index, side)) for side in quotient)
    for quotient in (
        (((1, 0, 0, 0), (1, 1, 0, 0)), ((0, 0, 0, 0), (0, 1, 0, 0))),  # k0
        (((1, 0, 0, 1), (1, 1, 0, 0)), ((0, 0, 0, 1), (0, 1, 0, 0))),  # k1
        (((1, 0, 0, 1), (1, 0, 0, 0)), ((0, 0, 0, 1), (0, 0, 0, 0))),  # k2
        (((0, 0, 1, 0), (0, 1, 1, 0)), ((0, 0, 0, 0), (0, 1, 0, 0))),  # k'0
        (((0, 0, 1, 1), (0, 1, 1, 0)), ((0, 0, 0, 1), (0, 1, 0, 0))),  # k'1
        (((0, 0, 1, 1), (0, 0, 1, 0)), ((0, 0, 0, 1), (0, 0, 0, 0))),  # k'2
        (((1, 1, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)), ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1))),  # k01
        (((1, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 0)), ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))),  # k02
        (((1, 0, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1)), ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 0, 0))),  # k12
    )
)


def build_moduli(cd: CurveData) -> ModuliSet:
    """The nine squared moduli and their roots from the nulls of a CurveData.

    Each root is cmath.sqrt of its square, negated when that lies nearer to
    minus the quotient of unsquared nulls whose square is the squared
    modulus; so each root carries the sign of its null quotient.  Raises
    DegenerateTau when a denominator null vanishes, or when some k_i^2 is
    zero or not finite, as when the nulls with a = 1 underflow.  The nulls
    and their squares are read by position in EVEN_CHARACTERISTICS.
    """
    n = list(cd.null_squares.values())  # in EVEN_CHARACTERISTICS order
    scale = max(map(abs, n))
    for denom in ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)):
        if (size := abs(cd.null_squares[denom])) <= 1e-10 * scale:
            raise DegenerateTau(
                f"even theta-null {denom} vanishes (|.|^2 = {size:.3e}); "
                "tau lies on a singular locus"
            )
    t = list(map(cd.nulls.__getitem__, EVEN_CHARACTERISTICS))
    squares, roots = [], []
    for num, den in _ROOT_QUOTIENTS:  # each product taken left to right
        if len(num) == 2:
            (a, b), (c, d) = num, den
            square, quotient = n[a] * n[b] / (n[c] * n[d]), t[a] * t[b] / (t[c] * t[d])
        else:
            (a, b, e), (c, d, f) = num, den
            square = n[a] * n[b] * n[e] / (n[c] * n[d] * n[f])
            quotient = t[a] * t[b] * t[e] / (t[c] * t[d] * t[f])
        root = cmath.sqrt(square)
        if abs(root + quotient) < abs(root - quotient):
            root = -root
        squares.append(square)
        roots.append(root)
    for name, square in zip(("k0", "k1", "k2"), squares):
        if square == 0 or not cmath.isfinite(square):
            raise DegenerateTau(
                f"squared modulus {name}^2 = {square} is zero or not finite; "
                "tau lies outside the range of the theta-null quotients"
            )
    return ModuliSet(*squares, *roots)


RATIO_CHARACTERISTICS = (
    (0, 0, 1, 1),
    (0, 1, 1, 0),
    (0, 0, 1, 0),
    (1, 1, 0, 0),
    (1, 0, 0, 1),
    (1, 0, 0, 0),
    (1, 1, 1, 1),
    (0, 0, 0, 1),
    (0, 1, 0, 0),
)


def null_ratios_from_moduli(ms: ModuliSet) -> dict[tuple, complex]:
    """The nine squared null ratios as products of moduli roots."""
    for name in ("k1", "kp1", "k02"):
        if getattr(ms, name) == 0:
            raise DivisionByZeroModulus(f"modulus {name} vanishes")
    k0, k1, k2, kp0, kp1, kp2, k01, k02, k12 = ms[9:]
    return {
        (0, 0, 1, 1): k0 * kp2 * k12 / (k1 * k02),
        (0, 1, 1, 0): kp0 * k2 * k01 / (k1 * k02),
        (0, 0, 1, 0): kp0 * kp2 / kp1,
        (1, 1, 0, 0): k0 * kp2 * k01 / (kp1 * k02),
        (1, 0, 0, 1): kp0 * k2 * k12 / (kp1 * k02),
        (1, 0, 0, 0): k0 * k2 / k1,
        (1, 1, 1, 1): k01 * k12 / (k1 * kp1),
        (0, 0, 0, 1): k0 * kp0 * k12 / (k1 * kp1 * k02),
        (0, 1, 0, 0): k2 * kp2 * k01 / (k1 * kp1 * k02),
    }


def null_ratio_signs(
    tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> dict[tuple, tuple[int, float]]:
    """Per-ratio sign of the root-product formula against the direct ratio.

    Returns bits -> (sign, residual) where sign in {+1, -1} makes the product
    closest to the direct ratio and residual is the remaining relative error.
    With every root signed as its null quotient each product equals its
    ratio, so the signs read +1; a -1 records a root that left its quotient.
    """
    return _null_ratio_signs(curve_data(tau, ctrl))


def _null_ratio_signs(cd: CurveData) -> dict[tuple, tuple[int, float]]:
    """null_ratio_signs from the per-tau data cd: each direct ratio is a
    squared null over the squared null of [00;00]."""
    products = null_ratios_from_moduli(cd.moduli)
    n = cd.null_squares
    base = n[(0, 0, 0, 0)]
    out = {}
    for bits in RATIO_CHARACTERISTICS:
        d = n[bits] / base
        p = products[bits]
        plus = _rel(p, d)
        minus = _rel(p, -d)
        out[bits] = (1, plus) if plus <= minus else (-1, minus)
    return out


_KIJ = ("k01", "k02", "k12")
CONSISTENCY_LABELS = (
    *(f"k{i}sq-two-ways" for i in range(3)),
    *(f"null-sum-{i}" for i in range(1, 4)),
    *(f"{kij}sq-difference-form" for kij in _KIJ),
    *(f"k{i}sq-complement" for i in range(3)),
    *(f"{kij}sq-as-difference" for kij in _KIJ),
)


def moduli_consistency_residuals(
    tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> list[tuple[str, float]]:
    """Residuals of the null-level consistency relations, labeled by CONSISTENCY_LABELS.

    Covers: each k_i^2 computed two independent ways (primed-null ratio
    r/(1+r) vs the direct product), the three null sum rules, the three
    difference formulas for k_ij^2, the complements k'_i^2 = 1 - k_i^2 and
    differences k_ij^2 = k_i^2 - k_j^2 of the recorded fields.
    """
    return _consistency_residuals(curve_data(tau, ctrl))


def _consistency_residuals(cd: CurveData) -> list[tuple[str, float]]:
    """moduli_consistency_residuals from the per-tau data cd, the squared
    nulls read by position in EVEN_CHARACTERISTICS."""
    k0_sq, k1_sq, k2_sq, kp0_sq, kp1_sq, kp2_sq, k01_sq, k02_sq, k12_sq = cd.moduli[:9]
    n0000, n0001, n0010, n0011, n0100, n0110, n1000, n1001, n1100, n1111 = cd.null_squares.values()

    # k_i^2 expressed through primed nulls: r/(1+r) with r = k_i^2/(1-k_i^2)
    r0 = n1000 * n1100 / (n0010 * n0110)
    r1 = n1001 * n1100 / (n0011 * n0110)
    r2 = n1001 * n1000 / (n0011 * n0010)
    out = [
        _rel(r0 / (1.0 + r0), k0_sq),
        _rel(r1 / (1.0 + r1), k1_sq),
        _rel(r2 / (1.0 + r2), k2_sq),
    ]

    # sum rules among products of squared nulls
    sums = (
        (n0000, n0100, n0010, n0110, n1000, n1100),
        (n0001, n0100, n0011, n0110, n1001, n1100),
        (n0001, n0000, n0011, n0010, n1001, n1000),
    )
    for a1, a2, b1, b2, c1, c2 in sums:
        lhs = a1 * a2
        t1, t2 = b1 * b2, c1 * c2
        scale = 1.0 + max(abs(lhs), abs(t1), abs(t2))
        out.append(abs(lhs - t1 - t2) / scale)

    # difference formulas: k_ij^2 from two-null cross terms vs triple product
    d01 = (n1100 / n0100) * (n1000 * n0001 - n0000 * n1001) / (n0000 * n0001)
    d02 = (n1000 / n0000) * (n1100 * n0001 - n0100 * n1001) / (n0100 * n0001)
    d12 = (n1001 / n0001) * (n0000 * n1100 - n1000 * n0100) / (n0100 * n0000)
    out += [
        _rel(d01, k01_sq),
        _rel(d02, k02_sq),
        _rel(d12, k12_sq),
        _rel(kp0_sq, 1.0 - k0_sq),
        _rel(kp1_sq, 1.0 - k1_sq),
        _rel(kp2_sq, 1.0 - k2_sq),
        _rel(k01_sq, k0_sq - k1_sq),
        _rel(k02_sq, k0_sq - k2_sq),
        _rel(k12_sq, k1_sq - k2_sq),
    ]
    return list(zip(CONSISTENCY_LABELS, out, strict=True))


COLLAPSE_TOL = 1e-10


def branch_points_collapse(ms: ModuliSet) -> bool:
    """True when k0^2 = k1^2 = k2^2 within COLLAPSE_TOL, relative to max |k_i^2|.

    Then the five branch points of the curve collapse to three, as at a split
    period matrix (tau12 = 0), and the pair on the curve loses its meaning.
    Against the largest k_i^2, not 1, so moduli that are all small but far
    apart relative to each other do not read as collapsed.
    """
    gap = max(abs(ms.k0_sq - ms.k1_sq), abs(ms.k0_sq - ms.k2_sq))
    return gap < COLLAPSE_TOL * max(abs(ms.k0_sq), abs(ms.k1_sq), abs(ms.k2_sq))


def require_five_branch_points(ms: ModuliSet) -> None:
    """Raise DegenerateTau when the branch points collapse (branch_points_collapse).

    The point pair on the curve, which the parameterizations and flow suites
    and g2theta invert read, needs five distinct branch points.
    """
    if branch_points_collapse(ms):
        raise DegenerateTau(
            f"moduli collapse, k0^2 = k1^2 = k2^2 within {COLLAPSE_TOL:g} (split period "
            "matrix): the parameterizations and flow suites need five distinct branch points"
        )
