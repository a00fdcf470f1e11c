"""Moduli of the genus-2 curve from theta-nulls, and their consistency relations.

The curve y^2 = x(1-x)(1-k0^2 x)(1-k1^2 x)(1-k2^2 x) has squared moduli
expressible as ratios of squared even theta-nulls, e.g.

    k0^2 = n[1000] n[1100] / (n[0000] n[0100])        n[.] = theta-null^2

with complements k'_i^2 = 1 - k_i^2 and differences k_ij^2 = k_i^2 - k_j^2
also given directly by null products.  Inversely, each of the nine squared
null ratios theta^2[.](0)/theta^2[0000](0) is a product of moduli roots.

All roots recorded here are principal-branch square roots.  Root-product
formulas are therefore certified only up to one sign per formula; the sign
is detected against the directly computed ratio and reported, never hidden
(see null_ratio_signs).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DegenerateTau, DivisionByZeroModulus
from .theta import (
    EVEN_CHARACTERISTICS,
    CurveData,
    PeriodMatrix,
    SeriesControl,
    curve_data,
)

__all__ = [
    "ModuliSet",
    "moduli_from_tau",
    "null_ratios_from_moduli",
    "direct_null_ratios",
    "null_ratio_signs",
    "moduli_consistency_residuals",
    "RATIO_CHARACTERISTICS",
]


@dataclass(frozen=True)
class ModuliSet:
    k0_sq: complex
    k1_sq: complex
    k2_sq: complex
    kp0_sq: complex
    kp1_sq: complex
    kp2_sq: complex
    k01_sq: complex
    k02_sq: complex
    k12_sq: complex
    k0: complex
    k1: complex
    k2: complex
    kp0: complex
    kp1: complex
    kp2: complex
    k01: complex
    k02: complex
    k12: complex


def _null_sq(cd: CurveData) -> dict[tuple, complex]:
    nulls = cd.nulls
    return {c.bits: nulls[c.bits] ** 2 for c in EVEN_CHARACTERISTICS}


def moduli_from_tau(tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()) -> ModuliSet:
    """The moduli of tau, built once per period matrix (CurveData.moduli)."""
    return curve_data(tau, ctrl).moduli


def build_moduli(cd: CurveData) -> ModuliSet:
    """The nine squared moduli and their principal roots from the nulls of a CurveData.

    Raises DegenerateTau when a denominator null vanishes.
    """
    n = _null_sq(cd)
    scale = max(abs(v) for v in n.values())
    for denom in ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)):
        if abs(n[denom]) <= 1e-10 * scale:
            raise DegenerateTau(
                f"even theta-null {denom} vanishes (|.|^2 = {abs(n[denom]):.3e}); "
                "tau lies on a singular locus"
            )
    k0_sq = n[(1, 0, 0, 0)] * n[(1, 1, 0, 0)] / (n[(0, 0, 0, 0)] * n[(0, 1, 0, 0)])
    k1_sq = n[(1, 0, 0, 1)] * n[(1, 1, 0, 0)] / (n[(0, 0, 0, 1)] * n[(0, 1, 0, 0)])
    k2_sq = n[(1, 0, 0, 1)] * n[(1, 0, 0, 0)] / (n[(0, 0, 0, 1)] * n[(0, 0, 0, 0)])
    kp0_sq = n[(0, 0, 1, 0)] * n[(0, 1, 1, 0)] / (n[(0, 0, 0, 0)] * n[(0, 1, 0, 0)])
    kp1_sq = n[(0, 0, 1, 1)] * n[(0, 1, 1, 0)] / (n[(0, 0, 0, 1)] * n[(0, 1, 0, 0)])
    kp2_sq = n[(0, 0, 1, 1)] * n[(0, 0, 1, 0)] / (n[(0, 0, 0, 1)] * n[(0, 0, 0, 0)])
    k01_sq = (
        n[(1, 1, 0, 0)] * n[(1, 1, 1, 1)] * n[(0, 1, 1, 0)]
        / (n[(0, 1, 0, 0)] * n[(0, 0, 0, 0)] * n[(0, 0, 0, 1)])
    )
    k02_sq = (
        n[(1, 0, 0, 0)] * n[(1, 1, 1, 1)] * n[(0, 0, 1, 0)]
        / (n[(0, 0, 0, 0)] * n[(0, 1, 0, 0)] * n[(0, 0, 0, 1)])
    )
    k12_sq = (
        n[(1, 0, 0, 1)] * n[(1, 1, 1, 1)] * n[(0, 0, 1, 1)]
        / (n[(0, 0, 0, 1)] * n[(0, 1, 0, 0)] * n[(0, 0, 0, 0)])
    )
    return ModuliSet(
        k0_sq, k1_sq, k2_sq, kp0_sq, kp1_sq, kp2_sq, k01_sq, k02_sq, k12_sq,
        cmath.sqrt(k0_sq), cmath.sqrt(k1_sq), cmath.sqrt(k2_sq),
        cmath.sqrt(kp0_sq), cmath.sqrt(kp1_sq), cmath.sqrt(kp2_sq),
        cmath.sqrt(k01_sq), cmath.sqrt(k02_sq), cmath.sqrt(k12_sq),
    )


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
    r = ms
    return {
        (0, 0, 1, 1): r.k0 * r.kp2 * r.k12 / (r.k1 * r.k02),
        (0, 1, 1, 0): r.kp0 * r.k2 * r.k01 / (r.k1 * r.k02),
        (0, 0, 1, 0): r.kp0 * r.kp2 / r.kp1,
        (1, 1, 0, 0): r.k0 * r.kp2 * r.k01 / (r.kp1 * r.k02),
        (1, 0, 0, 1): r.kp0 * r.k2 * r.k12 / (r.kp1 * r.k02),
        (1, 0, 0, 0): r.k0 * r.k2 / r.k1,
        (1, 1, 1, 1): r.k01 * r.k12 / (r.k1 * r.kp1),
        (0, 0, 0, 1): r.k0 * r.kp0 * r.k12 / (r.k1 * r.kp1 * r.k02),
        (0, 1, 0, 0): r.k2 * r.kp2 * r.k01 / (r.k1 * r.kp1 * r.k02),
    }


def direct_null_ratios(
    tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> dict[tuple, complex]:
    n = _null_sq(curve_data(tau, ctrl))
    base = n[(0, 0, 0, 0)]
    return {bits: n[bits] / base for bits in RATIO_CHARACTERISTICS}


def null_ratio_signs(
    tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> dict[tuple, tuple[int, float]]:
    """Per-ratio sign of the root-product formula against the direct ratio.

    Returns bits -> (sign, residual) where sign in {+1, -1} makes the product
    closest to the direct ratio and residual is the remaining relative error.
    Principal roots carry no global sign convention, so a -1 here is not a
    defect; it is the record of the branch the formula landed on at this tau.
    """
    ms = moduli_from_tau(tau, ctrl)
    products = null_ratios_from_moduli(ms)
    direct = direct_null_ratios(tau, ctrl)
    out = {}
    for bits in RATIO_CHARACTERISTICS:
        d = direct[bits]
        p = products[bits]
        scale = 1.0 + max(abs(d), abs(p))
        plus = abs(p - d) / scale
        minus = abs(p + d) / scale
        out[bits] = (1, plus) if plus <= minus else (-1, minus)
    return out


def moduli_consistency_residuals(
    tau: PeriodMatrix, ctrl: SeriesControl = SeriesControl()
) -> list[tuple[str, float]]:
    """Labeled residuals of the null-level consistency relations.

    Covers: each k_i^2 computed two independent ways (primed-null ratio
    r/(1+r) vs the direct product), the three null sum rules, the three
    difference formulas for k_ij^2, the complements k'_i^2 = 1 - k_i^2 and
    differences k_ij^2 = k_i^2 - k_j^2 of the recorded fields.
    """
    cd = curve_data(tau, ctrl)
    ms = cd.moduli
    n = _null_sq(cd)

    def rel(lhs: complex, rhs: complex) -> float:
        return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))

    out: list[tuple[str, float]] = []

    # k_i^2 expressed through primed nulls: r/(1+r) with r = k_i^2/(1-k_i^2)
    r0 = n[(1, 0, 0, 0)] * n[(1, 1, 0, 0)] / (n[(0, 0, 1, 0)] * n[(0, 1, 1, 0)])
    r1 = n[(1, 0, 0, 1)] * n[(1, 1, 0, 0)] / (n[(0, 0, 1, 1)] * n[(0, 1, 1, 0)])
    r2 = n[(1, 0, 0, 1)] * n[(1, 0, 0, 0)] / (n[(0, 0, 1, 1)] * n[(0, 0, 1, 0)])
    out.append(("k0sq-two-ways", rel(r0 / (1.0 + r0), ms.k0_sq)))
    out.append(("k1sq-two-ways", rel(r1 / (1.0 + r1), ms.k1_sq)))
    out.append(("k2sq-two-ways", rel(r2 / (1.0 + r2), ms.k2_sq)))

    # sum rules among products of squared nulls
    sums = (
        ("null-sum-1", (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0)),
        ("null-sum-2", (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)),
        ("null-sum-3", (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0)),
    )
    for label, a1, a2, b1, b2, c1, c2 in sums:
        lhs = n[a1] * n[a2]
        t1, t2 = n[b1] * n[b2], n[c1] * n[c2]
        scale = 1.0 + max(abs(lhs), abs(t1), abs(t2))
        out.append((label, abs(lhs - t1 - t2) / scale))

    # difference formulas: k_ij^2 from two-null cross terms vs triple product
    d01 = (n[(1, 1, 0, 0)] / n[(0, 1, 0, 0)]) * (
        n[(1, 0, 0, 0)] * n[(0, 0, 0, 1)] - n[(0, 0, 0, 0)] * n[(1, 0, 0, 1)]
    ) / (n[(0, 0, 0, 0)] * n[(0, 0, 0, 1)])
    d02 = (n[(1, 0, 0, 0)] / n[(0, 0, 0, 0)]) * (
        n[(1, 1, 0, 0)] * n[(0, 0, 0, 1)] - n[(0, 1, 0, 0)] * n[(1, 0, 0, 1)]
    ) / (n[(0, 1, 0, 0)] * n[(0, 0, 0, 1)])
    d12 = (n[(1, 0, 0, 1)] / n[(0, 0, 0, 1)]) * (
        n[(0, 0, 0, 0)] * n[(1, 1, 0, 0)] - n[(1, 0, 0, 0)] * n[(0, 1, 0, 0)]
    ) / (n[(0, 1, 0, 0)] * n[(0, 0, 0, 0)])
    out.append(("k01sq-difference-form", rel(d01, ms.k01_sq)))
    out.append(("k02sq-difference-form", rel(d02, ms.k02_sq)))
    out.append(("k12sq-difference-form", rel(d12, ms.k12_sq)))

    out.append(("k0sq-complement", rel(ms.kp0_sq, 1.0 - ms.k0_sq)))
    out.append(("k1sq-complement", rel(ms.kp1_sq, 1.0 - ms.k1_sq)))
    out.append(("k2sq-complement", rel(ms.kp2_sq, 1.0 - ms.k2_sq)))

    out.append(("k01sq-as-difference", rel(ms.k01_sq, ms.k0_sq - ms.k1_sq)))
    out.append(("k02sq-as-difference", rel(ms.k02_sq, ms.k0_sq - ms.k2_sq)))
    out.append(("k12sq-as-difference", rel(ms.k12_sq, ms.k1_sq - ms.k2_sq)))

    return out
