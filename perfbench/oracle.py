"""Independent reference values by direct lattice summation in mpmath.

Nothing here calls g2theta: the theta series, the moduli and the symmetric
functions of the inverted pair are computed from their definitions at
``DPS`` significant digits, with a box radius taken from the Gaussian decay
with ten extra digits of margin.  Inputs are plain Python complex numbers.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 30

# the even characteristics (a, c, b, d) whose squared nulls give k_i^2
_K_SQ_NULLS = (
    ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)),  # k0^2
    ((1, 0, 0, 1), (1, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)),  # k1^2
    ((1, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)),  # k2^2
)
_KP_SQ_NULLS = (
    ((0, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 0), (0, 1, 0, 0)),  # k'0^2
    ((0, 0, 1, 1), (0, 1, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)),  # k'1^2
    ((0, 0, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)),  # k'2^2
)
ALL_BITS = tuple(
    (a, c, b, d) for a in (0, 1) for c in (0, 1) for b in (0, 1) for d in (0, 1)
)


def theta(bits, u: complex, v: complex, tau: tuple[complex, complex, complex]):
    """(theta[a c; b d](u, v), sum of |terms|) as mpmath numbers.

    The sum of magnitudes is the natural scale of the rounding error of any
    double-precision evaluation of the same series.
    """
    a, c, b, d = bits
    tau1, tau2, tau12 = tau
    y1, y2, y12 = tau1.imag, tau2.imag, tau12.imag
    lmin = 0.5 * (y1 + y2) - math.hypot(0.5 * (y1 - y2), y12)
    if not lmin > 0.0:
        raise ValueError(f"Im tau not positive definite: {tau}")
    r0 = (abs(u.imag) + abs(v.imag)) / lmin
    n = int(r0 + math.sqrt((DPS + 10) * math.log(10.0) / (math.pi * lmin))) + 2
    with mp.workdps(DPS + 5):
        t1, t2, t12 = mp.mpc(tau1), mp.mpc(tau2), mp.mpc(tau12)
        su = mp.mpc(u) + mp.mpf(b) / 2
        sv = mp.mpc(v) + mp.mpf(d) / 2
        ipi = mp.mpc(0, mp.pi)
        qs = [mp.mpf(k) + mp.mpf(c) / 2 for k in range(-n, n + 1)]
        cols = [mp.exp(ipi * (t2 * q * q + 2 * q * sv)) for q in qs]
        total = mp.mpc(0)
        mag = mp.mpf(0)
        for m in range(-n, n + 1):
            p = mp.mpf(m) + mp.mpf(a) / 2
            row = mp.exp(ipi * (t1 * p * p + 2 * p * su))
            # exp(2 i pi tau12 p q), advanced one lattice step in q at a time
            cross = mp.exp(2 * ipi * t12 * p * qs[0])
            step = mp.exp(2 * ipi * t12 * p)
            for col in cols:
                term = row * col * cross
                total += term
                mag += abs(term)
                cross *= step
        return +total, +mag


def squared_nulls(tau) -> dict[tuple, mp.mpc]:
    with mp.workdps(DPS + 5):
        return {bits: theta(bits, 0j, 0j, tau)[0] ** 2 for bits in ALL_BITS
                if (bits[0] * bits[2] + bits[1] * bits[3]) % 2 == 0}


def _ratio(n, num1, num2, den1, den2):
    return n[num1] * n[num2] / (n[den1] * n[den2])


def moduli_sq(n) -> tuple[list, list]:
    """([k0^2, k1^2, k2^2], [k'0^2, k'1^2, k'2^2]) from squared nulls."""
    with mp.workdps(DPS + 5):
        return (
            [_ratio(n, *row) for row in _K_SQ_NULLS],
            [_ratio(n, *row) for row in _KP_SQ_NULLS],
        )


def symmetric_functions(u: complex, v: complex, tau, n) -> tuple:
    """(x1 + x2, x1 x2) of the inverted pair at (u, v), from theta-squared ratios.

    x1 x2 = theta^2[10;11] / (k0 k1 k2 theta^2[00;11]) and
    (1 - x1)(1 - x2) = -(k'0 k'1 k'2 / (k0 k1 k2)) theta^2[10;01] / theta^2[00;11],
    with principal square roots of the squared moduli.
    """
    k_sq, kp_sq = moduli_sq(n)
    with mp.workdps(DPS + 5):
        kkk = mp.sqrt(k_sq[0]) * mp.sqrt(k_sq[1]) * mp.sqrt(k_sq[2])
        kpkpkp = mp.sqrt(kp_sq[0]) * mp.sqrt(kp_sq[1]) * mp.sqrt(kp_sq[2])
        ref = theta((0, 0, 1, 1), u, v, tau)[0] ** 2
        s2 = theta((1, 0, 1, 1), u, v, tau)[0] ** 2 / (kkk * ref)
        one_minus = -(kpkpkp / kkk) * theta((1, 0, 0, 1), u, v, tau)[0] ** 2 / ref
        return 1 + s2 - one_minus, s2


def f5(x: complex, n):
    """x (1 - x)(1 - k0^2 x)(1 - k1^2 x)(1 - k2^2 x) with reference moduli."""
    k_sq, _ = moduli_sq(n)
    with mp.workdps(DPS + 5):
        x = mp.mpc(x)
        return x * (1 - x) * (1 - k_sq[0] * x) * (1 - k_sq[1] * x) * (1 - k_sq[2] * x)


def rel_gap(value: complex, ref) -> float:
    """|value - ref| / (1 + |ref|) in double precision."""
    ref = complex(ref)
    return abs(value - ref) / (1.0 + abs(ref))
