"""Shared test helpers: a brute-force series oracle, seeded point draws and
the half/full period shift rules."""

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from g2theta.rng import SampleStream
from g2theta.theta import (
    ALL_CHARACTERISTICS,
    HalfCharacteristic,
    PeriodMatrix,
    Point2,
    SeriesControl,
    _in_factor_range,
    truncation_radius,
)

# point on the theta divisor of theta[00;11] at the default period matrix,
# found by Newton iteration on the u component; |theta| there is ~3e-16
DIVISOR_U = -0.05783644998375757 - 0.5473428289277064j
DIVISOR_V = 0.1 - 0.05j

BOX = (-0.5, 0.5, -0.2, 0.2)


def brute_theta2(c, point, tau, radius=30):
    """Two-variable theta by a plain double sum over a fixed wide box.

    Independent of the production truncation logic; used as the oracle.
    """
    idx = np.arange(-radius, radius + 1, dtype=float)
    p = (idx + 0.5 * c.a)[:, None]
    q = (idx + 0.5 * c.c)[None, :]
    expo = (
        tau.tau1 * p * p
        + tau.tau2 * q * q
        + 2.0 * tau.tau12 * p * q
        + 2.0 * (p * (point.u + 0.5 * c.b) + q * (point.v + 0.5 * c.d))
    )
    terms = np.exp(1j * math.pi * expo).ravel()
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _reference_grid(c, point, tau, shape):
    """The lattice terms of one characteristic at one point, on the box
    shape = (N1, N2): m in [-N1, N1] down and n in [-N2, N2] across.

    The operations of the production kernel, in the same order, up to the
    sign of a zero: the term of the lattice class (a, c) times the unit
    (-1)^(m b + n d) i^(a b + c d).  Where the factors of the box stay in
    range the class term is the row factor exp(2 pi i p u) times the column
    factor exp(2 pi i q v), times the tau factor exp(i pi quad); elsewhere
    it is one exp of i pi (quad + 2 p u + 2 q v).
    """
    down, across = (np.arange(-n, n + 1, dtype=np.float64) for n in shape)
    p_row = down + 0.5 * c.a
    q_col = across + 0.5 * c.c
    p = p_row[:, None]
    q = q_col[None, :]
    quad = tau.tau1 * p * p + tau.tau2 * q * q + 2.0 * tau.tau12 * p * q
    row_unit = 1j ** (c.a * c.b) * (-1.0) ** (down * c.b)
    col_unit = 1j ** (c.c * c.d) * (-1.0) ** (across * c.d)
    unit = row_unit[:, None] * col_unit[None, :]
    if not _in_factor_range(tau, shape):
        return p, q, np.exp(1j * math.pi * (quad + 2.0 * (p * point.u + q * point.v))) * unit
    two_pi_i = 2j * math.pi
    row = np.exp(two_pi_i * (p_row * point.u))
    col = np.exp(two_pi_i * (q_col * point.v))
    return p, q, (row[:, None] * col[None, :]) * (np.exp(1j * math.pi * quad) * unit)


def _reference_fsum(arr):
    flat = arr.ravel()
    return complex(math.fsum(flat.real), math.fsum(flat.imag))


def reference_theta2(c, point, tau, ctrl=SeriesControl()):
    """One characteristic on its own grid, summed with math.fsum.

    The production truncation radius is used, so the stacked kernel must
    reproduce this value bit for bit.
    """
    n = truncation_radius(tau, point, ctrl)
    return _reference_fsum(_reference_grid(c, point, tau, (n, n))[2])


def reference_theta2_grad(c, point, tau, ctrl=SeriesControl()):
    """Term-wise gradient of one characteristic on its own grid."""
    n = truncation_radius(tau, point, ctrl)
    p, q, terms = _reference_grid(c, point, tau, (n, n))
    two_pi_i = 2j * math.pi
    return _reference_fsum((two_pi_i * p) * terms), _reference_fsum((two_pi_i * q) * terms)


def mp_theta_jets(tau, points, ctrl=SeriesControl()):
    """theta[c], d/du theta[c] and d/dv theta[c] of every c at each point, at 30 digits.

    One dict per point, keyed by c, summed on the production box.  The
    term exp(i pi quad) exp(2 pi i p (u + b/2)) exp(2 pi i q (v + d/2)) is
    factored as the kernel factors it, which is exact at any precision, so
    that the tau factors are shared by every point and the oracle stays fast.
    """
    out = []
    with mpmath.workdps(30):
        two_pi_i = 2 * mpmath.pi * mpmath.mpc(0, 1)
        t1, t2, t12 = (mpmath.mpc(x) for x in (tau.tau1, tau.tau2, tau.tau12))
        tables = {}
        for point in points:
            n = truncation_radius(tau, point, ctrl)
            offsets = [[mpmath.mpf(m) + mpmath.mpf(a) / 2 for m in range(-n, n + 1)] for a in (0, 1)]
            if n not in tables:
                tables[n] = {
                    (a, c): [
                        [
                            mpmath.exp(two_pi_i / 2 * (t1 * p * p + t2 * q * q + 2 * t12 * p * q))
                            for q in offsets[c]
                        ]
                        for p in offsets[a]
                    ]
                    for a in (0, 1)
                    for c in (0, 1)
                }
            u, v = mpmath.mpc(point.u), mpmath.mpc(point.v)
            rows = {
                (a, b): [mpmath.exp(two_pi_i * p * (u + mpmath.mpf(b) / 2)) for p in offsets[a]]
                for a in (0, 1)
                for b in (0, 1)
            }
            cols = {
                (c, d): [mpmath.exp(two_pi_i * q * (v + mpmath.mpf(d) / 2)) for q in offsets[c]]
                for c in (0, 1)
                for d in (0, 1)
            }
            jets = {}
            for (a, c), table in tables[n].items():
                for d in (0, 1):
                    weighted = [[e * x for e, x in zip(row, cols[c, d])] for row in table]
                    inner = [mpmath.fsum(w) for w in weighted]
                    inner_q = [mpmath.fdot(offsets[c], w) for w in weighted]
                    for b in (0, 1):
                        row = rows[a, b]
                        p_row = [p * r for p, r in zip(offsets[a], row)]
                        jets[a, c, b, d] = (
                            complex(mpmath.fdot(row, inner)),
                            complex(two_pi_i * mpmath.fdot(p_row, inner)),
                            complex(two_pi_i * mpmath.fdot(row, inner_q)),
                        )
            out.append({ch: jets[ch] for ch in ALL_CHARACTERISTICS})
    return out


def reference_theta1(c, z, tau, ctrl=SeriesControl()):
    """One genus-1 value and its d/dz on their own rows of terms, summed with
    math.fsum: theta[a 0; b 0]((z, 0); diag(tau, tau)) on the box (N, 0).

    The production radius is used, so the kernel must reproduce both bit
    for bit.
    """
    curve, point = PeriodMatrix(tau, tau, 0j), Point2(z, 0j)
    n = truncation_radius(curve, point, ctrl)
    p, _, terms = _reference_grid(HalfCharacteristic(c.a, 0, c.b, 0), point, curve, (n, 0))
    return _reference_fsum(terms), _reference_fsum((2j * math.pi * p) * terms)


def draw_points(seed, label, count):
    stream = SampleStream(seed, label)
    return [
        Point2(stream.next_complex(*BOX), stream.next_complex(*BOX))
        for _ in range(count)
    ]


# The half/full period shift rules in the u direction: theta at a shifted
# argument through theta at the original one.


def ch(a: int, c: int, b: int, d: int) -> HalfCharacteristic:
    return HalfCharacteristic(a, c, b, d)


class ShiftKind(enum.Enum):
    U_HALF = "u_half"                    # u -> u + 1/2
    U_TAU_HALF = "u_tau_half"            # u -> u + tau1/2, v -> v + tau12/2
    U_TAU_PLUS_HALF = "u_tau_plus_half"  # u -> u + tau1/2 + 1/2, v -> v + tau12/2
    U_ONE = "u_one"                      # u -> u + 1
    U_TAU_FULL = "u_tau_full"            # u -> u + tau1, v -> v + tau12


@dataclass(frozen=True)
class ShiftRule:
    """theta[old](shifted args) = sign * exp(i*pi*(tau1_coeff*tau1 + u_coeff*u)) * theta[new](u, v)."""

    kind: ShiftKind
    new_characteristic: HalfCharacteristic
    sign: complex
    tau1_coeff: Fraction
    u_coeff: Fraction

    def factor(self, point: Point2, tau: PeriodMatrix) -> complex:
        expo = complex(self.tau1_coeff) * tau.tau1 + complex(self.u_coeff) * point.u
        return self.sign * cmath.exp(1j * math.pi * expo)


def shifted_argument(kind: ShiftKind, point: Point2, tau: PeriodMatrix) -> Point2:
    u, v = point.u, point.v
    if kind is ShiftKind.U_HALF:
        return Point2(u + 0.5, v)
    if kind is ShiftKind.U_TAU_HALF:
        return Point2(u + tau.tau1 / 2.0, v + tau.tau12 / 2.0)
    if kind is ShiftKind.U_TAU_PLUS_HALF:
        return Point2(u + tau.tau1 / 2.0 + 0.5, v + tau.tau12 / 2.0)
    if kind is ShiftKind.U_ONE:
        return Point2(u + 1.0, v)
    if kind is ShiftKind.U_TAU_FULL:
        return Point2(u + tau.tau1, v + tau.tau12)
    raise ValueError(f"unknown shift kind {kind!r}")


def half_shift(c: HalfCharacteristic, kind: ShiftKind) -> ShiftRule:
    """Transformation rule for a half- or full-period shift in the u direction.

    Shifts act on (u, v) jointly where the period couples them (tau1 shifts in
    u drag tau12/2 shifts in v).  The v-direction rules are the mirror images
    swapping (a, b, tau1) with (c, d, tau2); they are not needed by the
    verification suites and are omitted.
    """
    a, b = c.a, c.b
    zero = Fraction(0)
    if kind is ShiftKind.U_HALF:
        sign = -1.0 if (a == 1 and b == 1) else 1.0
        return ShiftRule(kind, ch(a, c.c, 1 - b, c.d), complex(sign), zero, zero)
    if kind is ShiftKind.U_TAU_HALF:
        sign = 1.0 + 0.0j if b == 0 else -1.0j
        return ShiftRule(kind, ch(1 - a, c.c, b, c.d), sign, Fraction(-1, 4), Fraction(-1))
    if kind is ShiftKind.U_TAU_PLUS_HALF:
        if b == 0:
            sign = -1.0j
        else:
            sign = 1.0 + 0.0j if a == 0 else -1.0 + 0.0j
        return ShiftRule(kind, ch(1 - a, c.c, 1 - b, c.d), sign, Fraction(-1, 4), Fraction(-1))
    if kind is ShiftKind.U_ONE:
        return ShiftRule(kind, c, complex((-1.0) ** a), zero, zero)
    if kind is ShiftKind.U_TAU_FULL:
        return ShiftRule(kind, c, complex((-1.0) ** b), Fraction(-1), Fraction(-2))
    raise ValueError(f"unknown shift kind {kind!r}")
