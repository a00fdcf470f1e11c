"""Shared test helpers: a brute-force series oracle and seeded point draws."""

import math

import numpy as np

from g2theta.degeneration import _radius1
from g2theta.rng import SampleStream
from g2theta.theta import Point2, SeriesControl, truncation_radius

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


def _reference_grid(c, point, tau, n):
    idx = np.arange(-n, n + 1, dtype=np.float64)
    p = (idx + 0.5 * c.a)[:, None]
    q = (idx + 0.5 * c.c)[None, :]
    expo = (
        tau.tau1 * p * p
        + tau.tau2 * q * q
        + 2.0 * tau.tau12 * p * q
        + 2.0 * (p * (point.u + 0.5 * c.b) + q * (point.v + 0.5 * c.d))
    )
    return p, q, np.exp(1j * math.pi * expo)


def _reference_fsum(arr):
    flat = arr.ravel()
    return complex(math.fsum(flat.real), math.fsum(flat.imag))


def reference_theta2(c, point, tau, ctrl=SeriesControl()):
    """One characteristic on its own grid, summed with math.fsum.

    The production truncation radius is used, so the stacked kernel must
    reproduce this value bit for bit.
    """
    n = truncation_radius(tau, point, ctrl)
    return _reference_fsum(_reference_grid(c, point, tau, n)[2])


def reference_theta2_grad(c, point, tau, ctrl=SeriesControl()):
    """Term-wise gradient of one characteristic on its own grid."""
    n = truncation_radius(tau, point, ctrl)
    p, q, terms = _reference_grid(c, point, tau, n)
    two_pi_i = 2j * math.pi
    return _reference_fsum((two_pi_i * p) * terms), _reference_fsum((two_pi_i * q) * terms)


def reference_theta1(c, z, tau, ctrl=SeriesControl()):
    """One genus-1 value on its own row of terms, summed with math.fsum.

    The production radius is used, so the genus-1 grid must reproduce this
    value bit for bit.
    """
    n = _radius1(z, tau, ctrl)
    m = np.arange(-n, n + 1, dtype=float) + c.a / 2.0
    expo = 1j * math.pi * (tau * m * m + 2.0 * m * (z + c.b / 2.0))
    return _reference_fsum(np.exp(expo))


def draw_points(seed, label, count):
    stream = SampleStream(seed, label)
    return [
        Point2(stream.next_complex(*BOX), stream.next_complex(*BOX))
        for _ in range(count)
    ]
