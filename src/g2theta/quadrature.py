"""Tanh-sinh quadrature on (0, 1) for integrands with endpoint singularities.

The double-exponential substitution x = (1 + tanh((pi/2) sinh t))/2 pushes
integrable endpoint singularities like 1/sqrt(1-x) below the weight decay,
so complete elliptic integrals converge to near machine precision in a few
level doublings.  Integrands receive the distance to the nearer endpoint as
a second argument, computed without cancellation (near x=1 the naive 1-x
loses all precision long before the weights cut off).
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import QuadratureNonconvergence

__all__ = ["tanh_sinh_01"]

_TOL = 1e-12  # agreement of successive levels, relative, floored at 1
_LEVEL_CAP = 12  # node-density doublings before giving up


def tanh_sinh_01(f: Callable[[float, float], float]) -> float:
    """Integrate f over (0, 1); f(x, dist) with dist = min(x, 1-x) exact.

    Levels double the node density; converged when successive levels agree
    to _TOL (relative, floored at 1) after at least three refinements.
    """
    half_pi = math.pi / 2.0

    def level_sum(h: float, skip_even: bool) -> float:
        total = 0.0
        j = 1 if skip_even else 0
        step = 2 if skip_even else 1
        while True:
            t = j * h
            y = half_pi * math.sinh(t)
            w = half_pi * math.cosh(t) / math.cosh(y) ** 2
            delta = 2.0 / (math.exp(2.0 * y) + 1.0)  # 1 - tanh(y), no cancellation
            if delta == 0.0 or w < 1e-300:
                break
            if j == 0:
                term = 0.5 * w * f(0.5, 0.5)
            else:
                # node pair t and -t maps to x = 1 - delta/2 and x = delta/2
                term = 0.5 * w * (f(1.0 - delta / 2.0, delta / 2.0) + f(delta / 2.0, delta / 2.0))
            total += term
            if t > 3.0 and abs(term) < 1e-18 * (1.0 + abs(total)):
                break
            j += step
        return total

    h = 1.0
    s = level_sum(h, skip_even=False) * h
    for level in range(1, _LEVEL_CAP + 1):
        h /= 2.0
        s_new = s / 2.0 + level_sum(h, skip_even=True) * h
        if level >= 3 and abs(s_new - s) <= _TOL * (1.0 + abs(s_new)):
            return s_new
        s = s_new
    raise QuadratureNonconvergence(
        f"tanh-sinh did not converge to {_TOL} within {_LEVEL_CAP} levels"
    )
