"""Genus-2 theta functions with half-integer characteristics.

Numerical evaluation of the two-variable theta series, the classical
identity zoo built on it (Riemann relations, squared-theta identities,
moduli consistency), a Jacobi inversion solver with its 15 theta-quotient
parameterizations and flow equations, and the genus-1 degeneration down to
Jacobi elliptic functions and complete integrals.  The harness submodule
runs all of it as seeded verification suites with deterministic JSON
reports; the `g2theta` console script fronts it.

The package re-exports nothing: import each name from its module, e.g.
`from g2theta.theta import CurveData`.
"""

from .harness import VERSION as __version__  # noqa: F401
