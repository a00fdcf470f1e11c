"""Exception types shared across the library.

Every failure mode the library reports deliberately is one of these; anything
else escaping is a bug.  The CLI maps them to exit codes (see cli module).

A PointError belongs to one evaluation point.  Every error is raised, in the
batched evaluations of the suites (one grid of theta values for many
points) as elsewhere, and never returned as a value.  The harness evaluates
a batch that raises again one sample at a time; that is the one place where
an error becomes a skipped sample.
"""


class G2ThetaError(Exception):
    """Base class for all library errors."""


class TruncationOverflow(G2ThetaError):
    """Required lattice truncation radius exceeds the configured maximum,
    or a lattice term leaves double range."""


class DegenerateTau(G2ThetaError):
    """Period matrix invalid (Im tau not positive definite) or on a singular locus."""


class DivisionByZeroModulus(G2ThetaError):
    """A modulus appearing in a denominator vanishes."""


class PointError(G2ThetaError):
    """Base class for the errors raised at one evaluation point."""


class SingularDenominator(PointError):
    """A theta value appearing in a denominator vanishes at the given point."""


class CoincidentPoints(PointError):
    """Recovered pair has x1 too close to x2 for sign resolution."""


class SingularJacobian(G2ThetaError):
    """Flow-constant matrix has vanishing determinant AD - BC."""


class TildeMismatch(G2ThetaError):
    """Two independent expressions for a flow constant disagree."""


class StencilCrossesDivisor(PointError):
    """A finite-difference stencil point hit a divisor or coincident pair."""


class QuadratureNonconvergence(G2ThetaError):
    """Tanh-sinh quadrature failed to converge within the level cap."""


class ConfigInvalid(G2ThetaError):
    """Run configuration (file or flags) could not be validated."""

