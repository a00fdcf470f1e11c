"""Exception types shared across the library.

Every failure mode the library reports deliberately is one of these; anything
else escaping is a bug.  The CLI maps them to exit codes (see cli module).
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


class SingularDenominator(G2ThetaError):
    """A theta value appearing in a denominator vanishes at the given point."""


class CoincidentPoints(G2ThetaError):
    """Recovered pair has x1 too close to x2 for sign resolution."""


class SingularJacobian(G2ThetaError):
    """Flow-constant matrix has vanishing determinant AD - BC."""


class TildeMismatch(G2ThetaError):
    """Two independent expressions for a flow constant disagree."""


class StencilCrossesDivisor(G2ThetaError):
    """A finite-difference stencil point hit a divisor or coincident pair."""


class InvalidFactorIndex(G2ThetaError):
    """Factor indices for F_ij must satisfy 0 <= i < j <= 4."""


class QuadratureNonconvergence(G2ThetaError):
    """Tanh-sinh quadrature failed to converge within the level cap."""


class ConfigInvalid(G2ThetaError):
    """Run configuration (file or flags) could not be validated."""
