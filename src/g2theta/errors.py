"""Exception types shared across the library.

Every failure mode the library reports deliberately is one of these; anything
else escaping is a bug.  The CLI maps them to exit codes (see cli module).

A PointError belongs to one evaluation point.  The batched evaluations of
the suites (one grid of theta values for many points) return it as that
point's outcome and go on with the other points; every other error raises
for the whole batch.  outcome and settle convert between the two forms.
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


class InvalidFactorIndex(G2ThetaError):
    """Factor indices for F_ij must satisfy 0 <= i < j <= 4."""


class QuadratureNonconvergence(G2ThetaError):
    """Tanh-sinh quadrature failed to converge within the level cap."""


class ConfigInvalid(G2ThetaError):
    """Run configuration (file or flags) could not be validated."""


def outcome(fn, *args):
    """fn(*args), or the PointError it raised: one point's outcome in a batch."""
    try:
        return fn(*args)
    except PointError as exc:
        return exc


def settle(result):
    """The value of an outcome; the PointError it holds is raised."""
    if isinstance(result, PointError):
        raise result
    return result
