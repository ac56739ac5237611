"""Exception types shared across the package."""


class SpecsubError(Exception):
    """Base class for every error raised by specsub."""


class NonHermitianInput(SpecsubError):
    """Input matrix fails the Hermiticity tolerance, is not square, or overflows."""


class ConvergenceFailure(SpecsubError):
    """The eigensolver did not converge or its result failed the residual check."""


class DimensionMismatch(SpecsubError):
    """Operands have incompatible shapes."""


class EmptyComponent(SpecsubError):
    """A spectral partition would leave one side with no eigenvalues."""


class AmbiguousMembership(SpecsubError):
    """An eigenvalue sits on a selection-interval boundary within tolerance."""


class InvalidInterval(SpecsubError):
    """An interval is empty, reversed, or meets the spectrum where it must not."""


class DomainError(SpecsubError):
    """Argument outside the domain of a bound function."""


class GapConditionViolated(DomainError):
    """||V+|| + ||V-|| lies outside the hypothesis of a bound or of a path scan."""


class BracketFailure(SpecsubError):
    """Root bracketing failed; indicates an implementation bug, not bad input."""


class InfeasibleConstraint(SpecsubError):
    """The product constraint cannot be met with the allowed partition size."""


class InvalidSpec(SpecsubError):
    """Invalid parameters for random instance generation or a fuzz campaign."""


class ParseError(SpecsubError):
    """A problem or report file does not match the expected format."""
