"""Error taxonomy shared across the package.

Domain errors are bad inputs, capability errors are refusals of requests the
implementation cannot honor at acceptable cost, numeric errors are detected
breakdowns (overflow, invalid values), and convergence errors mean a result
failed its own refinement check and must not be trusted.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class CapabilityError(ValueError):
    """Request exceeds a documented size/cost limit of an operation."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or otherwise invalid values."""


class ConvergenceError(RuntimeError):
    """A refinement moved by far more than the tolerance, or an outcome scan missed its cut."""
