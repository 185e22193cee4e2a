"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericFailureError(RuntimeError):
    """Raised when a computation leaves the float range or LAPACK fails:
    an overflowed combination block, a non-finite minimum or energy, or
    an eigensolver error."""
