"""Exception types shared across the package, and the one rule for an
integer argument."""

import operator


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericFailureError(RuntimeError):
    """Raised when a computation leaves the float range or LAPACK fails:
    an overflowed combination block, a non-finite minimum or energy, or
    an eigensolver error."""


def _check_index(name: str, value) -> int:
    """An int or numpy integer ``value`` as an int, or InvalidInputError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
