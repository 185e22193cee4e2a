"""Exception types shared across the package, and the one rule for each
scalar argument: `_check_index` takes an int or numpy integer as an int
and never truncates a float; `_check_scale` takes a positive, finite
real.  A violation raises InvalidInputError saying "<name> must be an
integer, got <repr>", "<name> must be >= <low>, got <value>", "<name>
must be in [<low>, <high>], got <value>" or "<name> must be positive
and finite, got <repr>".
"""

import math
import numbers
import operator


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericFailureError(RuntimeError):
    """Raised when a computation leaves the float range or LAPACK fails:
    an overflowed draw or combination block, a non-finite minimum or
    energy, or an eigensolver error."""


def _check_index(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in [low, high], each bound if given, or InvalidInputError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= value <= high:
        raise InvalidInputError(f"{name} must be in [{low}, {high}], got {value}")
    if low is not None and value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")
    return value


def _check_scale(name: str, value: float) -> None:
    """A real number, positive and finite, or InvalidInputError."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")
