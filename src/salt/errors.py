"""Errors raised when a caller breaks an API contract."""

import math
import numbers


class ContractViolation(ValueError):
    """Input violates a documented precondition (shape, range, or mode mismatch)."""


def require_int(name: str, value, minimum: int) -> None:
    """Raise unless value is an integer, not a bool, and at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractViolation(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ContractViolation(f"{name} must be >= {minimum}, got {value}")


def require_real(name: str, value) -> float:
    """value as a float; raise unless it is a finite real number, not a bool."""
    # a finite float, the common case, skips the ABC checks; NaN and +-inf fail the chained comparison
    if type(value) is float and -math.inf < value < math.inf:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractViolation(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ContractViolation(f"{name} must be finite, got {value!r}")
    return float(value)


def require_str(name: str, value, choices: tuple[str, ...] = ()) -> None:
    """Raise unless value is a non-empty string, and one of choices if any are given."""
    if not isinstance(value, str) or not value:
        raise ContractViolation(f"{name} must be a non-empty string, got {value!r}")
    if choices and value not in choices:
        raise ContractViolation(f"{name} must be one of {list(choices)}, got {value!r}")
