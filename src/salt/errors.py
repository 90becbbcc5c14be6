"""Errors raised when a caller breaks an API contract."""

import numbers


class ContractViolation(ValueError):
    """Input violates a documented precondition (shape, range, or mode mismatch)."""


def require_int(name: str, value, minimum: int) -> None:
    """Raise unless value is an integer, not a bool, and at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractViolation(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ContractViolation(f"{name} must be >= {minimum}, got {value}")
