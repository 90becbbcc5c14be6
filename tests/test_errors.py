"""The shared input checks of salt.errors."""
from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np
import pytest

from salt.errors import ContractViolation, require_real


def _require_real_reference(name: str, value) -> float:
    """require_real without its fast path for a finite float: every value
    through the ABC checks."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractViolation(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ContractViolation(f"{name} must be finite, got {value!r}")
    return float(value)


def _outcome(check, value):
    try:
        result = check("x", value)
    except ContractViolation as exc:
        return "raises", str(exc)
    return type(result), repr(result), math.copysign(1.0, result)


@pytest.mark.parametrize(
    "value",
    [
        0.25,
        -0.0,
        1e308,
        5e-324,
        True,
        False,
        float("nan"),
        float("inf"),
        float("-inf"),
        np.float64(1.5),
        np.float64("nan"),
        np.float64("-inf"),
        np.float32(0.1),
        np.bool_(True),
        3,
        -7,
        np.int64(4),
        Fraction(1, 3),
        "1.0",
        None,
        1j,
    ],
)
def test_require_real_outcomes_are_unchanged(value):
    """The same float, the same error message, or the same rejection as the
    ABC path gives, for every kind of value a config or a caller may pass."""
    assert _outcome(require_real, value) == _outcome(_require_real_reference, value)


def test_require_real_returns_a_finite_float_itself():
    value = 0.1 + 0.2
    assert require_real("x", value) is value
