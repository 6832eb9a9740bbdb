"""Argument validation helpers shared by the public API surface.

They raise early with messages naming the offending argument so that failures
surface at the call site rather than deep inside numpy broadcasting.
"""

from __future__ import annotations

import numbers
from typing import Any

__all__ = ["check_positive", "check_probability", "check_in_range"]


def check_positive(value: Any, *, name: str, strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) scalar."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: Any, *, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    return check_in_range(value, low=0.0, high=1.0, name=name)


def check_in_range(value: Any, *, low: float, high: float, name: str) -> float:
    """Validate that a scalar lies in ``[low, high]``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value
