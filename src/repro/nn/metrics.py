"""The classification metric used throughout the evaluation harness."""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ShapeError

__all__ = ["accuracy"]


def _check_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ShapeError(
            f"y_true and y_pred must be 1-D arrays of equal length, got "
            f"{y_true.shape} and {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ShapeError("metrics require at least one sample")
    return y_true.astype(np.int64), y_pred.astype(np.int64)


def accuracy(y_true, y_pred) -> float:
    """Fraction of predictions equal to the true labels."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))
