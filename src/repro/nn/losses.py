"""The training loss.

A loss exposes ``value(outputs, targets)`` and
``gradient(outputs, targets)`` where ``outputs`` are whatever the model's
final layer produced (logits for :class:`CrossEntropyLoss`).  The attack's
hinge objective lives in :mod:`repro.attacks.objective`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ShapeError

__all__ = ["Loss", "CrossEntropyLoss", "softmax", "log_softmax"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check_labels(outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets)
    if targets.shape != outputs.shape[:-1]:
        raise ShapeError(
            f"targets must be an integer label array of shape {outputs.shape[:-1]} "
            f"(outputs without the class axis), got shape {targets.shape}"
        )
    if targets.min() < 0 or targets.max() >= outputs.shape[-1]:
        raise ValueError(
            f"label values must lie in [0, {outputs.shape[-1] - 1}], "
            f"got range [{targets.min()}, {targets.max()}]"
        )
    return targets.astype(np.int64)


class Loss:
    """Base class for losses operating on model outputs and integer labels."""

    def value(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        """Return the mean loss over the batch."""
        raise NotImplementedError

    def gradient(self, outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Return the gradient of the mean loss w.r.t. ``outputs``."""
        raise NotImplementedError

    def __call__(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        return self.value(outputs, targets)


class CrossEntropyLoss(Loss):
    """Softmax cross entropy evaluated on logits with integer class labels."""

    def value(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        targets = _check_labels(outputs, targets)
        log_probs = log_softmax(outputs)
        picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
        return float(-picked.mean())

    def gradient(self, outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        targets = _check_labels(outputs, targets)
        grad = softmax(outputs)
        idx = targets[..., None]
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) - 1.0, axis=-1)
        return grad / targets.size
