"""The Adam optimizer that trains the substrate networks.

:class:`Adam` is bound to a model via :meth:`Adam.register` and then
updates every trainable parameter in place from the gradients the layers
accumulated during backpropagation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigurationError

__all__ = ["Adam", "BETA1", "BETA2", "EPS"]

# Kingma & Ba's defaults, the only values the victims have ever trained with.
BETA1 = 0.9  # decay of the first-moment (mean) estimate
BETA2 = 0.999  # decay of the second-moment (uncentred variance) estimate
EPS = 1e-8  # keeps the step finite where the second moment is zero


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with per-parameter state keyed by
    (layer, name); β1, β2 and ε are the constants :data:`BETA1`,
    :data:`BETA2` and :data:`EPS`."""

    def __init__(self, learning_rate: float = 0.001):
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self._layers: list = []
        self._state: dict[tuple[int, str], dict[str, np.ndarray]] = {}
        self.iterations = 0

    def register(self, model) -> "Adam":
        """Bind the optimizer to a model's trainable layers."""
        self._layers = [layer for layer in model.layers if layer.params]
        self._state.clear()
        self.iterations = 0
        return self

    def step(self) -> None:
        """Apply one update using the gradients currently stored on the layers."""
        if not self._layers:
            raise RuntimeError("optimizer.step() called before register(model)")
        self.iterations += 1
        for layer_index, layer in enumerate(self._layers):
            for name, param in layer.params.items():
                grad = layer.grads.get(name)
                if grad is None:
                    continue
                state = self._state.setdefault((layer_index, name), {})
                self._apply(param, grad, state)

    def _apply(self, param: np.ndarray, grad: np.ndarray, state: dict) -> None:
        m = state.setdefault("m", np.zeros_like(param))
        v = state.setdefault("v", np.zeros_like(param))
        m *= BETA1
        m += (1 - BETA1) * grad
        v *= BETA2
        v += (1 - BETA2) * grad**2
        m_hat = m / (1 - BETA1**self.iterations)
        v_hat = v / (1 - BETA2**self.iterations)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
