"""The Adam optimizer that trains the substrate networks.

:class:`Adam` is bound to a model via :meth:`Adam.register` and then
updates every trainable parameter in place from the gradients the layers
accumulated during backpropagation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigurationError

__all__ = ["Adam"]


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with per-parameter state keyed by
    (layer, name)."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1 and beta2 must be in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
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
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad**2
        m_hat = m / (1 - self.beta1**self.iterations)
        v_hat = v / (1 - self.beta2**self.iterations)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
