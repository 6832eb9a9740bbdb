"""The :class:`Sequential` model container.

Besides the usual forward / backward / predict interface, the container
exposes the hooks the fault-sneaking attack relies on:

* :meth:`Sequential.logits` — the input to the final softmax layer (eq. (3)
  of the paper operates on logits, not probabilities);
* :meth:`Sequential.forward_between` — run an arbitrary slice of layers,
  which lets the attack cache the activations feeding the attacked layer;
* :meth:`Sequential.named_parameters` and in-place writable
  ``layer.params[...]`` arrays — the attack mutates parameters directly;
* :meth:`Sequential.snapshot` / :meth:`Sequential.restore` — cheap state
  save/restore around an attack or fault-injection campaign.
"""

from __future__ import annotations

import copy as _copy
from typing import Iterator, Sequence

import numpy as np

from repro.nn.layers import Dense, Layer, Softmax, layer_from_config
from repro.nn.metrics import accuracy as _accuracy
from repro.utils.errors import ConfigurationError

__all__ = ["Sequential"]


class Sequential:
    """A feed-forward stack of layers executed in order.

    Parameters
    ----------
    layers:
        The layers, executed first to last.  Layer names must be unique; a
        duplicate name gets a numeric suffix appended automatically.
    name:
        Optional model name used in reprs and serialised archives.
    """

    def __init__(self, layers: Sequence[Layer], *, name: str = "sequential"):
        if not layers:
            raise ConfigurationError("Sequential requires at least one layer")
        self.name = name
        self.layers: list[Layer] = list(layers)
        self._uniquify_names()

    # -- construction helpers -------------------------------------------------
    def _uniquify_names(self) -> None:
        seen: dict[str, int] = {}
        for layer in self.layers:
            base = layer.name
            if base not in seen:
                seen[base] = 0
                continue
            seen[base] += 1
            layer.name = f"{base}_{seen[base]}"
            seen[layer.name] = 0

    # -- inference -------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full network, including any trailing softmax."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    @property
    def logits_end(self) -> int:
        """Index one past the last layer that produces logits.

        If the network ends with a :class:`Softmax` layer, logits are the
        input to that layer; otherwise the final layer output already is the
        logit vector.
        """
        if self.layers and isinstance(self.layers[-1], Softmax):
            return len(self.layers) - 1
        return len(self.layers)

    @property
    def num_classes(self) -> int:
        """Width of the logit vector: ``out_features`` of the last :class:`Dense`
        layer (every layer that accepts its 2-D output keeps the width)."""
        for layer in reversed(self.layers[: self.logits_end]):
            if isinstance(layer, Dense):
                return layer.out_features
        raise ConfigurationError("the logits must come from a Dense layer")

    def logits(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Return the pre-softmax class scores ``Z(θ, x)``."""
        return self.forward_between(x, 0, self.logits_end, training=training)

    def forward_between(
        self, x: np.ndarray, start: int = 0, stop: int | None = None, training: bool = False
    ) -> np.ndarray:
        """Run only ``self.layers[start:stop]`` on ``x``.

        Used by the attack's feature cache: activations below the first
        attacked layer are computed once, then only the suffix is re-run as
        the parameter modification evolves.
        """
        stop = len(self.layers) if stop is None else stop
        if not 0 <= start <= stop <= len(self.layers):
            raise ConfigurationError(
                f"invalid layer slice [{start}, {stop}) for a model with "
                f"{len(self.layers)} layers"
            )
        out = x
        for layer in self.layers[start:stop]:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray, *, batch_size: int = 256) -> np.ndarray:
        """Return predicted integer labels for a batch of inputs."""
        return np.argmax(self.predict_logits(x, batch_size=batch_size), axis=1)

    def predict_logits(self, x: np.ndarray, *, batch_size: int = 256) -> np.ndarray:
        """Return logits, evaluated in mini-batches to bound memory use."""
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.logits(x[start : start + batch_size]))
        return np.concatenate(outputs, axis=0)

    def evaluate(self, x: np.ndarray, y: np.ndarray, *, batch_size: int = 256) -> float:
        """Return classification accuracy on ``(x, y)``."""
        return _accuracy(y, self.predict(x, batch_size=batch_size))

    # -- training support --------------------------------------------------------
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate a gradient from the final layer to the input."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def backward_between(
        self, grad_output: np.ndarray, start: int = 0, stop: int | None = None
    ) -> None:
        """Fill the parameter gradients of ``self.layers[start:stop]``.

        Unlike :meth:`backward`, this computes no gradient below the lowest
        layer of the slice that holds parameters: that layer fills only its
        parameter gradients, and the parameter-free layers beneath it are
        skipped.  Every layer assigns (never accumulates) its gradients, so
        nothing needs zeroing first.
        """
        stop = len(self.layers) if stop is None else stop
        layers = self.layers[start:stop]
        with_params = [index for index, layer in enumerate(layers) if layer.params]
        if not with_params:
            return
        bottom = with_params[0]
        grad = grad_output
        for layer in reversed(layers[bottom + 1 :]):
            grad = layer.backward(grad)
        layers[bottom].backward(grad, need_input_grad=False)

    # -- parameter access ---------------------------------------------------------
    @property
    def n_params(self) -> int:
        """Total number of trainable scalars in the model."""
        return sum(layer.n_params for layer in self.layers)

    def get_layer(self, name: str) -> Layer:
        """Return the layer with the given name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}; available: {[l.name for l in self.layers]}")

    def layer_index(self, name: str) -> int:
        """Return the positional index of the layer with the given name."""
        for index, layer in enumerate(self.layers):
            if layer.name == name:
                return index
        raise KeyError(f"no layer named {name!r}")

    def named_parameters(self) -> Iterator[tuple[str, str, np.ndarray]]:
        """Yield ``(layer_name, param_name, array)`` for every parameter."""
        for layer in self.layers:
            for param_name, value in layer.params.items():
                yield layer.name, param_name, value

    def snapshot(self) -> dict[str, np.ndarray]:
        """Return a deep copy of every parameter, keyed by ``layer/param``."""
        return {
            f"{layer_name}/{param_name}": value.copy()
            for layer_name, param_name, value in self.named_parameters()
        }

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters from a :meth:`snapshot` dictionary (in place)."""
        for layer_name, param_name, value in self.named_parameters():
            key = f"{layer_name}/{param_name}"
            if key not in state:
                raise KeyError(f"snapshot is missing parameter {key!r}")
            stored = state[key]
            if stored.shape != value.shape:
                raise ConfigurationError(
                    f"snapshot shape mismatch for {key}: {stored.shape} vs {value.shape}"
                )
            value[...] = stored

    def copy(self) -> "Sequential":
        """Return an independent deep copy of the model (structure + weights).

        The copy starts without the layers' forward caches (:attr:`Layer.SCRATCH`):
        after a stacked pass they hold activations of every lane.
        """
        memo: dict[int, None] = {}
        for layer in self.layers:
            for name in Layer.SCRATCH:
                if getattr(layer, name, None) is not None:
                    memo[id(getattr(layer, name))] = None
        return _copy.deepcopy(self, memo)

    # -- description -------------------------------------------------------------
    def get_config(self) -> dict:
        """Return a serialisable description of the architecture."""
        return {
            "name": self.name,
            "layers": [layer.get_config() for layer in self.layers],
        }

    @classmethod
    def from_config(cls, config: dict) -> "Sequential":
        """Rebuild an (untrained) model from :meth:`get_config` output."""
        layers = [layer_from_config(layer_cfg) for layer_cfg in config["layers"]]
        return cls(layers, name=config.get("name", "sequential"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sequential(name={self.name!r}, layers={len(self.layers)}, "
            f"n_params={self.n_params})"
        )
