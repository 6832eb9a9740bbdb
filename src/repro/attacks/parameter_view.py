"""Flat views over a selected subset of model parameters.

The paper's attack modifies "either all the DNN parameters or only a portion
of the parameters, e.g. weight parameters of the specific layer(s)" (§3).
:class:`ParameterSelector` describes that portion symbolically (layer names,
weights and/or biases) and :class:`ParameterView` materialises it as a single
flat vector ``θ`` with scatter/gather operations, which is the representation
the ADMM solver works in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.nn.model import Sequential
from repro.utils.errors import ConfigurationError, ShapeError

__all__ = [
    "ParameterSelector",
    "ParameterView",
    "SelectedParameter",
    "StackedParameterView",
]

_WEIGHT_NAMES = ("W", "gamma")
_BIAS_NAMES = ("b", "beta")


@dataclass(frozen=True)
class ParameterSelector:
    """Symbolic description of the attacked parameter subset.

    Parameters
    ----------
    layers:
        Names of layers whose parameters may be modified.  ``None`` selects
        every trainable layer (the paper's "all the DNN parameters" case).
    include_weights:
        Whether multiplicative parameters (``W``/``gamma``) are attackable.
    include_biases:
        Whether additive parameters (``b``/``beta``) are attackable.
    """

    layers: tuple[str, ...] | None = ("fc_logits",)
    include_weights: bool = True
    include_biases: bool = True

    def __post_init__(self):
        if not self.include_weights and not self.include_biases:
            raise ConfigurationError(
                "selector must include at least one of weights or biases"
            )
        if self.layers is not None and len(self.layers) == 0:
            raise ConfigurationError("layers must be None (= all) or a non-empty tuple")

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        where = "all layers" if self.layers is None else "+".join(self.layers)
        kinds = []
        if self.include_weights:
            kinds.append("weights")
        if self.include_biases:
            kinds.append("biases")
        return f"{where} ({', '.join(kinds)})"

    def wants(self, param_name: str) -> bool:
        """Return whether a parameter with this name is selected."""
        if param_name in _WEIGHT_NAMES:
            return self.include_weights
        if param_name in _BIAS_NAMES:
            return self.include_biases
        # Unknown parameter kinds follow the weight switch.
        return self.include_weights


@dataclass(frozen=True)
class SelectedParameter:
    """One contiguous block of the flat attacked-parameter vector."""

    layer_name: str
    layer_index: int
    param_name: str
    shape: tuple[int, ...]
    offset: int

    # Both are read for every block of every apply/gather on the solve's hot
    # path, and the fields are frozen, so each is computed once.
    @cached_property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def slice(self) -> slice:
        return slice(self.offset, self.offset + self.size)


class ParameterView:
    """A writable flat view over the parameters selected by a selector.

    The view snapshots the original values ``θ`` at construction time;
    :meth:`apply_delta` writes ``θ + δ`` into the live model and
    :meth:`restore` puts the original values back.  All vectors handled by the
    attack (``δ``, ``z``, ``s`` and gradients) share the ordering defined by
    :attr:`blocks`.
    """

    def __init__(self, model: Sequential, selector: ParameterSelector | None = None):
        self.model = model
        self.selector = selector or ParameterSelector()
        self.blocks: list[SelectedParameter] = self._resolve_blocks()
        if not self.blocks:
            raise ConfigurationError(
                f"selector {self.selector.describe()!r} matches no parameters of model "
                f"{model.name!r}"
            )
        # Number of attackable scalars (the dimension of δ); the blocks are
        # fixed at construction, so it is computed once.
        self.size = sum(block.size for block in self.blocks)
        self._baseline = self.gather()

    # -- block resolution -------------------------------------------------------
    def _resolve_blocks(self) -> list[SelectedParameter]:
        selector = self.selector
        if selector.layers is not None:
            known = {layer.name for layer in self.model.layers}
            missing = [name for name in selector.layers if name not in known]
            if missing:
                raise ConfigurationError(
                    f"selector references unknown layers {missing}; "
                    f"model layers are {sorted(known)}"
                )
        blocks: list[SelectedParameter] = []
        offset = 0
        for layer_index, layer in enumerate(self.model.layers):
            if not layer.params:
                continue
            if selector.layers is not None and layer.name not in selector.layers:
                continue
            for param_name, value in layer.params.items():
                if not selector.wants(param_name):
                    continue
                block = SelectedParameter(
                    layer_name=layer.name,
                    layer_index=layer_index,
                    param_name=param_name,
                    shape=tuple(value.shape),
                    offset=offset,
                )
                blocks.append(block)
                offset += block.size
        return blocks

    # -- basic properties ---------------------------------------------------------
    @property
    def baseline(self) -> np.ndarray:
        """The original parameter values ``θ`` (copy)."""
        return self._baseline.copy()

    @property
    def first_layer_index(self) -> int:
        """Smallest model-layer index containing an attacked parameter.

        Activations below this index never change during the attack, which is
        what makes the feature cache in :class:`repro.attacks.objective.AttackObjective`
        valid.
        """
        return min(block.layer_index for block in self.blocks)

    # -- gather / scatter ---------------------------------------------------------
    def gather(self) -> np.ndarray:
        """Read the current values of the selected parameters as a flat vector."""
        out = np.empty(self.size, dtype=np.float64)
        for block in self.blocks:
            layer = self.model.layers[block.layer_index]
            out[block.slice] = layer.params[block.param_name].reshape(-1)
        return out

    def scatter(self, values: np.ndarray) -> None:
        """Write a flat vector into the live model parameters (in place)."""
        values = self._check_vector(values, name="values")
        for block in self.blocks:
            layer = self.model.layers[block.layer_index]
            layer.params[block.param_name][...] = values[block.slice].reshape(block.shape)

    def gather_grads(self) -> np.ndarray:
        """Read the accumulated gradients of the selected parameters."""
        out = np.empty(self.size, dtype=np.float64)
        for block in self.blocks:
            layer = self.model.layers[block.layer_index]
            grad = layer.grads.get(block.param_name)
            if grad is None or grad.shape != block.shape:
                raise ShapeError(
                    f"layer {block.layer_name!r} holds no gradient for "
                    f"{block.param_name!r}; run a backward pass first"
                )
            out[block.slice] = grad.reshape(-1)
        return out

    # -- δ application -------------------------------------------------------------
    def apply_delta(self, delta: np.ndarray) -> None:
        """Write ``θ + δ`` into the live model."""
        delta = self._check_vector(delta, name="delta")
        self.scatter(self._baseline + delta)

    def restore(self) -> None:
        """Write the original ``θ`` back into the live model."""
        self.scatter(self._baseline)

    def applied(self, delta: np.ndarray) -> "_AppliedDelta":
        """Context manager applying ``δ`` and restoring ``θ`` on exit."""
        return _AppliedDelta(self, delta)

    def as_param_dict(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Split a flat vector into per-parameter tensors keyed by layer/param."""
        vector = self._check_vector(vector, name="vector")
        return {
            f"{block.layer_name}/{block.param_name}": vector[block.slice].reshape(block.shape)
            for block in self.blocks
        }

    def _check_vector(self, vector: np.ndarray, *, name: str) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.size,):
            raise ShapeError(
                f"{name} must be a flat vector of length {self.size}, got shape {vector.shape}"
            )
        return vector

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParameterView(model={self.model.name!r}, selection={self.selector.describe()!r}, "
            f"size={self.size})"
        )


class _AppliedDelta:
    """Context manager used by :meth:`ParameterView.applied`."""

    def __init__(self, view: ParameterView, delta: np.ndarray):
        self._view = view
        self._delta = delta

    def __enter__(self) -> ParameterView:
        self._view.apply_delta(self._delta)
        return self._view

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._view.restore()
        return False


class StackedParameterView:
    """Apply ``lanes`` independent δ vectors to one model at once.

    Built on top of a scalar :class:`ParameterView`, this applies a matrix of
    deltas ``(lanes, size)`` by *replacing* each attacked parameter tensor
    with a per-lane stack of shape ``(lanes, *block.shape)`` and flipping
    every layer of the model into stacked mode (``layer.lanes``).  Layers
    then broadcast a leading lane axis through forward/backward, so one
    stacked pass computes what ``lanes`` scalar passes would — bit for bit,
    because every lane slice runs the exact scalar kernel.

    The original parameter arrays are kept aside and put back *by object* on
    :meth:`restore`, so external references into ``layer.params`` stay valid.
    """

    def __init__(self, view: ParameterView, lanes: int):
        if lanes <= 0:
            raise ConfigurationError(f"lanes must be positive, got {lanes}")
        self.view = view
        self.lanes = int(lanes)
        self._saved: dict[tuple[int, str], np.ndarray] | None = None

    @property
    def size(self) -> int:
        return self.view.size

    @property
    def model(self) -> Sequential:
        return self.view.model

    def apply_deltas(self, deltas: np.ndarray) -> None:
        """Write ``θ + δ_l`` for every lane ``l`` into the live model."""
        deltas = self._check_matrix(deltas)
        if self._saved is None:
            self._saved = {}
            for block in self.view.blocks:
                layer = self.model.layers[block.layer_index]
                self._saved[(block.layer_index, block.param_name)] = layer.params[
                    block.param_name
                ]
            for layer in self.model.layers:
                layer.lanes = self.lanes
        baseline = self.view._baseline
        for block in self.view.blocks:
            layer = self.model.layers[block.layer_index]
            stacked = baseline[block.slice][None, :] + deltas[:, block.slice]
            layer.params[block.param_name] = stacked.reshape(self.lanes, *block.shape)

    def restore(self) -> None:
        """Put the original scalar parameter arrays back and leave stacked mode."""
        if self._saved is None:
            return
        for (layer_index, param_name), original in self._saved.items():
            self.model.layers[layer_index].params[param_name] = original
        for layer in self.model.layers:
            layer.lanes = None
        self._saved = None

    def applied(self, deltas: np.ndarray) -> "_AppliedDeltas":
        """Context manager applying per-lane deltas and restoring θ on exit."""
        return _AppliedDeltas(self, deltas)

    def gather_grads(self) -> np.ndarray:
        """Read per-lane gradients of the attacked parameters as (lanes, size)."""
        out = np.empty((self.lanes, self.size), dtype=np.float64)
        for block in self.view.blocks:
            layer = self.model.layers[block.layer_index]
            grad = layer.grads.get(block.param_name)
            expected = (self.lanes, *block.shape)
            if grad is None or grad.shape != expected:
                raise ShapeError(
                    f"layer {block.layer_name!r} holds no stacked gradient for "
                    f"{block.param_name!r} (expected shape {expected}); "
                    f"run a stacked backward pass first"
                )
            out[:, block.slice] = grad.reshape(self.lanes, -1)
        return out

    def _check_matrix(self, deltas: np.ndarray) -> np.ndarray:
        deltas = np.asarray(deltas, dtype=np.float64)
        if deltas.shape != (self.lanes, self.size):
            raise ShapeError(
                f"deltas must have shape ({self.lanes}, {self.size}), got {deltas.shape}"
            )
        return deltas

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StackedParameterView(lanes={self.lanes}, base={self.view!r})"


class _AppliedDeltas:
    """Context manager used by :meth:`StackedParameterView.applied`."""

    def __init__(self, view: StackedParameterView, deltas: np.ndarray):
        self._view = view
        self._deltas = deltas

    def __enter__(self) -> StackedParameterView:
        self._view.apply_deltas(self._deltas)
        return self._view

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._view.restore()
        return False
