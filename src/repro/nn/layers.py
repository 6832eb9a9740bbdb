"""The victim's layers, with explicit forward/backward passes.

These are the layer kinds the C&W-style ReLU CNNs of
:mod:`repro.zoo.architectures` are built from: :class:`Conv2D`,
:class:`Dense`, :class:`MaxPool2D`, :class:`Flatten`, :class:`ReLU`,
:class:`Softmax` and, in training only, :class:`Dropout`.

Conventions
-----------
* Images use the NHWC layout ``(batch, height, width, channels)``; dense
  features are 2-D ``(batch, features)``.
* Every layer caches whatever it needs for backpropagation during
  :meth:`Layer.forward` and exposes parameter gradients through
  :attr:`Layer.grads` after :meth:`Layer.backward`.
* Parameters are ordinary numpy arrays accessible (and writable) through
  :attr:`Layer.params`; the fault-sneaking attack mutates them in place.
* Each layer type registers itself by name so that models can be rebuilt from
  a configuration dictionary (see :mod:`repro.nn.serialization`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import initializers
from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.utils.errors import ConfigurationError, ShapeError
from repro.utils.rng import RandomState

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ReLU",
    "Softmax",
    "Dropout",
    "layer_from_config",
]

_LAYER_REGISTRY: dict[str, type["Layer"]] = {}


def _register(cls: type["Layer"]) -> type["Layer"]:
    _LAYER_REGISTRY[cls.__name__] = cls
    return cls


def layer_from_config(config: dict) -> "Layer":
    """Rebuild a layer instance from its ``get_config`` dictionary."""
    config = dict(config)
    kind = config.pop("kind", None)
    if kind not in _LAYER_REGISTRY:
        raise ConfigurationError(f"unknown layer kind {kind!r}")
    return _LAYER_REGISTRY[kind](**config)


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward` and populate
    ``self.params`` / ``self.grads`` with identically keyed dictionaries of
    arrays when they hold trainable parameters.
    """

    # Attributes in which a forward pass keeps what backward needs.  They are
    # per-pass scratch, so :meth:`repro.nn.model.Sequential.copy` omits them.
    SCRATCH = ("_last_input", "_cache", "_mask", "_output")

    def __init__(self, name: str | None = None):
        self.name = name or self.__class__.__name__.lower()
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        # Number of stacked solve lanes when the model runs in stacked mode
        # (a leading lane axis on activations and, for attacked layers, on
        # parameters); ``None`` in ordinary scalar mode.  Set and cleared by
        # :class:`repro.attacks.parameter_view.StackedParameterView`.
        self.lanes: int | None = None

    # -- interface -----------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the gradient w.r.t. the input.

        Layers holding parameters also accept ``need_input_grad=False``: they
        then only fill :attr:`grads` and return ``None``, which is how
        :meth:`repro.nn.model.Sequential.backward_between` stops at its bottom
        layer.
        """
        raise NotImplementedError

    def get_config(self) -> dict:
        """Return a JSON-serialisable description sufficient to rebuild the layer."""
        return {"kind": self.__class__.__name__, "name": self.name}

    # -- conveniences --------------------------------------------------------
    @property
    def n_params(self) -> int:
        """Total number of trainable scalars held by the layer."""
        return int(sum(p.size for p in self.params.values()))

    def zero_grads(self) -> None:
        """Reset accumulated parameter gradients to zero."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r}, n_params={self.n_params})"


@_register
class Dense(Layer):
    """Fully connected layer computing ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    use_bias:
        Whether to include the additive bias term.
    weight_init:
        Initializer name (``"he_normal"``, ``"he_uniform"``, ``"glorot_uniform"``,
        ``"normal"``, ``"zeros"``) or a callable with the initializer signature.
    seed:
        Seed for parameter initialisation.
    """

    _INITS: dict[str, Callable] = {
        "he_normal": initializers.he_normal,
        "he_uniform": initializers.he_uniform,
        "glorot_uniform": initializers.glorot_uniform,
        "normal": initializers.normal_init,
        "zeros": initializers.zeros_init,
    }

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        use_bias: bool = True,
        weight_init: str = "he_normal",
        seed: int | None = None,
        name: str | None = None,
    ):
        super().__init__(name=name)
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Dense dimensions must be positive, got {in_features}x{out_features}"
            )
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(use_bias)
        self.weight_init = weight_init
        self.seed = seed

        rng = RandomState(seed)
        init = self._resolve_init(weight_init)
        self.params["W"] = init(
            (self.in_features, self.out_features), self.in_features, self.out_features, rng
        )
        if self.use_bias:
            self.params["b"] = np.zeros(self.out_features, dtype=np.float64)
        self.zero_grads()
        self._last_input: np.ndarray | None = None

    @classmethod
    def _resolve_init(cls, weight_init) -> Callable:
        if callable(weight_init):
            return weight_init
        try:
            return cls._INITS[weight_init]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown weight_init {weight_init!r}; expected one of {sorted(cls._INITS)}"
            ) from exc

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim == 3 and x.shape[2] == self.in_features:
            # Stacked mode: x is (lanes, N, in).  W is either per-lane
            # (lanes, in, out) or shared (in, out); matmul broadcasts both,
            # and each lane slice is the exact scalar GEMM.
            self._last_input = x
            out = np.matmul(x, self.params["W"])
            if self.use_bias:
                b = self.params["b"]
                out = out + (b[:, None, :] if b.ndim == 2 else b)
            return out
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Dense layer {self.name!r} expects input of shape (N, {self.in_features}), "
                f"got {x.shape}"
            )
        self._last_input = x
        out = x @ self.params["W"]
        if self.use_bias:
            out = out + self.params["b"]
        return out

    def backward(
        self, grad_output: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        if self._last_input is None:
            raise RuntimeError("backward called before forward")
        x = self._last_input
        w = self.params["W"]
        if x.ndim == 3:
            if w.ndim == 3:
                self.grads["W"] = np.matmul(x.transpose(0, 2, 1), grad_output)
            else:
                self.grads["W"] = np.tensordot(x, grad_output, axes=([0, 1], [0, 1]))
            if self.use_bias:
                per_lane = self.params["b"].ndim == 2
                self.grads["b"] = grad_output.sum(axis=1 if per_lane else (0, 1))
            if not need_input_grad:
                return None
            return np.matmul(grad_output, w.transpose(0, 2, 1) if w.ndim == 3 else w.T)
        self.grads["W"] = x.T @ grad_output
        if self.use_bias:
            self.grads["b"] = grad_output.sum(axis=0)
        if not need_input_grad:
            return None
        return grad_output @ w.T

    def get_config(self) -> dict:
        return {
            "kind": "Dense",
            "name": self.name,
            "in_features": self.in_features,
            "out_features": self.out_features,
            "use_bias": self.use_bias,
            "weight_init": self.weight_init if isinstance(self.weight_init, str) else "he_normal",
            "seed": self.seed,
        }


@_register
class Conv2D(Layer):
    """2-D convolution over NHWC inputs with square kernels.

    The weight tensor has shape ``(kernel, kernel, in_channels, out_channels)``
    and the forward pass is computed via im2col + matrix multiplication.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = True,
        weight_init: str = "he_normal",
        seed: int | None = None,
        name: str | None = None,
    ):
        super().__init__(name=name)
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ConfigurationError("Conv2D dimensions must be positive (padding >= 0)")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.use_bias = bool(use_bias)
        self.weight_init = weight_init
        self.seed = seed

        rng = RandomState(seed)
        init = Dense._resolve_init(weight_init)
        fan_in = kernel_size * kernel_size * in_channels
        fan_out = kernel_size * kernel_size * out_channels
        self.params["W"] = init(
            (kernel_size, kernel_size, in_channels, out_channels), fan_in, fan_out, rng
        )
        if self.use_bias:
            self.params["b"] = np.zeros(out_channels, dtype=np.float64)
        self.zero_grads()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim == 5 and x.shape[4] == self.in_channels:
            # Stacked mode: x is (lanes, N, H, W, C).  One im2col over the
            # folded (lanes*N) batch (a pure per-sample gather), then a
            # per-lane GEMM whose M dimension (N*oh*ow) matches the scalar
            # path exactly, so each lane is bit-identical to a scalar solve.
            lanes, n = x.shape[0], x.shape[1]
            folded = x.reshape(lanes * n, *x.shape[2:])
            cols, (out_h, out_w) = im2col(folded, self.kernel_size, self.stride, self.padding)
            k = cols.shape[1]
            w = self.params["W"]
            if w.ndim == 5:
                w_mat = w.reshape(lanes, k, self.out_channels)
            else:
                w_mat = w.reshape(k, self.out_channels)
            out = np.matmul(cols.reshape(lanes, n * out_h * out_w, k), w_mat)
            if self.use_bias:
                b = self.params["b"]
                out = out + (b[:, None, :] if b.ndim == 2 else b)
            self._cache = (x.shape, cols)
            return out.reshape(lanes, n, out_h, out_w, self.out_channels)
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(
                f"Conv2D layer {self.name!r} expects NHWC input with {self.in_channels} "
                f"channels, got shape {x.shape}"
            )
        n = x.shape[0]
        cols, (out_h, out_w) = im2col(x, self.kernel_size, self.stride, self.padding)
        w_mat = self.params["W"].reshape(-1, self.out_channels)
        out = cols @ w_mat
        if self.use_bias:
            out = out + self.params["b"]
        out = out.reshape(n, out_h, out_w, self.out_channels)
        self._cache = (x.shape, cols)
        return out

    def backward(
        self, grad_output: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        input_shape, cols = self._cache
        w = self.params["W"]
        if grad_output.ndim == 5:
            lanes, n, out_h, out_w, _ = grad_output.shape
            k = cols.shape[1]
            cols3 = cols.reshape(lanes, n * out_h * out_w, k)
            grad3 = grad_output.reshape(lanes, n * out_h * out_w, self.out_channels)
            if w.ndim == 5:
                self.grads["W"] = np.matmul(cols3.transpose(0, 2, 1), grad3).reshape(w.shape)
            else:
                self.grads["W"] = np.tensordot(
                    cols3, grad3, axes=([0, 1], [0, 1])
                ).reshape(w.shape)
            if self.use_bias:
                per_lane = self.params["b"].ndim == 2
                self.grads["b"] = grad3.sum(axis=1 if per_lane else (0, 1))
            if not need_input_grad:
                return None
            if w.ndim == 5:
                w_mat = w.reshape(lanes, k, self.out_channels)
                grad_cols = np.matmul(grad3, w_mat.transpose(0, 2, 1))
            else:
                grad_cols = np.matmul(grad3, w.reshape(k, self.out_channels).T)
            folded = col2im(
                grad_cols.reshape(lanes * n * out_h * out_w, k),
                (lanes * n, *input_shape[2:]),
                self.kernel_size,
                self.stride,
                self.padding,
            )
            return folded.reshape(input_shape)
        n, out_h, out_w, _ = grad_output.shape
        grad_mat = grad_output.reshape(n * out_h * out_w, self.out_channels)

        self.grads["W"] = (cols.T @ grad_mat).reshape(w.shape)
        if self.use_bias:
            self.grads["b"] = grad_mat.sum(axis=0)
        if not need_input_grad:
            return None

        w_mat = w.reshape(-1, self.out_channels)
        grad_cols = grad_mat @ w_mat.T
        return col2im(grad_cols, input_shape, self.kernel_size, self.stride, self.padding)

    def get_config(self) -> dict:
        return {
            "kind": "Conv2D",
            "name": self.name,
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
            "stride": self.stride,
            "padding": self.padding,
            "use_bias": self.use_bias,
            "weight_init": self.weight_init if isinstance(self.weight_init, str) else "he_normal",
            "seed": self.seed,
        }


@_register
class MaxPool2D(Layer):
    """Max pooling over non-overlapping (or strided) square windows."""

    def __init__(self, pool_size: int = 2, *, stride: int | None = None, name: str | None = None):
        super().__init__(name=name)
        if pool_size <= 0:
            raise ConfigurationError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else int(pool_size)
        self._cache: tuple | None = None

    def _fold_lanes(self, array: np.ndarray, op) -> np.ndarray:
        """Run a scalar forward/backward over (lanes*N, ...) and restack.

        Pooling is a pure per-sample operation, so folding the lane axis into
        the batch axis is bit-identical to pooling each lane separately.
        """
        lanes, n = array.shape[:2]
        out = op(array.reshape(lanes * n, *array.shape[2:]))
        return out.reshape(lanes, n, *out.shape[1:])

    def _patches(self, x: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
        n, h, w, c = x.shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        # Move channels in front of the patch axis so pooling reduces axis -1.
        cols, _ = im2col(x, self.pool_size, self.stride, 0)
        cols = cols.reshape(n * out_h * out_w, self.pool_size * self.pool_size, c)
        cols = cols.transpose(0, 2, 1).reshape(n * out_h * out_w * c, -1)
        return cols, (out_h, out_w)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim == 5:
            return self._fold_lanes(x, self.forward)
        if x.ndim != 4:
            raise ShapeError(f"MaxPool2D expects NHWC input, got shape {x.shape}")
        n, h, w, c = x.shape
        cols, (out_h, out_w) = self._patches(x)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._cache = (x.shape, argmax, (out_h, out_w))
        return out.reshape(n, out_h, out_w, c)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if grad_output.ndim == 5:
            return self._fold_lanes(grad_output, self.backward)
        input_shape, argmax, (out_h, out_w) = self._cache
        n, h, w, c = input_shape
        grad_flat = grad_output.reshape(-1)

        grad_cols = np.zeros(
            (grad_flat.size, self.pool_size * self.pool_size), dtype=grad_output.dtype
        )
        grad_cols[np.arange(grad_flat.size), argmax] = grad_flat
        # Undo the channel transpose applied in _patches, then col2im back.
        grad_cols = grad_cols.reshape(n * out_h * out_w, c, self.pool_size * self.pool_size)
        grad_cols = grad_cols.transpose(0, 2, 1).reshape(n * out_h * out_w, -1)
        return col2im(grad_cols, input_shape, self.pool_size, self.stride, 0)

    def get_config(self) -> dict:
        return {
            "kind": "MaxPool2D",
            "name": self.name,
            "pool_size": self.pool_size,
            "stride": self.stride,
        }


@_register
class Flatten(Layer):
    """Flatten all non-batch dimensions into a feature vector."""

    def __init__(self, name: str | None = None):
        super().__init__(name=name)
        self._input_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        self._input_shape = x.shape
        if self.lanes is not None and x.ndim > 2 and x.shape[0] == self.lanes:
            # Stacked mode: keep the lane axis, flatten per-sample features.
            return x.reshape(x.shape[0], x.shape[1], -1)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)


@_register
class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self, name: str | None = None):
        super().__init__(name=name)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


@_register
class Softmax(Layer):
    """Softmax layer producing a probability distribution over classes.

    The fault-sneaking objective works on *logits*, i.e. the input to this
    layer; :class:`repro.nn.model.Sequential` therefore exposes
    :meth:`~repro.nn.model.Sequential.logits` that stops before the softmax.
    """

    def __init__(self, name: str | None = None):
        super().__init__(name=name)
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._output = exp / exp.sum(axis=-1, keepdims=True)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        p = self._output
        dot = np.sum(grad_output * p, axis=-1, keepdims=True)
        return p * (grad_output - dot)


@_register
class Dropout(Layer):
    """Inverted dropout; active only when ``training=True``."""

    def __init__(self, rate: float = 0.5, *, seed: int | None = None, name: str | None = None):
        super().__init__(name=name)
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = seed
        self._rng = RandomState(seed)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def get_config(self) -> dict:
        return {"kind": "Dropout", "name": self.name, "rate": self.rate, "seed": self.seed}
