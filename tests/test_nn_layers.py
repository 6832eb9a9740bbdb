"""Tests for repro.nn.layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Softmax,
    layer_from_config,
)
from repro.utils.errors import ConfigurationError, ShapeError

RNG = np.random.default_rng(0)


def numerical_input_gradient(layer, x, grad_output, eps=1e-6):
    """Central-difference gradient of sum(output * grad_output) w.r.t. x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = np.sum(layer.forward(x) * grad_output)
        flat[i] = original - eps
        minus = np.sum(layer.forward(x) * grad_output)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def numerical_param_gradient(layer, x, grad_output, param_name, eps=1e-6):
    """Central-difference gradient w.r.t. one parameter tensor."""
    param = layer.params[param_name]
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = np.sum(layer.forward(x) * grad_output)
        flat[i] = original - eps
        minus = np.sum(layer.forward(x) * grad_output)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradients(layer, x, check_params=True, atol=1e-6):
    """Compare analytic backward() gradients against numerical ones."""
    out = layer.forward(x)
    grad_output = np.random.default_rng(99).standard_normal(out.shape)
    layer.forward(x)  # refresh the cache used by backward
    grad_input = layer.backward(grad_output)

    expected_input = numerical_input_gradient(layer, x, grad_output)
    np.testing.assert_allclose(grad_input, expected_input, atol=atol)

    if check_params:
        # Re-run forward/backward so parameter gradients match the same state.
        layer.forward(x)
        layer.backward(grad_output)
        for name in layer.params:
            expected = numerical_param_gradient(layer, x, grad_output, name)
            np.testing.assert_allclose(layer.grads[name], expected, atol=atol)


class TestDense:
    def test_forward_shape(self):
        layer = Dense(5, 3, seed=0)
        out = layer.forward(RNG.random((4, 5)))
        assert out.shape == (4, 3)

    def test_forward_is_affine(self):
        layer = Dense(4, 2, seed=0)
        x = RNG.random((3, 4))
        expected = x @ layer.params["W"] + layer.params["b"]
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_no_bias(self):
        layer = Dense(4, 2, use_bias=False, seed=0)
        assert "b" not in layer.params
        assert layer.n_params == 8

    def test_gradients(self):
        layer = Dense(6, 4, seed=1)
        check_gradients(layer, RNG.random((3, 6)))

    def test_wrong_input_shape_raises(self):
        layer = Dense(6, 4)
        with pytest.raises(ShapeError):
            layer.forward(RNG.random((3, 5)))

    def test_backward_before_forward_raises(self):
        layer = Dense(3, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 3)

    def test_unknown_init_raises(self):
        with pytest.raises(ConfigurationError):
            Dense(3, 3, weight_init="magic")

    def test_deterministic_init(self):
        a = Dense(5, 5, seed=3).params["W"]
        b = Dense(5, 5, seed=3).params["W"]
        np.testing.assert_array_equal(a, b)

    def test_config_roundtrip(self):
        layer = Dense(7, 2, use_bias=False, seed=5, name="mydense")
        rebuilt = layer_from_config(layer.get_config())
        assert isinstance(rebuilt, Dense)
        assert rebuilt.in_features == 7
        assert rebuilt.out_features == 2
        assert rebuilt.use_bias is False
        assert rebuilt.name == "mydense"


class TestConv2D:
    def test_forward_shape(self):
        layer = Conv2D(3, 8, 3, stride=1, padding=1, seed=0)
        out = layer.forward(RNG.random((2, 8, 8, 3)))
        assert out.shape == (2, 8, 8, 8)

    def test_strided_shape(self):
        layer = Conv2D(1, 4, 5, stride=2, padding=2, seed=0)
        out = layer.forward(RNG.random((1, 12, 12, 1)))
        assert out.shape == (1, 6, 6, 4)

    def test_gradients(self):
        layer = Conv2D(2, 3, 3, stride=1, padding=1, seed=2)
        check_gradients(layer, RNG.random((2, 5, 5, 2)), atol=1e-5)

    def test_gradients_strided_no_bias(self):
        layer = Conv2D(1, 2, 3, stride=2, padding=0, use_bias=False, seed=2)
        check_gradients(layer, RNG.random((1, 7, 7, 1)), atol=1e-5)

    def test_identity_kernel(self):
        layer = Conv2D(1, 1, 1, use_bias=False, seed=0)
        layer.params["W"][...] = 1.0
        x = RNG.random((1, 4, 4, 1))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_wrong_channels_raises(self):
        layer = Conv2D(3, 4, 3)
        with pytest.raises(ShapeError):
            layer.forward(RNG.random((1, 6, 6, 1)))

    def test_config_roundtrip(self):
        layer = Conv2D(3, 16, 5, stride=2, padding=2, seed=1)
        rebuilt = layer_from_config(layer.get_config())
        assert rebuilt.params["W"].shape == (5, 5, 3, 16)
        assert rebuilt.stride == 2


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradients(self):
        layer = MaxPool2D(2)
        # distinct values avoid ties in argmax, which would break the numeric check
        x = RNG.permutation(np.arange(2 * 6 * 6 * 2, dtype=float)).reshape(2, 6, 6, 2)
        check_gradients(layer, x, check_params=False)

    def test_maxpool_channels_independent(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, :, :, 0] = [[1, 2], [3, 4]]
        x[0, :, :, 1] = [[8, 7], [6, 5]]
        out = MaxPool2D(2).forward(x)
        assert out[0, 0, 0, 0] == 4
        assert out[0, 0, 0, 1] == 8

    def test_pool_invalid_config(self):
        with pytest.raises(ConfigurationError):
            MaxPool2D(0)

    def test_pool_requires_nhwc(self):
        with pytest.raises(ShapeError):
            MaxPool2D(2).forward(np.ones((4, 4)))


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, Softmax])
    def test_shape_preserved(self, layer_cls):
        x = RNG.standard_normal((3, 7))
        assert layer_cls().forward(x).shape == x.shape

    def test_relu_values(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_softmax_rows_sum_to_one(self):
        out = Softmax().forward(RNG.standard_normal((5, 9)) * 50)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)
        assert np.all(out > 0)

    def test_softmax_shift_invariance(self):
        x = RNG.standard_normal((2, 4))
        a = Softmax().forward(x)
        b = Softmax().forward(x + 100.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("layer", [ReLU(), Softmax()])
    def test_gradients(self, layer):
        # offset avoids the ReLU kink at exactly zero
        x = RNG.standard_normal((3, 5)) + 0.05
        check_gradients(layer, x, check_params=False)


class TestFlatten:
    def test_forward_shape(self):
        out = Flatten().forward(RNG.random((4, 3, 3, 2)))
        assert out.shape == (4, 18)

    def test_backward_restores_shape(self):
        layer = Flatten()
        x = RNG.random((2, 3, 4, 5))
        layer.forward(x)
        grad = layer.backward(np.ones((2, 60)))
        assert grad.shape == x.shape


class TestDropout:
    def test_inference_is_identity(self):
        x = RNG.random((5, 10))
        np.testing.assert_array_equal(Dropout(0.5, seed=0).forward(x, training=False), x)

    def test_training_zeroes_and_scales(self):
        layer = Dropout(0.5, seed=0)
        x = np.ones((200, 50))
        out = layer.forward(x, training=True)
        dropped = np.mean(out == 0.0)
        assert 0.3 < dropped < 0.7
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_zero_rate_is_identity_in_training(self):
        x = RNG.random((3, 4))
        np.testing.assert_array_equal(Dropout(0.0).forward(x, training=True), x)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, seed=1)
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestLayerRegistry:
    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            layer_from_config({"kind": "NotALayer"})

    @pytest.mark.parametrize(
        "layer",
        [
            ReLU(name="r"),
            Flatten(),
            MaxPool2D(3, stride=2),
            Dropout(0.25, seed=9),
            Softmax(),
        ],
    )
    def test_roundtrip_preserves_type(self, layer):
        rebuilt = layer_from_config(layer.get_config())
        assert type(rebuilt) is type(layer)

    def test_zero_grads(self):
        layer = Dense(3, 2, seed=0)
        layer.forward(RNG.random((4, 3)))
        layer.backward(RNG.random((4, 2)))
        assert np.any(layer.grads["W"] != 0)
        layer.zero_grads()
        assert np.all(layer.grads["W"] == 0)


def _stack(x, lanes, scale=0.1):
    """``lanes`` distinct copies of ``x`` along a new leading lane axis."""
    return np.stack([x + scale * lane for lane in range(lanes)])


class TestStackedMode:
    """A stacked pass (leading lane axis) must equal one scalar pass per lane.

    The attack solves every lane of a stack at once and relies on each lane
    being bit-identical to the scalar solve of that lane.
    """

    LANES = 3

    @pytest.mark.parametrize("per_lane", [False, True], ids=["shared", "per_lane"])
    def test_dense_forward_lane_equals_scalar(self, per_lane):
        layer = Dense(5, 4, seed=0)
        x = _stack(RNG.random((6, 5)), self.LANES)
        if per_lane:
            layer.params["W"] = _stack(layer.params["W"], self.LANES)
            layer.params["b"] = _stack(layer.params["b"] + 0.3, self.LANES)
        stacked = layer.forward(x)
        assert stacked.shape == (self.LANES, 6, 4)
        for lane in range(self.LANES):
            scalar = Dense(5, 4, seed=0)
            scalar.params = {k: v[lane] if per_lane else v for k, v in layer.params.items()}
            np.testing.assert_array_equal(stacked[lane], scalar.forward(x[lane]))

    @pytest.mark.parametrize("per_lane", [False, True], ids=["shared", "per_lane"])
    def test_dense_backward_lane_equals_scalar(self, per_lane):
        layer = Dense(5, 4, seed=0)
        x = _stack(RNG.random((6, 5)), self.LANES)
        g = RNG.standard_normal((self.LANES, 6, 4))
        if per_lane:
            layer.params["W"] = _stack(layer.params["W"], self.LANES)
            layer.params["b"] = _stack(layer.params["b"], self.LANES)
        layer.forward(x)
        grad_in = layer.backward(g)
        scalar_w, scalar_b = [], []
        for lane in range(self.LANES):
            scalar = Dense(5, 4, seed=0)
            scalar.params = {k: v[lane] if per_lane else v for k, v in layer.params.items()}
            scalar.forward(x[lane])
            np.testing.assert_allclose(grad_in[lane], scalar.backward(g[lane]), rtol=1e-12)
            scalar_w.append(scalar.grads["W"])
            scalar_b.append(scalar.grads["b"])
        if per_lane:
            np.testing.assert_allclose(layer.grads["W"], np.stack(scalar_w), rtol=1e-12)
            np.testing.assert_allclose(layer.grads["b"], np.stack(scalar_b), rtol=1e-12)
        else:
            # A shared parameter's gradient sums the contributions of every lane.
            np.testing.assert_allclose(layer.grads["W"], np.sum(scalar_w, axis=0), rtol=1e-12)
            np.testing.assert_allclose(layer.grads["b"], np.sum(scalar_b, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("per_lane", [False, True], ids=["shared", "per_lane"])
    def test_conv_forward_lane_equals_scalar(self, per_lane):
        layer = Conv2D(2, 3, 3, padding=1, seed=1)
        x = _stack(RNG.random((2, 5, 5, 2)), self.LANES)
        if per_lane:
            layer.params["W"] = _stack(layer.params["W"], self.LANES)
            layer.params["b"] = _stack(layer.params["b"] + 0.2, self.LANES)
        stacked = layer.forward(x)
        assert stacked.shape == (self.LANES, 2, 5, 5, 3)
        for lane in range(self.LANES):
            scalar = Conv2D(2, 3, 3, padding=1, seed=1)
            scalar.params = {k: v[lane] if per_lane else v for k, v in layer.params.items()}
            np.testing.assert_array_equal(stacked[lane], scalar.forward(x[lane]))

    @pytest.mark.parametrize("per_lane", [False, True], ids=["shared", "per_lane"])
    def test_conv_backward_lane_equals_scalar(self, per_lane):
        layer = Conv2D(2, 3, 3, stride=2, padding=1, seed=1)
        x = _stack(RNG.random((2, 5, 5, 2)), self.LANES)
        if per_lane:
            layer.params["W"] = _stack(layer.params["W"], self.LANES)
            layer.params["b"] = _stack(layer.params["b"], self.LANES)
        out = layer.forward(x)
        g = RNG.standard_normal(out.shape)
        grad_in = layer.backward(g)
        assert grad_in.shape == x.shape
        scalar_w, scalar_b = [], []
        for lane in range(self.LANES):
            scalar = Conv2D(2, 3, 3, stride=2, padding=1, seed=1)
            scalar.params = {k: v[lane] if per_lane else v for k, v in layer.params.items()}
            scalar.forward(x[lane])
            np.testing.assert_allclose(grad_in[lane], scalar.backward(g[lane]), rtol=1e-12)
            scalar_w.append(scalar.grads["W"])
            scalar_b.append(scalar.grads["b"])
        if per_lane:
            np.testing.assert_allclose(layer.grads["W"], np.stack(scalar_w), rtol=1e-12)
            np.testing.assert_allclose(layer.grads["b"], np.stack(scalar_b), rtol=1e-12)
        else:
            np.testing.assert_allclose(layer.grads["W"], np.sum(scalar_w, axis=0), rtol=1e-12)
            np.testing.assert_allclose(layer.grads["b"], np.sum(scalar_b, axis=0), rtol=1e-12)

    def test_maxpool_lane_equals_scalar(self):
        layer = MaxPool2D(2)
        x = _stack(RNG.random((2, 6, 6, 3)), self.LANES)
        out = layer.forward(x)
        assert out.shape == (self.LANES, 2, 3, 3, 3)
        g = RNG.standard_normal(out.shape)
        grad_in = layer.backward(g)
        for lane in range(self.LANES):
            scalar = MaxPool2D(2)
            np.testing.assert_array_equal(out[lane], scalar.forward(x[lane]))
            np.testing.assert_array_equal(grad_in[lane], scalar.backward(g[lane]))

    def test_flatten_keeps_lane_axis(self):
        layer = Flatten()
        layer.lanes = self.LANES
        x = RNG.random((self.LANES, 4, 3, 3, 2))
        out = layer.forward(x)
        assert out.shape == (self.LANES, 4, 18)
        np.testing.assert_array_equal(out[1], Flatten().forward(x[1]))
        assert layer.backward(np.ones_like(out)).shape == x.shape

    def test_flatten_without_lanes_folds_everything(self):
        # Outside stacked mode a leading axis is the batch, whatever its size.
        out = Flatten().forward(RNG.random((self.LANES, 4, 3, 3, 2)))
        assert out.shape == (self.LANES, 72)

    @pytest.mark.parametrize("layer_cls", [ReLU, Softmax])
    def test_elementwise_lane_equals_scalar(self, layer_cls):
        layer = layer_cls()
        x = RNG.standard_normal((self.LANES, 4, 6)) + 0.05
        out = layer.forward(x)
        g = RNG.standard_normal(out.shape)
        grad_in = layer.backward(g)
        for lane in range(self.LANES):
            scalar = layer_cls()
            np.testing.assert_array_equal(out[lane], scalar.forward(x[lane]))
            np.testing.assert_array_equal(grad_in[lane], scalar.backward(g[lane]))

    def test_dropout_inference_is_identity_when_stacked(self):
        x = RNG.random((self.LANES, 4, 6))
        layer = Dropout(0.5, seed=0)
        np.testing.assert_array_equal(layer.forward(x), x)
        np.testing.assert_array_equal(layer.backward(x), x)


class TestNeedInputGrad:
    """``need_input_grad=False`` skips the input gradient, not the parameter ones."""

    @pytest.mark.parametrize(
        "make_layer, shape",
        [
            (lambda: Dense(5, 3, seed=0), (4, 5)),
            (lambda: Dense(5, 3, seed=0), (2, 4, 5)),
            (lambda: Conv2D(2, 3, 3, padding=1, seed=0), (2, 4, 4, 2)),
            (lambda: Conv2D(2, 3, 3, padding=1, seed=0), (2, 2, 4, 4, 2)),
        ],
        ids=["dense", "dense_stacked", "conv", "conv_stacked"],
    )
    def test_fills_param_grads_and_returns_none(self, make_layer, shape):
        x = RNG.random(shape)
        full, partial = make_layer(), make_layer()
        g = RNG.standard_normal(full.forward(x).shape)
        assert full.backward(g) is not None
        partial.forward(x)
        assert partial.backward(g, need_input_grad=False) is None
        for name in full.params:
            np.testing.assert_array_equal(partial.grads[name], full.grads[name])


class TestBackwardBeforeForward:
    @pytest.mark.parametrize(
        "layer, grad_shape",
        [
            (Conv2D(1, 2, 3), (1, 2, 2, 2)),
            (MaxPool2D(2), (1, 2, 2, 1)),
            (Flatten(), (1, 4)),
            (ReLU(), (1, 4)),
            (Softmax(), (1, 4)),
        ],
        ids=["Conv2D", "MaxPool2D", "Flatten", "ReLU", "Softmax"],
    )
    def test_raises(self, layer, grad_shape):
        with pytest.raises(RuntimeError):
            layer.backward(np.ones(grad_shape))


ALL_KINDS = [
    Dense(7, 3, use_bias=False, weight_init="glorot_uniform", seed=4, name="fc"),
    Conv2D(3, 5, 3, stride=2, padding=1, weight_init="he_uniform", seed=2, name="conv"),
    MaxPool2D(3, stride=1, name="pool"),
    Flatten(name="flat"),
    ReLU(name="relu"),
    Softmax(name="probs"),
    Dropout(0.3, seed=7, name="drop"),
]


class TestConfigFixedPoint:
    @pytest.mark.parametrize("layer", ALL_KINDS, ids=lambda layer: type(layer).__name__)
    def test_rebuilt_layer_has_the_same_config(self, layer):
        config = layer.get_config()
        rebuilt = layer_from_config(config)
        assert rebuilt.get_config() == config
        for name, value in layer.params.items():
            # Rebuilding from the seed reproduces the initial parameters.
            np.testing.assert_array_equal(rebuilt.params[name], value)

    def test_callable_weight_init_is_stored_as_default_name(self):
        layer = Dense(3, 2, weight_init=lambda shape, fan_in, fan_out, rng: np.ones(shape))
        np.testing.assert_array_equal(layer.params["W"], np.ones((3, 2)))
        assert layer.get_config()["weight_init"] == "he_normal"

    def test_layer_from_config_does_not_mutate_its_argument(self):
        config = ReLU(name="r").get_config()
        layer_from_config(config)
        assert config == {"kind": "ReLU", "name": "r"}


class TestWeightInit:
    @pytest.mark.parametrize("init", sorted(Dense._INITS))
    def test_named_init_is_seeded_and_finite(self, init):
        a = Dense(6, 4, weight_init=init, seed=11)
        b = Dense(6, 4, weight_init=init, seed=11)
        assert a.params["W"].shape == (6, 4)
        assert np.all(np.isfinite(a.params["W"]))
        np.testing.assert_array_equal(a.params["W"], b.params["W"])
        np.testing.assert_array_equal(a.params["b"], np.zeros(4))

    def test_zeros_init_gives_zero_weights(self):
        np.testing.assert_array_equal(Dense(4, 3, weight_init="zeros").params["W"], 0.0)

    def test_conv_rejects_unknown_init(self):
        with pytest.raises(ConfigurationError):
            Conv2D(1, 2, 3, weight_init="magic")


class TestConvConfiguration:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"in_channels": 0},
            {"out_channels": 0},
            {"kernel_size": 0},
            {"stride": 0},
            {"padding": -1},
        ],
        ids=["in_channels", "out_channels", "kernel_size", "stride", "padding"],
    )
    def test_invalid_dimension_raises(self, kwargs):
        args = {"in_channels": 1, "out_channels": 2, "kernel_size": 3}
        args.update(kwargs)
        with pytest.raises(ConfigurationError):
            Conv2D(
                args.pop("in_channels"), args.pop("out_channels"), args.pop("kernel_size"), **args
            )

    def test_no_bias_param_count(self):
        layer = Conv2D(2, 4, 3, use_bias=False)
        assert set(layer.params) == {"W"}
        assert layer.n_params == 3 * 3 * 2 * 4

    def test_non_nhwc_raises(self):
        with pytest.raises(ShapeError):
            Conv2D(1, 2, 3).forward(RNG.random((4, 4, 1)))


class TestOverlappingPool:
    def test_values(self):
        x = np.arange(9, dtype=float).reshape(1, 3, 3, 1)
        out = MaxPool2D(2, stride=1).forward(x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[4, 5], [7, 8]])

    def test_gradients(self):
        x = RNG.permutation(np.arange(1 * 5 * 5 * 2, dtype=float)).reshape(1, 5, 5, 2)
        check_gradients(MaxPool2D(3, stride=1), x, check_params=False)

    def test_default_stride_is_pool_size(self):
        assert MaxPool2D(3).stride == 3
        assert MaxPool2D(3, stride=1).stride == 1


class TestDropoutDetails:
    def test_same_seed_same_mask(self):
        x = np.ones((8, 8))
        a = Dropout(0.5, seed=3).forward(x, training=True)
        b = Dropout(0.5, seed=3).forward(x, training=True)
        np.testing.assert_array_equal(a, b)

    def test_negative_rate_raises(self):
        with pytest.raises(ConfigurationError):
            Dropout(-0.1)

    def test_inference_forward_clears_training_mask(self):
        layer = Dropout(0.5, seed=0)
        layer.forward(np.ones((4, 4)), training=True)
        layer.forward(np.ones((4, 4)), training=False)
        g = RNG.standard_normal((4, 4))
        np.testing.assert_array_equal(layer.backward(g), g)


class TestActivationDetails:
    def test_relu_gradient_is_zero_at_and_below_zero(self):
        layer = ReLU()
        layer.forward(np.array([[-2.0, 0.0, 3.0]]))
        np.testing.assert_array_equal(layer.backward(np.ones((1, 3))), [[0.0, 0.0, 1.0]])

    def test_softmax_normalises_the_last_axis_of_3d_input(self):
        out = Softmax().forward(RNG.standard_normal((2, 3, 5)) * 20)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)
