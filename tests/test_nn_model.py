"""Tests for repro.nn.model.Sequential."""

from unittest import mock

import numpy as np
import pytest

from repro.nn import layers as layers_module
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, Layer, ReLU, Softmax
from repro.nn.model import Sequential
from repro.utils.errors import ConfigurationError

RNG = np.random.default_rng(0)


def small_model(seed=0):
    return Sequential(
        [
            Flatten(name="flatten"),
            Dense(16, 12, seed=seed, name="fc1"),
            ReLU(name="relu1"),
            Dense(12, 4, seed=seed + 1, name="fc_logits"),
            Softmax(name="softmax"),
        ],
        name="small",
    )


def conv_model(seed=0):
    """A conv → dense → dense stack with no pooling, so ``col2im`` only runs
    in a convolution's input gradient, and no softmax, so
    :meth:`Sequential.backward` is the full backward of the logits."""
    return Sequential(
        [
            Conv2D(1, 2, 3, seed=seed, name="conv1"),
            ReLU(name="relu1"),
            Flatten(name="flatten"),
            Dense(18, 8, seed=seed + 1, name="fc2"),
            ReLU(name="relu2"),
            Dense(8, 4, seed=seed + 2, name="fc_logits"),
        ],
        name="conv",
    )


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_duplicate_names_are_uniquified(self):
        model = Sequential([ReLU(name="act"), ReLU(name="act"), ReLU(name="act")])
        names = [layer.name for layer in model.layers]
        assert len(set(names)) == 3

    def test_n_params(self):
        model = small_model()
        assert model.n_params == (16 * 12 + 12) + (12 * 4 + 4)


class TestForward:
    def test_forward_shape(self):
        model = small_model()
        out = model.forward(RNG.random((5, 4, 4, 1)))
        assert out.shape == (5, 4)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_logits_excludes_softmax(self):
        model = small_model()
        x = RNG.random((3, 4, 4, 1))
        logits = model.logits(x)
        assert not np.allclose(logits.sum(axis=1), 1.0)
        probs = model.forward(x)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(probs, shifted / shifted.sum(axis=1, keepdims=True))

    def test_logits_end_without_softmax(self):
        model = Sequential([Dense(3, 2, seed=0)])
        assert model.logits_end == 1

    def test_num_classes_is_logit_width(self):
        model = small_model()
        assert model.num_classes == 4
        assert model.num_classes == model.logits(RNG.random((2, 4, 4, 1))).shape[1]
        assert Sequential([Dense(3, 2, seed=0), ReLU(name="act")]).num_classes == 2

    def test_num_classes_needs_dense_logits(self):
        with pytest.raises(ConfigurationError, match="Dense"):
            _ = Sequential([Flatten(name="flatten"), ReLU(name="act")]).num_classes

    def test_forward_between_composes(self):
        model = small_model()
        x = RNG.random((2, 4, 4, 1))
        mid = model.forward_between(x, 0, 3)
        full = model.forward_between(mid, 3, len(model.layers))
        np.testing.assert_allclose(full, model.forward(x))

    def test_forward_between_invalid_slice(self):
        model = small_model()
        with pytest.raises(ConfigurationError):
            model.forward_between(RNG.random((1, 16)), 3, 2)

    def test_predict_labels(self):
        model = small_model()
        labels = model.predict(RNG.random((7, 4, 4, 1)))
        assert labels.shape == (7,)
        assert labels.min() >= 0 and labels.max() < 4

    def test_predict_batching_consistent(self):
        model = small_model()
        x = RNG.random((23, 4, 4, 1))
        np.testing.assert_array_equal(
            model.predict(x, batch_size=5), model.predict(x, batch_size=100)
        )

    def test_evaluate_range(self):
        model = small_model()
        x = RNG.random((20, 4, 4, 1))
        y = RNG.integers(0, 4, 20)
        acc = model.evaluate(x, y)
        assert 0.0 <= acc <= 1.0


class TestParameters:
    def test_named_parameters_complete(self):
        model = small_model()
        names = [(l, p) for l, p, _ in model.named_parameters()]
        assert ("fc1", "W") in names and ("fc_logits", "b") in names
        assert len(names) == 4

    def test_get_layer(self):
        model = small_model()
        assert model.get_layer("fc1").name == "fc1"
        with pytest.raises(KeyError):
            model.get_layer("missing")

    def test_layer_index(self):
        model = small_model()
        assert model.layer_index("fc_logits") == 3
        with pytest.raises(KeyError):
            model.layer_index("missing")

    def test_snapshot_restore(self):
        model = small_model()
        x = RNG.random((4, 4, 4, 1))
        before = model.forward(x)
        snapshot = model.snapshot()
        model.get_layer("fc1").params["W"][...] += 1.0
        assert not np.allclose(model.forward(x), before)
        model.restore(snapshot)
        np.testing.assert_allclose(model.forward(x), before)

    def test_restore_missing_key_raises(self):
        model = small_model()
        snapshot = model.snapshot()
        del snapshot["fc1/W"]
        with pytest.raises(KeyError):
            model.restore(snapshot)

    def test_restore_shape_mismatch_raises(self):
        model = small_model()
        snapshot = model.snapshot()
        snapshot["fc1/W"] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError):
            model.restore(snapshot)

    def test_copy_is_independent(self):
        model = small_model()
        clone = model.copy()
        clone.get_layer("fc1").params["W"][...] = 0.0
        assert not np.allclose(model.get_layer("fc1").params["W"], 0.0)

    def test_copy_preserves_outputs(self):
        model = small_model()
        clone = model.copy()
        x = RNG.random((3, 4, 4, 1))
        np.testing.assert_allclose(model.forward(x), clone.forward(x))

    def test_copy_omits_forward_caches(self):
        model = small_model()
        model.forward(RNG.random((3, 4, 4, 1)))
        clone = model.copy()
        for original, copied in zip(model.layers, clone.layers):
            for name in Layer.SCRATCH:
                if hasattr(original, name):
                    assert getattr(copied, name) is None, (original.name, name)
        assert model.get_layer("fc1")._last_input is not None
        x = RNG.random((2, 4, 4, 1))
        clone.forward(x)
        clone.backward(np.ones((2, 4)))
        model.forward(x)
        model.backward(np.ones((2, 4)))
        np.testing.assert_array_equal(
            clone.get_layer("fc1").grads["W"], model.get_layer("fc1").grads["W"]
        )


class TestBackward:
    def test_backward_shapes(self):
        model = small_model()
        x = RNG.random((6, 4, 4, 1))
        # Sequential.backward returns the input gradient; backward_between
        # fills the parameter gradients and stops there.
        grad_in = model.backward(np.ones_like(model.forward(x)))
        assert grad_in.shape == x.shape
        logits = model.forward_between(x, 0, model.logits_end)
        model.backward_between(np.ones_like(logits), 0, model.logits_end)
        assert model.get_layer("fc1").grads["W"].shape == (16, 12)

    @pytest.mark.parametrize("bottom", ["fc_logits", "fc2", "conv1"])
    def test_backward_between_matches_full_backward(self, bottom):
        """``backward_between`` fills the same parameter gradients, bit for
        bit, as a full backward: with a Dense bottom layer, through a
        two-layer suffix whose inner input gradient is still needed, and from
        ``start=0`` with a Conv2D bottom layer."""
        model = conv_model()
        x = RNG.random((3, 5, 5, 1))
        grad_logits = RNG.standard_normal((3, 4))
        start = model.layer_index(bottom)
        with mock.patch.object(layers_module, "col2im", wraps=layers_module.col2im) as col2im:
            model.forward(x)
            model.backward(grad_logits)
            assert col2im.called  # the conv input gradient of a full backward
            expected = {
                (layer.name, key): grad.copy()
                for layer in model.layers[start:]
                for key, grad in layer.grads.items()
            }
            for layer in model.layers:
                layer.grads.clear()
            col2im.reset_mock()
            model.forward(x)
            assert model.backward_between(grad_logits, start) is None
            col2im.assert_not_called()
        filled = {
            (layer.name, key): grad for layer in model.layers for key, grad in layer.grads.items()
        }
        assert filled.keys() == expected.keys()
        for name, grad in expected.items():
            np.testing.assert_array_equal(filled[name], grad, err_msg=str(name))


class TestConfig:
    def test_config_roundtrip_structure(self):
        model = small_model()
        rebuilt = Sequential.from_config(model.get_config())
        assert [l.name for l in rebuilt.layers] == [l.name for l in model.layers]
        assert rebuilt.n_params == model.n_params

    def test_config_roundtrip_is_exact(self):
        model = conv_model()
        assert Sequential.from_config(model.get_config()).get_config() == model.get_config()

    def test_from_config_defaults_the_name(self):
        config = small_model().get_config()
        del config["name"]
        assert Sequential.from_config(config).name == "sequential"


class TestBackwardBetweenEdges:
    def test_parameter_free_slice_fills_nothing(self):
        model = small_model()
        x = RNG.random((2, 4, 4, 1))
        model.forward(x)
        for layer in model.layers:
            layer.grads.clear()
        # The softmax alone holds no parameters: nothing to backpropagate to.
        assert model.backward_between(np.ones((2, 4)), 4, 5) is None
        assert all(not layer.grads for layer in model.layers)

    def test_stop_bounds_the_filled_layers(self):
        model = small_model()
        x = RNG.random((2, 4, 4, 1))
        hidden = model.forward_between(x, 0, 3)
        for layer in model.layers:
            layer.grads.clear()
        model.backward_between(np.ones_like(hidden), 0, 3)
        assert set(model.get_layer("fc1").grads) == {"W", "b"}
        assert not model.get_layer("fc_logits").grads


class TestTrainingFlag:
    def test_training_reaches_dropout(self):
        model = Sequential([Dropout(0.5, seed=0), Dense(6, 2, seed=0)])
        x = np.ones((50, 6))
        np.testing.assert_array_equal(model.forward(x), model.forward(x))
        assert not np.array_equal(model.forward(x, training=True), model.forward(x))

    def test_logits_ignore_training_dropout_when_inference(self):
        model = Sequential([Dense(6, 4, seed=0), Dropout(0.5, seed=1), Dense(4, 3, seed=2)])
        x = RNG.random((5, 6))
        np.testing.assert_array_equal(model.logits(x), model.predict_logits(x))
