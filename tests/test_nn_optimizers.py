"""Tests for repro.nn.optimizers."""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam, RMSProp
from repro.utils.errors import ConfigurationError

RNG = np.random.default_rng(0)


def tiny_model(seed=0):
    return Sequential(
        [
            Dense(4, 8, seed=seed, name="fc1"),
            ReLU(),
            Dense(8, 3, seed=seed + 1, name="fc2"),
            Softmax(),
        ]
    )


def train_steps(optimizer, steps=60):
    """Run a few steps on a separable toy problem; return final loss."""
    model = tiny_model()
    optimizer.register(model)
    loss_fn = CrossEntropyLoss()
    x = RNG.standard_normal((30, 4))
    y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0).astype(int)
    loss = np.inf
    for _ in range(steps):
        logits = model.forward_between(x, 0, model.logits_end, training=True)
        loss = loss_fn.value(logits, y)
        grad = loss_fn.gradient(logits, y)
        model.backward_between(grad, 0, model.logits_end)
        optimizer.step()
    return loss


class TestSGD:
    def test_plain_sgd_matches_manual_update(self):
        model = Sequential([Dense(2, 2, seed=0)])
        opt = SGD(learning_rate=0.1).register(model)
        layer = model.layers[0]
        w_before = layer.params["W"].copy()
        layer.grads["W"] = np.ones_like(w_before)
        layer.grads["b"] = np.ones(2)
        opt.step()
        np.testing.assert_allclose(layer.params["W"], w_before - 0.1)

    def test_momentum_accumulates(self):
        model = Sequential([Dense(2, 2, seed=0)])
        opt = SGD(learning_rate=0.1, momentum=0.9).register(model)
        layer = model.layers[0]
        w0 = layer.params["W"].copy()
        layer.grads["W"] = np.ones_like(w0)
        layer.grads["b"] = np.zeros(2)
        opt.step()
        first_change = w0 - layer.params["W"]
        layer.grads["W"] = np.ones_like(w0)
        opt.step()
        second_change = (w0 - first_change) - layer.params["W"]
        assert np.all(second_change > first_change)

    def test_weight_decay_shrinks_weights(self):
        model = Sequential([Dense(2, 2, seed=0)])
        opt = SGD(learning_rate=0.1, weight_decay=0.5).register(model)
        layer = model.layers[0]
        layer.params["W"][...] = 1.0
        layer.grads["W"] = np.zeros_like(layer.params["W"])
        layer.grads["b"] = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(layer.params["W"], 0.95)

    def test_weight_decay_not_applied_to_bias(self):
        model = Sequential([Dense(2, 2, seed=0)])
        opt = SGD(learning_rate=0.1, weight_decay=0.5).register(model)
        layer = model.layers[0]
        layer.params["b"][...] = 1.0
        layer.grads["W"] = np.zeros_like(layer.params["W"])
        layer.grads["b"] = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(layer.params["b"], 1.0)

    def test_reduces_loss(self):
        assert train_steps(SGD(learning_rate=0.5)) < 0.8

    def test_invalid_momentum(self):
        with pytest.raises(ConfigurationError):
            SGD(momentum=1.0)

    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=0.0)

    def test_step_before_register_raises(self):
        with pytest.raises(RuntimeError):
            SGD().step()


class TestAdam:
    def test_reduces_loss(self):
        assert train_steps(Adam(learning_rate=0.05)) < 0.5

    def test_first_step_size_close_to_lr(self):
        model = Sequential([Dense(1, 1, seed=0, use_bias=False)])
        opt = Adam(learning_rate=0.01).register(model)
        layer = model.layers[0]
        w0 = layer.params["W"].copy()
        layer.grads["W"] = np.full_like(w0, 123.0)
        opt.step()
        # Adam's first update is ~learning_rate regardless of gradient scale
        np.testing.assert_allclose(np.abs(w0 - layer.params["W"]), 0.01, rtol=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ConfigurationError):
            Adam(beta1=1.0)
        with pytest.raises(ConfigurationError):
            Adam(beta2=-0.1)


class TestRMSProp:
    def test_reduces_loss(self):
        assert train_steps(RMSProp(learning_rate=0.01)) < 0.8

    def test_invalid_decay(self):
        with pytest.raises(ConfigurationError):
            RMSProp(decay=1.5)


class TestOptimizerInfrastructure:
    def test_register_skips_parameterless_layers(self):
        model = tiny_model()
        opt = SGD().register(model)
        assert len(opt._layers) == 2
