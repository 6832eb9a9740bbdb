"""Tests for repro.nn.optimizers."""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
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

    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigurationError):
            Adam(learning_rate=0.0)

    def test_step_before_register_raises(self):
        with pytest.raises(RuntimeError):
            Adam().step()

    def test_register_skips_parameterless_layers(self):
        model = tiny_model()
        opt = Adam().register(model)
        assert len(opt._layers) == 2

    def test_zero_gradient_leaves_parameters_unchanged(self):
        model = tiny_model()
        opt = Adam(learning_rate=0.1).register(model)
        before = {
            (index, name): param.copy()
            for index, layer in enumerate(model.layers)
            for name, param in layer.params.items()
        }
        for layer in model.layers:
            for name, param in layer.params.items():
                layer.grads[name] = np.zeros_like(param)
        opt.step()
        for (i, name), value in before.items():
            np.testing.assert_array_equal(model.layers[i].params[name], value)

    def test_parameter_without_gradient_skipped(self):
        model = Sequential([Dense(2, 2, seed=0, name="fc")])
        layer = model.layers[0]
        opt = Adam(learning_rate=0.1).register(model)
        w0 = layer.params["W"].copy()
        b0 = layer.params["b"].copy()
        layer.grads.clear()
        layer.grads["W"] = np.ones_like(w0)
        opt.step()
        np.testing.assert_array_equal(layer.params["b"], b0)
        np.testing.assert_allclose(layer.params["W"], w0 - 0.1, rtol=1e-6)

    @pytest.mark.parametrize("learning_rate", [1e-3, 0.05])
    def test_matches_the_textbook_update(self, learning_rate):
        # Three steps of Kingma & Ba's Algorithm 1 with bias correction.
        model = Sequential([Dense(3, 2, seed=0, use_bias=False)])
        layer = model.layers[0]
        opt = Adam(learning_rate=learning_rate).register(model)
        rng = np.random.default_rng(1)
        theta = layer.params["W"].copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t in range(1, 4):
            grad = rng.standard_normal(theta.shape)
            layer.grads["W"] = grad.copy()
            opt.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta = theta - learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(layer.params["W"], theta, rtol=1e-12, atol=1e-15)

    def test_register_resets_the_state(self):
        model = tiny_model()
        opt = Adam().register(model)
        for layer in model.layers:
            for name, param in layer.params.items():
                layer.grads[name] = np.ones_like(param)
        opt.step()
        assert opt.iterations == 1 and opt._state
        opt.register(model)
        assert opt.iterations == 0 and not opt._state
