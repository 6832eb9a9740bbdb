"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.nn.losses import CrossEntropyLoss, log_softmax, softmax
from repro.utils.errors import ShapeError

RNG = np.random.default_rng(0)


def numerical_gradient(loss, outputs, targets, eps=1e-6):
    grad = np.zeros_like(outputs)
    flat = outputs.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = loss.value(outputs, targets)
        flat[i] = orig - eps
        minus = loss.value(outputs, targets)
        flat[i] = orig
        grad.reshape(-1)[i] = (plus - minus) / (2 * eps)
    return grad


class TestSoftmaxHelpers:
    def test_softmax_sums_to_one(self):
        probs = softmax(RNG.standard_normal((4, 6)) * 30)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_log_softmax_consistency(self):
        logits = RNG.standard_normal((3, 5))
        np.testing.assert_allclose(np.exp(log_softmax(logits)), softmax(logits), atol=1e-12)

    def test_numerical_stability(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        assert np.all(np.isfinite(softmax(logits)))
        assert np.all(np.isfinite(log_softmax(logits)))


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        assert CrossEntropyLoss().value(logits, np.array([0, 1])) < 1e-6

    def test_uniform_prediction(self):
        logits = np.zeros((2, 4))
        assert CrossEntropyLoss().value(logits, np.array([0, 3])) == pytest.approx(np.log(4))

    def test_gradient_matches_numeric(self):
        loss = CrossEntropyLoss()
        logits = RNG.standard_normal((5, 4))
        targets = np.array([0, 1, 2, 3, 0])
        np.testing.assert_allclose(
            loss.gradient(logits, targets),
            numerical_gradient(loss, logits, targets),
            atol=1e-7,
        )

    def test_gradient_rows_sum_to_zero(self):
        logits = RNG.standard_normal((6, 3))
        grad = CrossEntropyLoss().gradient(logits, np.array([0, 1, 2, 0, 1, 2]))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_bad_labels_raise(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().value(np.zeros((2, 3)), np.array([0, 3]))

    def test_bad_shape_raises(self):
        with pytest.raises(ShapeError):
            CrossEntropyLoss().value(np.zeros((2, 3)), np.array([[0], [1]]))

    def test_callable(self):
        logits = np.zeros((1, 2))
        assert CrossEntropyLoss()(logits, np.array([0])) == pytest.approx(np.log(2))

    def test_negative_label_raises(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().value(np.zeros((2, 3)), np.array([0, -1]))

    def test_value_is_nonnegative(self):
        logits = RNG.standard_normal((8, 5)) * 10
        assert CrossEntropyLoss().value(logits, np.arange(8) % 5) >= 0.0

    def test_value_is_the_batch_mean(self):
        loss = CrossEntropyLoss()
        logits = RNG.standard_normal((4, 3))
        targets = np.array([2, 0, 1, 1])
        per_sample = [loss.value(logits[i : i + 1], targets[i : i + 1]) for i in range(4)]
        assert loss.value(logits, targets) == pytest.approx(np.mean(per_sample))


class TestCrossEntropyLeadingAxes:
    """Outputs may carry extra leading axes; the labels then match them."""

    def test_value_averages_every_leading_position(self):
        loss = CrossEntropyLoss()
        logits = RNG.standard_normal((2, 3, 4))
        targets = np.array([[0, 1, 2], [3, 0, 1]])
        flat = loss.value(logits.reshape(6, 4), targets.reshape(6))
        assert loss.value(logits, targets) == pytest.approx(flat)

    def test_gradient_matches_numeric(self):
        loss = CrossEntropyLoss()
        logits = RNG.standard_normal((2, 3, 4))
        targets = np.array([[0, 1, 2], [3, 0, 1]])
        np.testing.assert_allclose(
            loss.gradient(logits, targets),
            numerical_gradient(loss, logits, targets),
            atol=1e-7,
        )

    def test_label_shape_must_match_leading_axes(self):
        with pytest.raises(ShapeError):
            CrossEntropyLoss().value(np.zeros((2, 3, 4)), np.zeros(6, dtype=int))

    def test_softmax_helpers_use_the_last_axis(self):
        logits = RNG.standard_normal((2, 3, 5))
        np.testing.assert_allclose(softmax(logits).sum(axis=-1), 1.0)
        np.testing.assert_allclose(softmax(logits)[1], softmax(logits[1]))
        np.testing.assert_allclose(log_softmax(logits)[0], log_softmax(logits[0]))
