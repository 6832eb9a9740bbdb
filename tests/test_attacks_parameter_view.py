"""Tests for repro.attacks.parameter_view."""

import numpy as np
import pytest

from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.utils.errors import ConfigurationError, ShapeError
from repro.zoo.architectures import mlp

RNG = np.random.default_rng(0)


@pytest.fixture()
def model():
    return mlp((6, 6, 1), 4, seed=0, hidden=(10, 8))


class TestSelector:
    def test_default_targets_logits_layer(self):
        sel = ParameterSelector()
        assert sel.layers == ("fc_logits",)

    def test_describe(self):
        sel = ParameterSelector(layers=("fc1", "fc2"), include_biases=False)
        text = sel.describe()
        assert "fc1" in text and "weights" in text and "biases" not in text

    def test_all_layers_description(self):
        assert "all layers" in ParameterSelector(layers=None).describe()

    def test_requires_some_kind(self):
        with pytest.raises(ConfigurationError):
            ParameterSelector(include_weights=False, include_biases=False)

    def test_empty_layer_tuple_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterSelector(layers=())

    def test_wants(self):
        sel = ParameterSelector(include_weights=True, include_biases=False)
        assert sel.wants("W") and not sel.wants("b")


class TestViewResolution:
    def test_size_last_layer(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        assert view.size == 8 * 4 + 4

    def test_size_all_layers(self, model):
        view = ParameterView(model, ParameterSelector(layers=None))
        assert view.size == model.n_params

    def test_weights_only(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",), include_biases=False))
        assert view.size == 8 * 4

    def test_biases_only(self, model):
        view = ParameterView(
            model, ParameterSelector(layers=("fc_logits",), include_weights=False)
        )
        assert view.size == 4

    def test_unknown_layer_raises(self, model):
        with pytest.raises(ConfigurationError, match="unknown layers"):
            ParameterView(model, ParameterSelector(layers=("not_a_layer",)))

    def test_layer_without_params_raises(self, model):
        with pytest.raises(ConfigurationError, match="matches no parameters"):
            ParameterView(model, ParameterSelector(layers=("flatten",)))

    def test_first_layer_index(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        assert view.first_layer_index == model.layer_index("fc_logits")
        full = ParameterView(model, ParameterSelector(layers=None))
        assert full.first_layer_index == model.layer_index("fc1")


class TestGatherScatter:
    def test_gather_matches_params(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        flat = view.gather()
        layer = model.get_layer("fc_logits")
        np.testing.assert_array_equal(flat[: 8 * 4].reshape(8, 4), layer.params["W"])
        np.testing.assert_array_equal(flat[8 * 4 :], layer.params["b"])

    def test_scatter_roundtrip(self, model):
        view = ParameterView(model, ParameterSelector(layers=None))
        values = RNG.random(view.size)
        view.scatter(values)
        np.testing.assert_allclose(view.gather(), values)

    def test_scatter_wrong_shape(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        with pytest.raises(ShapeError):
            view.scatter(np.zeros(view.size + 1))

    def test_apply_delta_and_restore(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        baseline = view.baseline
        delta = RNG.random(view.size)
        view.apply_delta(delta)
        np.testing.assert_allclose(view.gather(), baseline + delta)
        view.restore()
        np.testing.assert_allclose(view.gather(), baseline)

    def test_applied_context_manager(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        baseline = view.baseline
        delta = np.ones(view.size)
        with view.applied(delta):
            np.testing.assert_allclose(view.gather(), baseline + 1.0)
        np.testing.assert_allclose(view.gather(), baseline)

    def test_applied_restores_on_exception(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        baseline = view.baseline
        with pytest.raises(RuntimeError):
            with view.applied(np.ones(view.size)):
                raise RuntimeError("boom")
        np.testing.assert_allclose(view.gather(), baseline)

    def test_as_param_dict(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        vector = np.arange(view.size, dtype=float)
        split = view.as_param_dict(vector)
        assert set(split) == {"fc_logits/W", "fc_logits/b"}
        assert split["fc_logits/W"].shape == (8, 4)
        np.testing.assert_array_equal(split["fc_logits/b"], vector[-4:])

    def test_gather_grads(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        x = RNG.random((5, 6, 6, 1))
        logits = model.forward_between(x, 0, model.logits_end)
        model.backward_between(np.ones_like(logits), 0, model.logits_end)
        grads = view.gather_grads()
        assert grads.shape == (view.size,)
        assert np.any(grads != 0)

    def test_gather_grads_without_backward_raises(self, model):
        fresh = mlp((6, 6, 1), 4, seed=1, hidden=(10, 8))
        # wipe gradients to simulate "never ran backward with matching shapes"
        fresh.get_layer("fc_logits").grads = {}
        view = ParameterView(fresh, ParameterSelector(layers=("fc_logits",)))
        with pytest.raises(ShapeError):
            view.gather_grads()

    def test_baseline_is_a_copy(self, model):
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        baseline = view.baseline
        baseline[...] = -99.0
        assert not np.allclose(view.gather(), -99.0)
