"""Tests for repro.nn.serialization."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Softmax
from repro.nn.model import Sequential
from repro.nn.serialization import load_model, model_from_arrays, model_to_arrays, save_model
from repro.utils.errors import ConfigurationError

RNG = np.random.default_rng(0)


def build_model(seed=0):
    return Sequential(
        [
            Conv2D(1, 4, 3, padding=1, seed=seed, name="conv1"),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 3 * 3, 10, seed=seed + 1, name="fc1"),
            ReLU(),
            Dense(10, 3, seed=seed + 2, name="fc_logits"),
            Softmax(),
        ],
        name="serialization-test",
    )


class TestArraysRoundtrip:
    def test_predictions_preserved(self):
        model = build_model()
        x = RNG.random((5, 6, 6, 1))
        expected = model.forward(x)
        rebuilt = model_from_arrays(model_to_arrays(model))
        np.testing.assert_allclose(rebuilt.forward(x), expected)

    def test_missing_architecture_raises(self):
        with pytest.raises(ConfigurationError):
            model_from_arrays({"param/fc1/W": np.zeros((2, 2))})

    def test_missing_parameter_raises(self):
        arrays = model_to_arrays(build_model())
        del arrays["param/fc1/W"]
        with pytest.raises(ConfigurationError):
            model_from_arrays(arrays)

    def test_shape_mismatch_raises(self):
        arrays = model_to_arrays(build_model())
        arrays["param/fc1/W"] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError):
            model_from_arrays(arrays)


class TestFileRoundtrip:
    def test_save_load(self, tmp_path):
        model = build_model()
        x = RNG.random((3, 6, 6, 1))
        path = save_model(model, tmp_path / "model.npz")
        assert path.exists()
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.forward(x), model.forward(x))

    def test_extension_added(self, tmp_path):
        model = build_model()
        path = save_model(model, tmp_path / "weights")
        assert path.suffix == ".npz"
        loaded = load_model(tmp_path / "weights")
        assert loaded.n_params == model.n_params

    def test_nested_directory_created(self, tmp_path):
        model = build_model()
        path = save_model(model, tmp_path / "deep" / "dir" / "model.npz")
        assert path.exists()


class TestArchiveContents:
    def test_identical_models_give_identical_archives(self):
        a, b = model_to_arrays(build_model()), model_to_arrays(build_model())
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_one_entry_per_parameter(self):
        model = build_model()
        arrays = model_to_arrays(model)
        params = {f"param/{layer}/{name}" for layer, name, _ in model.named_parameters()}
        assert params <= arrays.keys()
        assert len(arrays) == len(params) + 1  # plus the architecture entry

    def test_arrays_are_copies(self):
        model = build_model()
        arrays = model_to_arrays(model)
        model.get_layer("fc1").params["W"][...] = 0.0
        assert np.any(arrays["param/fc1/W"] != 0.0)

    def test_roundtrip_preserves_architecture(self):
        model = build_model()
        rebuilt = model_from_arrays(model_to_arrays(model))
        assert rebuilt.get_config() == model.get_config()
        assert rebuilt.name == "serialization-test"
