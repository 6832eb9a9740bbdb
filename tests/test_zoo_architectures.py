"""Tests for repro.zoo.architectures."""

import numpy as np
import pytest

from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.nn.layers import _LAYER_REGISTRY
from repro.utils.errors import ConfigurationError
from repro.zoo.architectures import (
    _ARCHITECTURES,
    build_architecture,
    compact_cnn,
    mlp,
    paper_cnn,
)

RNG = np.random.default_rng(0)


class TestPaperCnn:
    @pytest.fixture(scope="class")
    def model(self):
        return paper_cnn((28, 28, 1), 10, seed=0)

    def test_fc_layer_names_present(self, model):
        names = [layer.name for layer in model.layers]
        for expected in ("fc1", "fc2", "fc_logits", "softmax"):
            assert expected in names

    def test_table1_parameter_counts(self, model):
        """The paper's Table 1 parameter counts must be reproduced exactly."""
        sizes = {
            name: ParameterView(model, ParameterSelector(layers=(name,))).size
            for name in ("fc1", "fc2", "fc_logits")
        }
        assert sizes == {"fc1": 205000, "fc2": 40200, "fc_logits": 2010}

    def test_forward_shape(self, model):
        out = model.forward(RNG.random((2, 28, 28, 1)))
        assert out.shape == (2, 10)

    def test_cifar_input_shape(self):
        model = paper_cnn((32, 32, 3), 10, seed=0)
        out = model.forward(RNG.random((1, 32, 32, 3)))
        assert out.shape == (1, 10)


class TestCompactCnn:
    def test_last_fc_matches_paper(self):
        model = compact_cnn((28, 28, 1), 10, seed=0)
        size = ParameterView(model, ParameterSelector(layers=("fc_logits",))).size
        assert size == 2010

    def test_forward_shapes(self):
        model = compact_cnn((28, 28, 1), 10, seed=0)
        assert model.forward(RNG.random((3, 28, 28, 1))).shape == (3, 10)

    def test_custom_hidden(self):
        model = compact_cnn((28, 28, 1), 10, seed=0, hidden=(32, 16))
        assert model.get_layer("fc_logits").params["W"].shape == (16, 10)

    def test_dropout_optional(self):
        with_dropout = compact_cnn((28, 28, 1), 10, seed=0, dropout=0.5)
        names = [l.name for l in with_dropout.layers]
        assert any("dropout" in n for n in names)


class TestMlp:
    def test_forward(self):
        model = mlp((12, 12, 1), 6, seed=0)
        assert model.forward(RNG.random((4, 12, 12, 1))).shape == (4, 6)

    def test_hidden_sizes(self):
        model = mlp((8, 8, 1), 5, seed=0, hidden=(20, 10))
        assert model.get_layer("fc1").params["W"].shape == (64, 20)
        assert model.get_layer("fc2").params["W"].shape == (20, 10)


class TestBuildArchitecture:
    @pytest.mark.parametrize("name", ["paper_cnn", "compact_cnn", "mlp"])
    def test_by_name(self, name):
        model = build_architecture(name, (16, 16, 1), 4, seed=1)
        assert model.forward(RNG.random((2, 16, 16, 1))).shape == (2, 4)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            build_architecture("resnet50", (32, 32, 3))

    def test_seed_reproducibility(self):
        a = build_architecture("mlp", (8, 8, 1), 4, seed=5)
        b = build_architecture("mlp", (8, 8, 1), 4, seed=5)
        np.testing.assert_array_equal(
            a.get_layer("fc1").params["W"], b.get_layer("fc1").params["W"]
        )


def test_layer_registry_holds_only_the_kinds_the_architectures_build():
    """The ``nn`` engine registers exactly the layer kinds some architecture
    builds, so no layer type is carried that no victim uses."""
    models = [factory((28, 28, 1), 10) for factory in _ARCHITECTURES.values()]
    models.append(paper_cnn((28, 28, 1), 10, dropout=0.5))
    built = {type(layer).__name__ for model in models for layer in model.layers}
    assert set(_LAYER_REGISTRY) == built
