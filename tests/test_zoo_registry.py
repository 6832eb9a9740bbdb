"""Tests for repro.zoo.registry."""

import numpy as np
import pytest

from repro.experiments.common import get_trained_model
from repro.utils.cache import DiskCache
from repro.utils.errors import ConfigurationError
from repro.zoo.registry import ModelRegistry, ModelSpec

# A deliberately tiny spec so registry tests stay fast.
TINY_SPEC = ModelSpec(
    dataset="mnist_like",
    architecture="mlp",
    n_train=200,
    n_test=80,
    hidden=(16, 8),
    epochs=1,
    batch_size=64,
    seed=0,
)


class TestModelSpec:
    def test_defaults_valid(self):
        ModelSpec()

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(dataset="imagenet")

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(n_train=0)

    def test_to_dict_stable(self):
        assert TINY_SPEC.to_dict() == TINY_SPEC.to_dict()

    @pytest.mark.parametrize(
        ("dataset", "scale", "key"),
        [
            ("mnist_like", "smoke", "abf098a71f4d2bfa191d9034"),
            ("mnist_like", "ci", "913739b08636df773ce3381d"),
            ("cifar_like", "smoke", "da9cded87a860a9ced0788c1"),
            ("cifar_like", "ci", "4ac191efc9b1d9e80aea1268"),
        ],
    )
    def test_victim_cache_keys_are_pinned(self, dataset, scale, key, tmp_path):
        """The experiment victims keep their disk-cache keys, so every cached
        victim stays valid; the key still hashes the optimizer name."""

        class KeyProbe(DiskCache):
            def load(self, key):
                raise LookupError(key)

        with pytest.raises(LookupError) as probe:
            get_trained_model(dataset, scale, registry=ModelRegistry(KeyProbe(tmp_path)))
        assert probe.value.args == (key,)

    def test_load_data_shapes(self):
        split = TINY_SPEC.load_data()
        assert len(split.train) == 200
        assert len(split.test) == 80

    def test_training_config(self):
        cfg = TINY_SPEC.training_config()
        assert cfg.epochs == 1
        assert cfg.batch_size == 64


class TestModelRegistry:
    def test_trains_and_caches_in_memory(self, tmp_path):
        registry = ModelRegistry(DiskCache(tmp_path))
        first = registry.get(TINY_SPEC)
        assert not first.from_cache
        assert 0.0 <= first.test_accuracy <= 1.0
        second = registry.get(TINY_SPEC)
        assert second is first  # in-memory hit

    def test_disk_cache_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        first = ModelRegistry(cache).get(TINY_SPEC)
        # a new registry with the same cache directory must hit the disk cache
        second = ModelRegistry(cache).get(TINY_SPEC)
        assert second.from_cache
        x = first.data.test.images[:10]
        np.testing.assert_allclose(first.model.forward(x), second.model.forward(x))

    def test_different_specs_different_entries(self, tmp_path):
        registry = ModelRegistry(DiskCache(tmp_path))
        a = registry.get(TINY_SPEC)
        fields = {key: value for key, value in TINY_SPEC.to_dict().items() if key != "optimizer"}
        other = ModelSpec(**{**fields, "seed": 1, "hidden": tuple(TINY_SPEC.hidden)})
        b = registry.get(other)
        assert a is not b

    def test_clear_memory(self, tmp_path):
        registry = ModelRegistry(DiskCache(tmp_path))
        first = registry.get(TINY_SPEC)
        registry.clear_memory()
        second = registry.get(TINY_SPEC)
        assert second is not first
        assert second.from_cache

    def test_disabled_cache_retrains(self, tmp_path):
        registry = ModelRegistry(DiskCache(tmp_path, enabled=False))
        registry.get(TINY_SPEC)
        registry.clear_memory()
        second = registry.get(TINY_SPEC)
        assert not second.from_cache
