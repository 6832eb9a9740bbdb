"""Tests for repro.utils.cache."""

from pathlib import Path

import numpy as np
import pytest

from repro.utils.cache import DiskCache, default_cache_dir, stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_different_configs_differ(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_tuples_hash_like_lists(self):
        assert stable_hash({"a": (1, 2)}) == stable_hash({"a": [1, 2]})

    def test_length(self):
        assert len(stable_hash({})) == 24

    def test_rejects_equal_repr_collision(self):
        # Regression: the old default=str fallback hashed these two *distinct*
        # objects to the same key because their str() is equal.
        class Knob:
            def __init__(self, hidden):
                self.hidden = hidden

            def __str__(self):
                return "knob"

        with pytest.raises(TypeError):
            stable_hash({"a": Knob(1)})
        with pytest.raises(TypeError):
            stable_hash({"a": Knob(2)})

    def test_rejects_unstable_repr(self):
        # Regression: object() reprs embed a memory address, so the old
        # fallback produced a different key every run for an identical config.
        with pytest.raises(TypeError) as excinfo:
            stable_hash({"a": object()})
        assert "config.a" in str(excinfo.value)

    def test_rejects_non_string_dict_keys(self):
        with pytest.raises(TypeError):
            stable_hash({"a": {1: "x"}})

    def test_numpy_scalars_canonicalised(self):
        assert stable_hash({"a": np.int64(3)}) == stable_hash({"a": 3})
        assert stable_hash({"a": np.float64(0.5)}) == stable_hash({"a": 0.5})
        assert stable_hash({"a": np.bool_(True)}) == stable_hash({"a": True})

    def test_paths_canonicalised(self):
        path = Path("some") / "dir"
        assert stable_hash({"a": path}) == stable_hash({"a": str(path)})

    def test_rejects_numpy_arrays(self):
        with pytest.raises(TypeError):
            stable_hash({"a": np.arange(3)})

    def test_nested_values_checked(self):
        with pytest.raises(TypeError) as excinfo:
            stable_hash({"a": [1, {"b": object()}]})
        assert "config.a[1].b" in str(excinfo.value)


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert "repro-fault-sneaking" in str(default_cache_dir())


class TestDiskCache:
    def test_miss_returns_none(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.load("nope") is None

    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.key_for({"model": "test"})
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        cache.store(key, arrays)
        loaded = cache.load(key)
        assert loaded is not None
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    def test_contains(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = cache.key_for({"x": 1})
        assert not cache.contains(key)
        cache.store(key, {"a": np.ones(2)})
        assert cache.contains(key)

    def test_disabled_cache_never_hits(self, tmp_path):
        cache = DiskCache(tmp_path, enabled=False)
        key = cache.key_for({"x": 1})
        cache.store(key, {"a": np.ones(2)})
        assert not cache.contains(key)
        assert cache.load(key) is None

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(3):
            cache.store(f"key{i}", {"a": np.ones(1)})
        assert cache.clear() == 3
        assert not cache.contains("key0")

    def test_clear_missing_directory(self, tmp_path):
        cache = DiskCache(tmp_path / "does-not-exist")
        assert cache.clear() == 0

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "corrupt"
        cache.store(key, {"a": np.ones(1)})
        (tmp_path / f"{key}.npz").write_bytes(b"not a real npz")
        assert cache.load(key) is None

    def test_store_creates_directory(self, tmp_path):
        nested = tmp_path / "deep" / "nested"
        cache = DiskCache(nested)
        cache.store("k", {"a": np.ones(1)})
        assert nested.exists()


class TestJsonEntries:
    def test_miss_returns_none(self, tmp_path):
        assert DiskCache(tmp_path).load_json("nope") is None

    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        payload = {"kind": "sweep-cell", "metrics": {"l0": 12.0, "rate": 0.5}}
        cache.store_json("k", payload)
        assert cache.load_json("k") == payload

    def test_contains_json(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert not cache.contains_json("k")
        cache.store_json("k", {"a": 1})
        assert cache.contains_json("k")

    def test_disabled_never_hits(self, tmp_path):
        cache = DiskCache(tmp_path, enabled=False)
        cache.store_json("k", {"a": 1})
        assert cache.load_json("k") is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store_json("k", {"a": 1})
        (tmp_path / "k.json").write_text("{not json", encoding="utf-8")
        assert cache.load_json("k") is None

    def test_json_and_npz_share_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("npz-key", {"a": np.ones(1)})
        cache.store_json("json-key", {"a": 1})
        assert cache.clear() == 2
        assert not cache.contains("npz-key")
        assert not cache.contains_json("json-key")


class TestSharding:
    KEY = "abcdef0123456789deadbeef"

    def test_two_level_layout(self, tmp_path):
        cache = DiskCache(tmp_path, shard_levels=2)
        cache.store_json(self.KEY, {"a": 1})
        expected = tmp_path / "ab" / "cd" / f"{self.KEY}.json"
        assert expected.exists()
        assert cache.load_json(self.KEY) == {"a": 1}

    def test_npz_entries_shard_too(self, tmp_path):
        cache = DiskCache(tmp_path, shard_levels=1)
        cache.store(self.KEY, {"w": np.arange(3.0)})
        assert (tmp_path / "ab" / f"{self.KEY}.npz").exists()
        loaded = cache.load(self.KEY)
        np.testing.assert_array_equal(loaded["w"], np.arange(3.0))

    def test_flat_layout_unchanged_by_default(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store_json(self.KEY, {"a": 1})
        assert (tmp_path / f"{self.KEY}.json").exists()

    def test_sharded_cache_reads_only_its_own_layout(self, tmp_path):
        # Reads and writes share one path: a flat entry is not a sharded hit.
        DiskCache(tmp_path).store_json(self.KEY, {"a": 1})
        sharded = DiskCache(tmp_path, shard_levels=2)
        assert not sharded.contains_json(self.KEY)
        assert sharded.load_json(self.KEY) is None
        sharded.store_json(self.KEY, {"a": 2})
        assert sharded.load_json(self.KEY) == {"a": 2}
        assert DiskCache(tmp_path).load_json(self.KEY) == {"a": 1}

    def test_clear_reaches_all_shards(self, tmp_path):
        cache = DiskCache(tmp_path, shard_levels=2)
        cache.store_json(self.KEY, {"a": 1})
        cache.store("ffeeddccbbaa998877665544", {"w": np.ones(1)})
        DiskCache(tmp_path).store_json("0123456789abcdef01234567", {"b": 2})
        assert cache.clear() == 3

    def test_invalid_shard_levels_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shard_levels"):
            DiskCache(tmp_path, shard_levels=-1)
        with pytest.raises(ValueError, match="shard_levels"):
            DiskCache(tmp_path, shard_levels=5)
