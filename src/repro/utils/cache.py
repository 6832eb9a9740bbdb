"""A small keyed disk cache used to avoid retraining models between runs.

The cache stores numpy archives keyed by a stable hash of a configuration
dictionary.  It is intentionally simple: no eviction, no locking beyond
atomic rename, because entries are tiny (a few MB of float32 weights).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path, PurePath
from typing import Any

import numpy as np

__all__ = ["DiskCache", "default_cache_dir", "stable_hash"]


def default_cache_dir() -> Path:
    """Return the default on-disk cache directory.

    Respects ``REPRO_CACHE_DIR`` so tests and CI can redirect it.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-fault-sneaking"


def _canonical(value: Any, path: str) -> Any:
    """Reduce a config value to JSON-native types, rejecting ambiguous ones.

    An earlier implementation fell back to ``str()`` for unknown types, which
    silently corrupted cache keying in both directions: two distinct objects
    with an equal repr collided onto one key, and reprs embedding a memory
    address (``<object at 0x...>``) changed every run so identical configs
    never hit the cache.  Only values with one canonical encoding are allowed;
    numpy scalars and filesystem paths are normalised explicitly.
    """
    # bool is an int subclass; both pass through as themselves.
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, PurePath):
        return str(value)
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"stable_hash: non-string dict key {key!r} at {path}"
                )
        return {key: _canonical(item, f"{path}.{key}") for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item, f"{path}[{i}]") for i, item in enumerate(value)]
    raise TypeError(
        f"stable_hash: value of type {type(value).__name__} at {path} has no "
        "canonical encoding; convert it to JSON-native types (str/int/float/"
        "bool/None, lists, string-keyed dicts) before hashing"
    )


def stable_hash(config: dict[str, Any]) -> str:
    """Return a stable hex digest of a configuration dictionary.

    Values must be canonically encodable: JSON-native types plus numpy
    scalars and :class:`pathlib` paths (normalised explicitly).  Anything
    else raises :class:`TypeError` instead of silently hashing by ``str()``.
    """
    encoded = json.dumps(_canonical(config, "config"), sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:24]


class DiskCache:
    """Store and retrieve dictionaries of numpy arrays keyed by config hashes.

    Parameters
    ----------
    directory:
        Cache root; created lazily on first write.  ``None`` uses
        :func:`default_cache_dir`.
    enabled:
        When ``False`` every lookup misses and writes are dropped, which is
        convenient for tests.
    shard_levels:
        Number of two-hex-character directory levels between the root and
        each entry (``0`` keeps the historical flat layout).  A store of
        millions of memoized campaign cells keeps O(1) lookups with two
        levels (``ab/cd/abcd....json``); without sharding a single flat
        directory degrades on most filesystems.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        enabled: bool = True,
        shard_levels: int = 0,
    ):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.enabled = enabled
        if shard_levels < 0 or shard_levels > 4:
            raise ValueError(f"shard_levels must be in [0, 4], got {shard_levels}")
        self.shard_levels = shard_levels

    def _entry_path(self, key: str, suffix: str) -> Path:
        base = self.directory
        for level in range(self.shard_levels):
            base = base / key[2 * level : 2 * level + 2]
        return base / f"{key}{suffix}"

    def _path_for(self, key: str) -> Path:
        return self._entry_path(key, ".npz")

    def key_for(self, config: dict[str, Any]) -> str:
        """Return the cache key for a configuration dictionary."""
        return stable_hash(config)

    def contains(self, key: str) -> bool:
        """Return whether an entry exists for ``key``."""
        return self.enabled and self._path_for(key).exists()

    def load(self, key: str) -> dict[str, np.ndarray] | None:
        """Load the arrays stored under ``key`` or ``None`` on a miss."""
        if not self.contains(key):
            return None
        path = self._path_for(key)
        try:
            with np.load(path, allow_pickle=False) as archive:
                return {name: archive[name] for name in archive.files}
        except (OSError, ValueError):
            # Corrupt entry: treat as a miss and let the caller regenerate it.
            return None

    def store(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Atomically store a dictionary of arrays under ``key``."""
        if not self.enabled:
            return
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    # -- JSON payloads ---------------------------------------------------------------
    # Campaign artifacts are small dictionaries of scalars rather than weight
    # arrays; they share the same keyed directory and atomic-rename discipline
    # but live in ``.json`` files so they stay human-inspectable.

    def _json_path_for(self, key: str) -> Path:
        return self._entry_path(key, ".json")

    def contains_json(self, key: str) -> bool:
        """Return whether a JSON entry exists for ``key``."""
        return self.enabled and self._json_path_for(key).exists()

    def load_json(self, key: str) -> dict[str, Any] | None:
        """Load the JSON payload stored under ``key`` or ``None`` on a miss."""
        if not self.contains_json(key):
            return None
        try:
            payload = json.loads(self._json_path_for(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            # Corrupt entry (e.g. an interrupted write on a filesystem without
            # atomic rename): treat as a miss and let the caller regenerate it.
            return None
        # store_json only ever writes objects; anything else is a corrupt or
        # foreign file squatting on the key, so treat it as a miss too.
        if not isinstance(payload, dict):
            return None
        return payload

    def store_json(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically store a JSON-serialisable payload under ``key``.

        Writes strict RFC 8259 JSON: non-finite floats are rejected rather
        than silently emitted as the non-standard ``NaN``/``Infinity`` tokens
        (callers encode such sentinels as ``null`` before storing).
        """
        if not self.enabled:
            return
        path = self._json_path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        encoded = json.dumps(payload, sort_keys=True, default=str, allow_nan=False)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    def clear(self) -> int:
        """Delete every cache entry; return the number of removed files."""
        if not self.directory.exists():
            return 0
        removed = 0
        for pattern in ("*.npz", "*.json"):
            # rglob covers the flat layout and every shard level.
            for entry in self.directory.rglob(pattern):
                entry.unlink()
                removed += 1
        return removed
