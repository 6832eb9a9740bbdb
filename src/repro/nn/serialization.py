"""Model persistence.

A model is stored as a numpy ``.npz`` archive containing a JSON architecture
description plus one array per parameter.  The same array-dictionary form is
used by the in-process model registry so that models can round-trip through
:class:`repro.utils.DiskCache`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.nn.model import Sequential
from repro.utils.errors import ConfigurationError

__all__ = ["model_to_arrays", "model_from_arrays", "save_model", "load_model"]

_CONFIG_KEY = "__architecture_json__"


def model_to_arrays(model: Sequential) -> dict[str, np.ndarray]:
    """Flatten a model (architecture + weights) to a dict of numpy arrays."""
    arrays: dict[str, np.ndarray] = {
        # sort_keys keeps the stored bytes independent of dict construction
        # order, so archives of identical configs are themselves identical.
        _CONFIG_KEY: np.frombuffer(
            json.dumps(model.get_config(), sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        ).copy()
    }
    for layer_name, param_name, value in model.named_parameters():
        arrays[f"param/{layer_name}/{param_name}"] = value.copy()
    return arrays


def model_from_arrays(arrays: dict[str, np.ndarray]) -> Sequential:
    """Rebuild a model from :func:`model_to_arrays` output."""
    if _CONFIG_KEY not in arrays:
        raise ConfigurationError("archive does not contain an architecture description")
    config = json.loads(bytes(arrays[_CONFIG_KEY].astype(np.uint8)).decode("utf-8"))
    model = Sequential.from_config(config)
    for layer_name, param_name, value in model.named_parameters():
        key = f"param/{layer_name}/{param_name}"
        if key not in arrays:
            raise ConfigurationError(f"archive is missing parameter {key!r}")
        stored = np.asarray(arrays[key], dtype=np.float64)
        if stored.shape != value.shape:
            raise ConfigurationError(
                f"parameter {key} has shape {stored.shape}, expected {value.shape}"
            )
        value[...] = stored
    return model


def save_model(model: Sequential, path: str | Path) -> Path:
    """Serialise ``model`` to a ``.npz`` archive and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **model_to_arrays(model))
    # np.savez appends .npz when missing; normalise the returned path.
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def load_model(path: str | Path) -> Sequential:
    """Load a model previously written by :func:`save_model`."""
    path = Path(path)
    if not path.exists() and path.with_name(path.name + ".npz").exists():
        path = path.with_name(path.name + ".npz")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return model_from_arrays(arrays)
