"""In-memory image classification dataset containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.utils.errors import ShapeError
from repro.utils.rng import RandomState

__all__ = ["Dataset", "DataSplit"]


@dataclass
class Dataset:
    """An immutable-by-convention image classification dataset.

    Attributes
    ----------
    images:
        Float array of shape ``(N, H, W, C)`` with values in ``[0, 1]``.
    labels:
        Integer array of shape ``(N,)`` with values in ``[0, num_classes)``.
    num_classes:
        Number of classes.
    name:
        Human-readable dataset name (used in reports and cache keys).
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ShapeError(f"images must be NHWC, got shape {self.images.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.images.shape[0]:
            raise ShapeError(
                f"labels must be 1-D with length {self.images.shape[0]}, got {self.labels.shape}"
            )
        if self.num_classes <= 0:
            raise ValueError(f"num_classes must be positive, got {self.num_classes}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes - 1}], "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )

    # -- basic protocol --------------------------------------------------------
    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def image_shape(self) -> tuple[int, int, int]:
        """Shape of a single image ``(H, W, C)``."""
        return tuple(self.images.shape[1:])

    def subset(self, indices) -> "Dataset":
        """Return a new dataset containing only the given indices."""
        indices = np.asarray(indices)
        return Dataset(
            images=self.images[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            name=self.name,
        )

    def sample(self, n: int, *, seed: int | None = None, stratified: bool = True) -> "Dataset":
        """Return a random sample of ``n`` items, optionally class-balanced."""
        if n > len(self):
            raise ValueError(f"cannot sample {n} items from a dataset of size {len(self)}")
        rng = RandomState(seed)
        if not stratified:
            return self.subset(rng.choice(len(self), size=n, replace=False))
        per_class = n // self.num_classes
        remainder = n - per_class * self.num_classes
        chosen: list[np.ndarray] = []
        for cls in range(self.num_classes):
            cls_idx = np.flatnonzero(self.labels == cls)
            want = per_class + (1 if cls < remainder else 0)
            want = min(want, cls_idx.size)
            if want:
                chosen.append(rng.choice(cls_idx, size=want, replace=False))
        indices = np.concatenate(chosen) if chosen else np.array([], dtype=np.int64)
        if indices.size < n:
            # Top up from the remaining pool when some class ran short.
            remaining = np.setdiff1d(np.arange(len(self)), indices, assume_unique=False)
            extra = rng.choice(remaining, size=n - indices.size, replace=False)
            indices = np.concatenate([indices, extra])
        return self.subset(rng.permutation(indices))

    def batches(
        self, batch_size: int, *, shuffle: bool = False, seed: int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(images, labels)`` mini-batches."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        order = np.arange(len(self))
        if shuffle:
            order = RandomState(seed).permutation(order)
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            yield self.images[idx], self.labels[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(name={self.name!r}, n={len(self)}, "
            f"image_shape={self.image_shape}, num_classes={self.num_classes})"
        )


@dataclass
class DataSplit:
    """A train/test split of a dataset."""

    train: Dataset
    test: Dataset

    @property
    def num_classes(self) -> int:
        return self.train.num_classes

    @property
    def name(self) -> str:
        return self.train.name
