"""Synthetic image dataset generator.

The generator produces class-structured images from *prototypes*: each class
owns a small set of smooth spatial patterns (random strokes and blobs,
optionally per-channel colour textures).  A sample is drawn by picking one of
the class's prototypes and applying nuisance transformations — spatial
jitter, per-sample gain/offset, additive Gaussian noise and random occlusion.

Difficulty is controlled by the number of prototype modes per class, the
jitter range and the noise level, which lets the two benchmark datasets
(:func:`repro.data.benchmarks.mnist_like` and
:func:`repro.data.benchmarks.cifar_like`) mimic the accuracy gap between
MNIST and CIFAR-10 that the paper's evaluation relies on.

Prototypes are smoothed by :func:`_gaussian_blur`, a separable Gaussian
filter in plain NumPy: a kernel ``exp(-x**2 / (2 sigma**2))`` over
``|x| <= int(4 sigma + 0.5)``, normalised by its sum, with the image mirrored
at its border (edge pixel repeated).  It sums in the same order as
``scipy.ndimage.gaussian_filter``, so its output is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, fork_rng

__all__ = ["SyntheticImageConfig", "SyntheticImageGenerator"]


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Configuration of a synthetic image distribution.

    Parameters
    ----------
    image_size:
        Square image height/width in pixels.
    channels:
        1 for grey-scale, 3 for colour.
    num_classes:
        Number of classes.
    modes_per_class:
        Number of distinct prototypes per class; more modes = harder dataset.
    strokes_per_prototype:
        Number of random strokes composing a prototype pattern.
    blur_sigma:
        Gaussian smoothing applied to prototypes (pixels).
    jitter:
        Maximum absolute spatial shift applied per sample (pixels).
    noise_std:
        Standard deviation of additive Gaussian pixel noise.
    gain_range:
        Multiplicative brightness range applied per sample.
    occlusion_probability:
        Probability of erasing a random square patch in a sample.
    occlusion_size:
        Side length of the erased patch (pixels).
    color_texture:
        Whether to add per-channel sinusoidal colour textures (for the
        CIFAR-like dataset).
    seed:
        Seed controlling the prototype patterns themselves.
    """

    image_size: int = 28
    channels: int = 1
    num_classes: int = 10
    modes_per_class: int = 1
    strokes_per_prototype: int = 4
    blur_sigma: float = 1.2
    jitter: int = 2
    noise_std: float = 0.08
    gain_range: tuple[float, float] = (0.9, 1.1)
    occlusion_probability: float = 0.0
    occlusion_size: int = 6
    color_texture: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 8:
            raise ConfigurationError(f"image_size must be >= 8, got {self.image_size}")
        if self.channels not in (1, 3):
            raise ConfigurationError(f"channels must be 1 or 3, got {self.channels}")
        if self.num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.modes_per_class < 1:
            raise ConfigurationError("modes_per_class must be >= 1")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be non-negative")
        if not 0.0 <= self.occlusion_probability <= 1.0:
            raise ConfigurationError("occlusion_probability must be in [0, 1]")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be non-negative")


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth a 2-D ``image``, one axis at a time.

    Each output pixel is the centre term times the centre weight, plus the
    mirrored pairs ``(left + right) * weight`` added from the outermost pair
    inward: the summation order of ``scipy.ndimage.correlate1d`` for a
    symmetric kernel, which makes the result bit-identical to
    ``scipy.ndimage.gaussian_filter(image, sigma)`` (``mode="reflect"``,
    ``truncate=4``).
    """
    radius = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = weights / weights.sum()
    for _ in range(2):
        # Blur along axis 0, then transpose so the next pass takes the other axis.
        padded = np.pad(image, ((radius, radius), (0, 0)), mode="symmetric")
        rows = image.shape[0]
        blurred = image * weights[radius]
        for offset in range(radius, 0, -1):
            left = padded[radius - offset : radius - offset + rows]
            right = padded[radius + offset : radius + offset + rows]
            blurred = blurred + (left + right) * weights[radius - offset]
        image = blurred.T
    return image


class SyntheticImageGenerator:
    """Draws datasets from a fixed synthetic image distribution.

    The prototypes are created once from ``config.seed``; separate calls to
    :meth:`sample` with different seeds draw different samples from the *same*
    distribution, which is what lets train and test sets be i.i.d.
    """

    def __init__(self, config: SyntheticImageConfig):
        self.config = config
        self._prototypes = self._build_prototypes()

    # -- prototype construction -------------------------------------------------
    def _build_prototypes(self) -> np.ndarray:
        """Return prototypes of shape (num_classes, modes, H, W, C)."""
        cfg = self.config
        rng = RandomState(cfg.seed)
        class_rngs = fork_rng(rng, cfg.num_classes)
        prototypes = np.zeros(
            (cfg.num_classes, cfg.modes_per_class, cfg.image_size, cfg.image_size, cfg.channels)
        )
        for cls, cls_rng in enumerate(class_rngs):
            mode_rngs = fork_rng(cls_rng, cfg.modes_per_class)
            for mode, mode_rng in enumerate(mode_rngs):
                prototypes[cls, mode] = self._draw_prototype(mode_rng)
        return prototypes

    def _draw_prototype(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        canvas = np.zeros((cfg.image_size, cfg.image_size))
        for _ in range(cfg.strokes_per_prototype):
            canvas += self._draw_stroke(rng)
        canvas = _gaussian_blur(canvas, cfg.blur_sigma)
        peak = canvas.max()
        if peak > 0:
            canvas = canvas / peak

        image = np.repeat(canvas[:, :, None], cfg.channels, axis=2)
        if cfg.color_texture and cfg.channels == 3:
            image = image * self._color_texture(rng)
        return np.clip(image, 0.0, 1.0)

    def _draw_stroke(self, rng: np.random.Generator) -> np.ndarray:
        """Render one random-walk stroke as a soft intensity field."""
        cfg = self.config
        size = cfg.image_size
        canvas = np.zeros((size, size))
        # Start away from the border so jitter does not push content out.
        position = rng.uniform(size * 0.2, size * 0.8, size=2)
        direction = rng.uniform(-1.0, 1.0, size=2)
        steps = rng.integers(size // 2, size)
        for _ in range(steps):
            direction += rng.normal(0.0, 0.4, size=2)
            norm = np.linalg.norm(direction)
            if norm > 1e-9:
                direction /= norm
            position = np.clip(position + direction * 1.2, 1, size - 2)
            row, col = int(position[0]), int(position[1])
            canvas[row, col] += 1.0
        return canvas

    def _color_texture(self, rng: np.random.Generator) -> np.ndarray:
        """Per-channel smooth sinusoidal gain field in [0.3, 1.0]."""
        cfg = self.config
        coords = np.linspace(0, 2 * np.pi, cfg.image_size)
        yy, xx = np.meshgrid(coords, coords, indexing="ij")
        channels = []
        for _ in range(cfg.channels):
            freq = rng.uniform(0.5, 2.0, size=2)
            phase = rng.uniform(0, 2 * np.pi, size=2)
            field = 0.5 * (np.sin(freq[0] * yy + phase[0]) + np.cos(freq[1] * xx + phase[1]))
            channels.append(0.65 + 0.35 * field / 2.0)
        return np.stack(channels, axis=2)

    # -- sampling ----------------------------------------------------------------
    @property
    def prototypes(self) -> np.ndarray:
        """The underlying class prototypes (num_classes, modes, H, W, C)."""
        return self._prototypes

    def sample(self, n: int, *, seed: int | None = None, name: str | None = None) -> Dataset:
        """Draw ``n`` labelled samples from the synthetic distribution."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        cfg = self.config
        rng = RandomState(seed)
        labels = rng.integers(0, cfg.num_classes, size=n)
        modes = rng.integers(0, cfg.modes_per_class, size=n)
        images = np.empty((n, cfg.image_size, cfg.image_size, cfg.channels))
        for i in range(n):
            images[i] = self._transform(self._prototypes[labels[i], modes[i]], rng)
        return Dataset(
            images=images,
            labels=labels,
            num_classes=cfg.num_classes,
            name=name or f"synthetic-{cfg.image_size}x{cfg.image_size}x{cfg.channels}",
        )

    def _transform(self, prototype: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply per-sample nuisance transformations to a prototype."""
        cfg = self.config
        image = prototype
        if cfg.jitter:
            shift = rng.integers(-cfg.jitter, cfg.jitter + 1, size=2)
            image = np.roll(image, shift=tuple(shift), axis=(0, 1))
        gain = rng.uniform(*cfg.gain_range)
        offset = rng.normal(0.0, 0.02)
        image = image * gain + offset
        if cfg.noise_std:
            image = image + rng.normal(0.0, cfg.noise_std, size=image.shape)
        if cfg.occlusion_probability and rng.random() < cfg.occlusion_probability:
            image = self._occlude(image, rng)
        return np.clip(image, 0.0, 1.0)

    def _occlude(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        size = min(cfg.occlusion_size, cfg.image_size - 1)
        row = rng.integers(0, cfg.image_size - size)
        col = rng.integers(0, cfg.image_size - size)
        occluded = image.copy()
        occluded[row : row + size, col : col + size, :] = rng.uniform(0.0, 1.0)
        return occluded
