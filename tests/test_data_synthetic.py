"""Tests for repro.data.synthetic."""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticImageConfig, SyntheticImageGenerator, _gaussian_blur
from repro.utils.errors import ConfigurationError


class TestConfigValidation:
    def test_defaults_valid(self):
        SyntheticImageConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"image_size": 4},
            {"channels": 2},
            {"num_classes": 1},
            {"modes_per_class": 0},
            {"noise_std": -0.1},
            {"occlusion_probability": 1.5},
            {"jitter": -1},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            SyntheticImageConfig(**kwargs)


class TestGenerator:
    def test_prototype_shape(self, tiny_config):
        gen = SyntheticImageGenerator(tiny_config)
        assert gen.prototypes.shape == (6, 1, 12, 12, 1)

    def test_prototypes_in_range(self, tiny_config):
        gen = SyntheticImageGenerator(tiny_config)
        assert gen.prototypes.min() >= 0.0
        assert gen.prototypes.max() <= 1.0

    def test_prototypes_deterministic(self, tiny_config):
        a = SyntheticImageGenerator(tiny_config).prototypes
        b = SyntheticImageGenerator(tiny_config).prototypes
        np.testing.assert_array_equal(a, b)

    def test_classes_are_distinct(self, tiny_config):
        protos = SyntheticImageGenerator(tiny_config).prototypes[:, 0, :, :, 0]
        for i in range(protos.shape[0]):
            for j in range(i + 1, protos.shape[0]):
                assert np.abs(protos[i] - protos[j]).mean() > 0.01

    def test_sample_shapes_and_range(self, tiny_config):
        ds = SyntheticImageGenerator(tiny_config).sample(30, seed=0)
        assert ds.images.shape == (30, 12, 12, 1)
        assert ds.labels.shape == (30,)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert ds.num_classes == 6

    def test_sample_deterministic(self, tiny_config):
        gen = SyntheticImageGenerator(tiny_config)
        a = gen.sample(20, seed=5)
        b = gen.sample(20, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self, tiny_config):
        gen = SyntheticImageGenerator(tiny_config)
        a = gen.sample(20, seed=1)
        b = gen.sample(20, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_invalid_sample_size(self, tiny_config):
        with pytest.raises(ValueError):
            SyntheticImageGenerator(tiny_config).sample(0)

    def test_color_texture_produces_channel_variation(self):
        config = SyntheticImageConfig(
            image_size=16, channels=3, num_classes=3, color_texture=True, seed=0
        )
        protos = SyntheticImageGenerator(config).prototypes
        # channels should not be identical when colour textures are applied
        assert np.abs(protos[..., 0] - protos[..., 1]).max() > 1e-3

    def test_occlusion_applied(self):
        config = SyntheticImageConfig(
            image_size=16,
            channels=1,
            num_classes=3,
            occlusion_probability=1.0,
            occlusion_size=6,
            noise_std=0.0,
            jitter=0,
            seed=0,
        )
        gen = SyntheticImageGenerator(config)
        ds = gen.sample(10, seed=1)
        # occluded samples must differ from the raw prototype
        for i in range(10):
            proto = gen.prototypes[ds.labels[i], 0]
            assert np.abs(ds.images[i] - np.clip(proto, 0, 1)).max() > 0.05

    def test_samples_learnable_by_nearest_prototype(self, tiny_config):
        """A nearest-prototype classifier should beat chance by a wide margin."""
        gen = SyntheticImageGenerator(tiny_config)
        ds = gen.sample(120, seed=3)
        protos = gen.prototypes[:, 0].reshape(6, -1)
        flat = ds.images.reshape(len(ds), -1)
        distances = ((flat[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        accuracy = (predictions == ds.labels).mean()
        assert accuracy > 0.8


def _reference_blur(image, sigma):
    """Pixel-by-pixel Gaussian filter: mirror at the edge, rows then columns.

    Each output is the centre term times the centre weight, then
    ``(left + right) * weight`` for the offsets from the radius down to 1.
    """
    radius = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = (weights / weights.sum()).tolist()

    def mirror(index, length):
        if index < 0:
            return -index - 1
        if index >= length:
            return 2 * length - index - 1
        return index

    rows, cols = image.shape
    values = image.tolist()
    by_rows = [[0.0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            total = values[r][c] * weights[radius]
            for offset in range(radius, 0, -1):
                left = values[mirror(r - offset, rows)][c]
                right = values[mirror(r + offset, rows)][c]
                total += (left + right) * weights[radius - offset]
            by_rows[r][c] = total
    out = np.empty((rows, cols))
    for r in range(rows):
        for c in range(cols):
            total = by_rows[r][c] * weights[radius]
            for offset in range(radius, 0, -1):
                left = by_rows[r][mirror(c - offset, cols)]
                right = by_rows[r][mirror(c + offset, cols)]
                total += (left + right) * weights[radius - offset]
            out[r, c] = total
    return out


class TestGaussianBlur:
    @pytest.mark.parametrize("size", [28, 32])
    @pytest.mark.parametrize("sigma", [0.6, 1.2, 1.6, 2.0])
    def test_bit_equal_to_loop_reference(self, size, sigma):
        rng = np.random.default_rng(size * 10 + int(sigma * 10))
        dense = rng.random((size, size))
        strokes = (rng.random((size, size)) < 0.1) * rng.integers(1, 4, (size, size))
        for image in (dense, strokes.astype(float)):
            np.testing.assert_array_equal(
                _gaussian_blur(image, sigma), _reference_blur(image, sigma)
            )

    def test_mass_preserved_and_smoothed(self):
        image = np.zeros((28, 28))
        image[14, 14] = 1.0
        blurred = _gaussian_blur(image, 1.2)
        assert blurred.sum() == pytest.approx(1.0)
        assert blurred[14, 14] == blurred.max() < 1.0
        np.testing.assert_allclose(blurred, blurred.T, rtol=0, atol=1e-17)
