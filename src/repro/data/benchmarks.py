"""The two benchmark dataset stand-ins used throughout the reproduction.

``mnist_like`` and ``cifar_like`` mirror the shapes and relative difficulty of
MNIST and CIFAR-10 but train in seconds on a CPU (see the README's
introduction).  Both return a :class:`repro.data.dataset.DataSplit` with
i.i.d. train and test partitions drawn from the same synthetic distribution.
"""

from __future__ import annotations

from repro.data.dataset import DataSplit
from repro.data.synthetic import SyntheticImageConfig, SyntheticImageGenerator

__all__ = ["mnist_like", "cifar_like"]

# Offsets keep train/test/extra sampling streams disjoint but deterministic.
_TRAIN_SEED_OFFSET = 1_000
_TEST_SEED_OFFSET = 2_000


def mnist_like(
    n_train: int = 4000,
    n_test: int = 1000,
    *,
    seed: int = 0,
    image_size: int = 28,
) -> DataSplit:
    """Return the MNIST stand-in: easy grey-scale stroke "digits".

    A small CNN reaches ≈99 % test accuracy, mirroring the 99.5 % the paper
    reports on real MNIST.
    """
    config = SyntheticImageConfig(
        image_size=image_size,
        channels=1,
        num_classes=10,
        modes_per_class=2,
        strokes_per_prototype=4,
        blur_sigma=1.2,
        jitter=2,
        noise_std=0.10,
        gain_range=(0.9, 1.1),
        occlusion_probability=0.05,
        occlusion_size=5,
        color_texture=False,
        seed=seed,
    )
    generator = SyntheticImageGenerator(config)
    train = generator.sample(n_train, seed=seed + _TRAIN_SEED_OFFSET, name="mnist-like")
    test = generator.sample(n_test, seed=seed + _TEST_SEED_OFFSET, name="mnist-like")
    return DataSplit(train=train, test=test)


def cifar_like(
    n_train: int = 4000,
    n_test: int = 1000,
    *,
    seed: int = 0,
    image_size: int = 32,
) -> DataSplit:
    """Return the CIFAR-10 stand-in: harder multi-mode colour images.

    Heavier nuisance variation (several prototype modes per class, colour
    textures, occlusions, more noise) caps the same CNN at roughly 75–85 %
    accuracy, mirroring the 79.5 % the paper reports on real CIFAR-10.
    """
    config = SyntheticImageConfig(
        image_size=image_size,
        channels=3,
        num_classes=10,
        modes_per_class=3,
        strokes_per_prototype=5,
        blur_sigma=1.6,
        jitter=3,
        noise_std=0.22,
        gain_range=(0.7, 1.3),
        occlusion_probability=0.35,
        occlusion_size=8,
        color_texture=True,
        seed=seed + 77,
    )
    generator = SyntheticImageGenerator(config)
    train = generator.sample(n_train, seed=seed + _TRAIN_SEED_OFFSET, name="cifar-like")
    test = generator.sample(n_test, seed=seed + _TEST_SEED_OFFSET, name="cifar-like")
    return DataSplit(train=train, test=test)
