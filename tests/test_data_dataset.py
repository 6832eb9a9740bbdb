"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import Dataset, DataSplit
from repro.utils.errors import ShapeError


def make_dataset(n=60, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.random((n, 8, 8, 1))
    labels = np.arange(n) % num_classes
    return Dataset(images=images, labels=labels, num_classes=num_classes, name="toy")


class TestConstruction:
    def test_basic_properties(self):
        ds = make_dataset()
        assert len(ds) == 60
        assert ds.image_shape == (8, 8, 1)
        assert ds.num_classes == 4

    def test_non_nhwc_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(images=np.zeros((10, 8, 8)), labels=np.zeros(10), num_classes=2)

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(images=np.zeros((10, 4, 4, 1)), labels=np.zeros(5), num_classes=2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((3, 4, 4, 1)), labels=np.array([0, 1, 5]), num_classes=2)

    def test_bad_num_classes(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((3, 4, 4, 1)), labels=np.zeros(3), num_classes=0)


class TestSubsetting:
    def test_subset(self):
        ds = make_dataset()
        sub = ds.subset([0, 5, 10])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, ds.labels[[0, 5, 10]])

    def test_subset_of_a_permutation_preserves_pairs(self):
        ds = make_dataset()
        shuffled = ds.subset(np.random.default_rng(1).permutation(len(ds)))
        assert len(shuffled) == len(ds)
        # the (image, label) association must be preserved
        for i in range(5):
            j = int(np.flatnonzero((ds.images == shuffled.images[i]).all(axis=(1, 2, 3)))[0])
            assert ds.labels[j] == shuffled.labels[i]


class TestSampling:
    def test_stratified_sample_balance(self):
        ds = make_dataset(n=100, num_classes=4)
        sample = ds.sample(20, seed=0)
        counts = np.bincount(sample.labels, minlength=4)
        assert counts.min() >= 4 and counts.max() <= 6

    def test_unstratified_sample_size(self):
        assert len(make_dataset().sample(15, seed=1, stratified=False)) == 15

    def test_sample_too_large_raises(self):
        with pytest.raises(ValueError):
            make_dataset(n=10).sample(11)

    def test_sample_deterministic(self):
        ds = make_dataset()
        a = ds.sample(10, seed=3)
        b = ds.sample(10, seed=3)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestBatches:
    def test_batch_sizes(self):
        ds = make_dataset(n=50)
        batches = list(ds.batches(16))
        assert [b[0].shape[0] for b in batches] == [16, 16, 16, 2]

    def test_shuffle_changes_order(self):
        ds = make_dataset(n=50)
        plain = np.concatenate([y for _, y in ds.batches(50)])
        shuffled = np.concatenate([y for _, y in ds.batches(50, shuffle=True, seed=1)])
        assert not np.array_equal(plain, shuffled)
        np.testing.assert_array_equal(np.sort(plain), np.sort(shuffled))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(make_dataset().batches(0))


class TestDataSplit:
    def test_split_properties(self):
        ds = make_dataset()
        split = DataSplit(train=ds.subset(np.arange(40)), test=ds.subset(np.arange(40, 60)))
        assert split.num_classes == 4
        assert split.name == "toy"


class TestDatasetDetails:
    def test_arrays_are_coerced(self):
        ds = Dataset(
            images=np.zeros((2, 3, 3, 1), dtype=np.float32),
            labels=np.array([0.0, 1.0]),
            num_classes=2,
        )
        assert ds.images.dtype == np.float64
        assert ds.labels.dtype == np.int64

    def test_empty_dataset_is_allowed(self):
        ds = Dataset(images=np.zeros((0, 4, 4, 1)), labels=np.zeros(0), num_classes=3)
        assert len(ds) == 0
        assert list(ds.batches(4)) == []

    def test_subset_keeps_metadata(self):
        sub = make_dataset().subset([1, 2])
        assert sub.name == "toy"
        assert sub.num_classes == 4
        assert sub.image_shape == (8, 8, 1)

    def test_stratified_sample_tops_up_short_classes(self):
        labels = np.array([0] * 10 + [1] * 2)
        ds = Dataset(images=np.zeros((12, 2, 2, 1)), labels=labels, num_classes=2)
        sample = ds.sample(8, seed=0)
        assert len(sample) == 8
        assert np.sum(sample.labels == 1) == 2

    def test_sample_has_no_repeats(self):
        ds = make_dataset(n=40)
        ds.images[:, 0, 0, 0] = np.arange(40)
        sample = ds.sample(25, seed=2)
        assert np.unique(sample.images[:, 0, 0, 0]).size == 25

    def test_shuffled_batches_cover_every_sample_once(self):
        ds = make_dataset(n=37)
        ds.images[:, 0, 0, 0] = np.arange(37)
        seen = np.concatenate([x[:, 0, 0, 0] for x, _ in ds.batches(8, shuffle=True, seed=4)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(37))
