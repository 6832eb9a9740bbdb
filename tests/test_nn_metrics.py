"""Tests for repro.nn.metrics."""

import numpy as np
import pytest

from repro.nn.metrics import accuracy
from repro.utils.errors import ShapeError


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_half(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 1]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            accuracy([], [])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            accuracy([0, 1], [0])

    def test_none_right(self):
        assert accuracy([0, 1, 2], [1, 2, 0]) == 0.0

    def test_two_dimensional_input_raises(self):
        with pytest.raises(ShapeError):
            accuracy([[0, 1]], [[0, 1]])

    def test_float_labels_compare_as_integers(self):
        assert accuracy(np.array([0.0, 1.0, 2.0]), np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_returns_python_float(self):
        assert type(accuracy(np.array([1, 1]), np.array([1, 0]))) is float
