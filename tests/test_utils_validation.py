"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5, name="x") == 2.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError):
            check_positive(0.0, name="x")

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, name="x", strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, name="x", strict=False)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive(True, name="x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("3", name="x")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability(value, name="p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            check_probability(value, name="p")


class TestCheckInRange:
    def test_bounds_inclusive(self):
        assert check_in_range(3, low=3, high=5, name="x") == 3.0
        assert check_in_range(5, low=3, high=5, name="x") == 5.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="x must be in"):
            check_in_range(6, low=3, high=5, name="x")
