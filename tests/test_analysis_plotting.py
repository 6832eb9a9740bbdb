"""Tests for repro.analysis.plotting (ASCII charts)."""

import pytest

from repro.analysis.plotting import ascii_line_chart
from repro.utils.errors import ShapeError


class TestLineChart:
    def test_basic_render(self):
        chart = ascii_line_chart([1, 2, 4, 8], {"series": [1, 2, 3, 4]}, title="curve")
        assert "curve" in chart
        assert "o series" in chart
        assert chart.count("o") >= 4

    def test_axis_labels_present(self):
        chart = ascii_line_chart([1, 10], {"a": [0.0, 100.0]})
        assert "100" in chart and "0" in chart
        assert "10" in chart  # x tick

    def test_multiple_series_get_distinct_markers(self):
        chart = ascii_line_chart([1, 2, 3], {"up": [1, 2, 3], "down": [3, 2, 1]})
        assert "o up" in chart and "x down" in chart
        assert "o" in chart and "x" in chart

    def test_missing_points_skipped(self):
        chart = ascii_line_chart([1, 2, 3], {"s": [1.0, None, 3.0]})
        assert "s" in chart

    def test_constant_series(self):
        chart = ascii_line_chart([1, 2], {"flat": [5.0, 5.0]})
        assert "flat" in chart

    def test_empty_x_rejected(self):
        with pytest.raises(ShapeError):
            ascii_line_chart([], {"s": []})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ascii_line_chart([1, 2], {"s": [1.0]})

    def test_no_series_rejected(self):
        with pytest.raises(ShapeError):
            ascii_line_chart([1, 2], {})

    def test_dimensions(self):
        chart = ascii_line_chart([1, 2, 3], {"s": [1, 2, 3]}, height=6, width=30)
        # 6 grid rows + axis + ticks + legend (+ no title)
        assert len(chart.splitlines()) == 9
