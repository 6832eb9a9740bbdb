"""Terminal (ASCII) plotting.

The paper's Figures 1–3 are line charts.  This environment has no plotting
backend, so the figure drivers render their series as ASCII charts that can be
read directly in benchmark output and in EXPERIMENTS.md code blocks.  The
function is deliberately small and dependency-free; it is a rendering helper,
not a plotting library.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ShapeError

__all__ = ["ascii_line_chart"]


def _format_value(value: float) -> str:
    if abs(value - round(value)) < 1e-9 and abs(value) < 1e9:
        return str(int(round(value)))
    return f"{value:.3g}"


def ascii_line_chart(
    x_values,
    series: dict[str, list[float]],
    *,
    title: str = "",
    height: int = 12,
    width: int = 60,
    y_label: str = "",
) -> str:
    """Render one or more named series as an ASCII line chart.

    Each series is a list of y-values aligned with ``x_values``; missing
    points can be encoded as ``None`` / NaN and are skipped.  Series are drawn
    with distinct marker characters and listed in a legend.
    """
    x_values = list(x_values)
    if not x_values:
        raise ShapeError("x_values must not be empty")
    markers = "ox+*@%&$"
    cleaned: dict[str, np.ndarray] = {}
    for name, ys in series.items():
        ys = np.asarray([np.nan if y is None else float(y) for y in ys], dtype=np.float64)
        if ys.shape[0] != len(x_values):
            raise ShapeError(
                f"series {name!r} has {ys.shape[0]} points but there are {len(x_values)} x values"
            )
        cleaned[name] = ys
    if not cleaned:
        raise ShapeError("at least one series is required")

    all_values = np.concatenate([ys[~np.isnan(ys)] for ys in cleaned.values()])
    if all_values.size == 0:
        return title
    y_min, y_max = float(all_values.min()), float(all_values.max())
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    x_positions = np.linspace(0, width - 1, len(x_values)).astype(int)

    def row_of(value: float) -> int:
        fraction = (value - y_min) / (y_max - y_min)
        return int(round((height - 1) * (1.0 - fraction)))

    for (name, ys), marker in zip(cleaned.items(), markers):
        for x_pos, y in zip(x_positions, ys):
            if np.isnan(y):
                continue
            grid[row_of(y)][x_pos] = marker

    lines = [title] if title else []
    top_label = _format_value(y_max)
    bottom_label = _format_value(y_min)
    gutter = max(len(top_label), len(bottom_label), len(y_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(gutter)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(gutter)
        elif row_index == height // 2 and y_label:
            prefix = y_label.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix} |{''.join(row)}")
    axis = " " * gutter + " +" + "-" * width
    lines.append(axis)

    tick_line = [" "] * width
    for x_pos, x in zip(x_positions, x_values):
        label = str(x)
        start = min(x_pos, max(width - len(label), 0))
        for offset, char in enumerate(label):
            if start + offset < width:
                tick_line[start + offset] = char
    lines.append(" " * gutter + "  " + "".join(tick_line))

    legend = "   ".join(
        f"{marker} {name}" for (name, _), marker in zip(cleaned.items(), markers)
    )
    lines.append(" " * gutter + "  " + legend)
    return "\n".join(lines)
