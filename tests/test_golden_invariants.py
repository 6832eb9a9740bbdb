"""Invariants over the pinned hardware-cost table (guard rails, not snapshots).

A golden snapshot only says a table did not change; it cannot say the table
measures something.  These tests read ``tests/golden/hardware_cost_smoke.json``
and check two properties a meaningful table has:

* the attack survives lowering somewhere (some row has bit-true success > 0);
* every grid axis with two or more levels matters: for each group of rows
  that agree on every other key column, the levels do not all give the same
  metric row.

Today no attack lands bit-true and the three budget levels give identical
rows, so those cases are strict xfails pointing at ROADMAP item 1 (a
hardware-aware solve).  They start failing the moment that work lands, as a
reminder to drop the marker.
"""

import json
from collections import defaultdict
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "hardware_cost_smoke.json"

# Columns that identify a grid cell; every other column is a metric.
KEY_COLUMNS = ("storage", "profile", "budget", "pattern", "S")

ITEM_1 = (
    "ROADMAP item 1: the solve ignores the device, so no attack lands bit-true "
    "and the budget levels cannot differ"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_some_attack_survives_lowering(golden):
    column = golden["columns"].index("bit-true success")
    assert max(row[column] for row in golden["rows"]) > 0.0


@pytest.mark.parametrize(
    "axis",
    [
        "storage",
        "profile",
        pytest.param("budget", marks=pytest.mark.xfail(strict=True, reason=ITEM_1)),
    ],
)
def test_axis_levels_give_distinct_rows(golden, axis):
    columns = golden["columns"]
    axis_index = columns.index(axis)
    other_keys = [columns.index(key) for key in KEY_COLUMNS if key != axis]
    metrics = [i for i, name in enumerate(columns) if name not in KEY_COLUMNS]

    groups: dict[tuple, dict] = defaultdict(dict)
    for row in golden["rows"]:
        group = tuple(row[i] for i in other_keys)
        groups[group][row[axis_index]] = tuple(row[i] for i in metrics)

    levels = {row[axis_index] for row in golden["rows"]}
    assert len(levels) >= 2, f"{axis} has a single level in the golden table"
    identical = [group for group, by_level in groups.items() if len(set(by_level.values())) == 1]
    assert not identical, f"every {axis} level gives the same row for {identical}"
