"""Figure 1 — ℓ0 norm of the last-FC-layer modification vs S (MNIST).

The figure plots the number of modified parameters against the number of
injected faults ``S`` for several values of ``R``.  The reproduction returns
the same series as a table (one row per R, one column per S); the benchmark
harness prints it, and the values can be plotted directly if desired.
"""

from __future__ import annotations

import functools

from repro.analysis.plotting import ascii_line_chart
from repro.analysis.reporting import Table
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    format_cell_int,
    run_experiment,
)
from repro.experiments.common import get_setting, sweep_cell_spec, usable_r_values

__all__ = ["run", "build_campaign", "assemble"]


def build_campaign_for_dataset(
    dataset: str, figure_name: str, scale: str = "ci", *, seed: int = 0
) -> Campaign:
    """Declare the shared Figure 1/2 sweep grid for one dataset."""
    setting = get_setting(scale)
    jobs = [
        sweep_cell_spec(dataset=dataset, scale=scale, seed=seed, s=s, r=r, norm="l0")
        for r in usable_r_values(setting)
        for s in setting.s_values
        if s <= r
    ]
    return Campaign(
        name=figure_name.lower().replace(" ", ""),
        scale=scale,
        seed=seed,
        jobs=tuple(jobs),
        metadata={"dataset": dataset, "figure_name": figure_name},
    )


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-cell metrics into the figure's l0-vs-S series."""
    setting = get_setting(campaign.scale)
    dataset = campaign.metadata["dataset"]
    figure_name = campaign.metadata["figure_name"]
    s_values = setting.s_values
    r_values = usable_r_values(setting)
    # Cells with S > R are not in the grid: they read as None ("-").
    l0 = {
        (params["r"], params["s"]): format_cell_int(metrics["l0"])
        for params, metrics in results.cells()
    }

    columns = ["R"] + [f"l0 (S={s})" for s in s_values]
    table = Table(
        title=f"{figure_name}: l0 norm of last-FC-layer modifications vs S ({dataset})",
        columns=columns,
    )
    for r in r_values:
        table.add_row(r, *(l0.get((r, s), "-") for s in s_values))
    table.add_note(
        "Expected shape: for fixed R the l0 norm increases with S; for small S the "
        "norm tends to shrink as R grows (a more constrained model needs fewer changes)."
    )
    series = {f"R={r}": [l0.get((r, s)) for s in s_values] for r in r_values}
    table.add_note(
        "\n"
        + ascii_line_chart(
            list(s_values), series, title=f"{figure_name}: l0 vs S", y_label="l0"
        )
    )
    return table


def build_campaign(scale: str = "ci", *, seed: int = 0) -> Campaign:
    """Declare the Figure 1 (MNIST-like) campaign."""
    return build_campaign_for_dataset("mnist_like", "Figure 1", scale, seed=seed)


# Reproduce Figure 1 (MNIST-like dataset).
run = functools.partial(run_experiment, build_campaign, assemble)
