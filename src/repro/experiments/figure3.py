"""Figure 3 — attack success rate of the S target images vs S.

The paper's fault-tolerance finding (§5.5): the success rate stays ≈100 %
while ``S`` is below the model's tolerance (≈10 for their networks when only
the last FC layer is modified) and drops beyond it; the absolute number of
successfully injected faults saturates near that tolerance.
"""

from __future__ import annotations

import functools

from repro.analysis.plotting import ascii_line_chart
from repro.analysis.reporting import Table
from repro.attacks.fault_sneaking import FaultSneakingAttack
from repro.attacks.targets import make_attack_plan
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    JobSpec,
    format_cell_int,
    register_job,
    run_experiment,
)
from repro.experiments.common import (
    anchor_pool_size,
    attack_config_for,
    get_setting,
    get_trained_model,
    victim_context,
)
from repro.zoo.registry import ModelRegistry

__all__ = ["run", "build_campaign", "assemble"]


def _num_images(setting) -> int:
    requested = max(setting.tolerance_r, max(setting.tolerance_s_values))
    return min(requested, anchor_pool_size(setting))


@register_job("tolerance-cell")
def _tolerance_cell_job(
    *,
    registry: ModelRegistry | None = None,
    dataset: str,
    scale: str,
    seed: int,
    s: int,
    num_images: int,
    plan_seed: int,
) -> dict:
    """One point of the fault-tolerance curve: attack S targets at fixed R."""
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    anchor_pool = victim_context(trained).anchor_pool
    config = attack_config_for(scale, norm="l0")
    plan = make_attack_plan(anchor_pool, num_targets=s, num_images=num_images, seed=plan_seed)
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    return {
        "success_rate": result.success_rate,
        "successful_faults": result.num_successful_faults,
        "keep_rate": result.keep_rate,
        "l0": result.l0_norm,
    }


def build_campaign(
    scale: str = "ci",
    *,
    seed: int = 0,
    datasets: tuple[str, ...] = ("mnist_like", "cifar_like"),
) -> Campaign:
    """Declare one job per (dataset, S) point of the tolerance curve."""
    setting = get_setting(scale)
    num_images = _num_images(setting)
    jobs = [
        JobSpec.make(
            "tolerance-cell",
            dataset=dataset,
            scale=scale,
            seed=int(seed),
            s=int(s),
            num_images=int(num_images),
            plan_seed=int(seed),
        )
        for dataset in datasets
        for s in setting.tolerance_s_values
    ]
    return Campaign(name="figure3", scale=scale, seed=seed, jobs=tuple(jobs))


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-point metrics into the Figure 3 table and chart."""
    table = Table(
        title="Figure 3: fault sneaking attack success rate vs S",
        columns=["dataset", "S", "success rate", "successful faults", "keep rate", "l0"],
    )
    success_series: dict[str, list[float]] = {}
    faults: dict[str, list[int]] = {}
    for params, metrics in results.cells():
        dataset = params["dataset"]
        successful = format_cell_int(metrics["successful_faults"])
        success_series.setdefault(dataset, []).append(metrics["success_rate"])
        faults.setdefault(dataset, []).append(successful)
        table.add_row(
            dataset,
            params["s"],
            metrics["success_rate"],
            successful,
            metrics["keep_rate"],
            format_cell_int(metrics["l0"]),
        )
    for dataset, counts in faults.items():
        table.add_note(
            f"{dataset}: observed fault tolerance (max successful faults) = {max(counts)}"
        )
    table.add_note(
        "Paper reference: success rate stays ~100% for S < 10 and drops beyond; the "
        "number of successful faults saturates around 10."
    )
    table.add_note(
        "\n"
        + ascii_line_chart(
            list(get_setting(campaign.scale).tolerance_s_values),
            success_series,
            title="Figure 3: success rate vs S",
            y_label="rate",
        )
    )
    return table


# Reproduce Figure 3 and return it as a :class:`Table`.
run = functools.partial(run_experiment, build_campaign, assemble)
