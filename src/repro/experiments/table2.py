"""Table 2 — attacking only weights vs only biases of the last FC layer.

The paper restricts the fault sneaking attack to either the weight matrix or
the bias vector of the last FC layer with ``S = R ∈ {1, 2, 4, 8}``.  Biases
are extremely cheap to modify (ℓ0 of 1–2 suffices for one or two images) but
run out of expressive power beyond two simultaneous targets — the success
rate collapses to 0 — which is the paper's argument against the single-bias
attack of Liu et al.
"""

from __future__ import annotations

import functools

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
from repro.experiments.common import attack_config_for, get_setting, get_trained_model
from repro.zoo.registry import ModelRegistry

__all__ = ["run", "build_campaign", "assemble"]

# (row label, parameter-view restriction) for the two halves of the table.
_CASES = (
    ("weights", True, False),
    ("biases", False, True),
)


@register_job("param-type-attack")
def _param_type_job(
    *,
    registry: ModelRegistry | None = None,
    dataset: str,
    scale: str,
    seed: int,
    layer: str,
    s: int,
    include_weights: bool,
    include_biases: bool,
    plan_seed: int,
) -> dict:
    """Attack only the weights or only the biases of one layer."""
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    config = attack_config_for(
        scale,
        norm="l0",
        layers=(layer,),
        include_weights=include_weights,
        include_biases=include_biases,
    )
    plan = make_attack_plan(trained.data.test, num_targets=s, num_images=s, seed=plan_seed)
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    return {"l0": result.l0_norm, "success_rate": result.success_rate}


def build_campaign(
    scale: str = "ci",
    *,
    seed: int = 0,
    dataset: str = "mnist_like",
    layer: str = "fc_logits",
) -> Campaign:
    """Declare one job per (parameter type, S) cell of Table 2."""
    setting = get_setting(scale)
    jobs = [
        JobSpec.make(
            "param-type-attack",
            dataset=dataset,
            scale=scale,
            seed=int(seed),
            layer=layer,
            s=int(s),
            include_weights=weights,
            include_biases=biases,
            plan_seed=int(seed + s),
        )
        for _, weights, biases in _CASES
        for s in setting.type_s_values
    ]
    return Campaign(
        name="table2",
        scale=scale,
        seed=seed,
        jobs=tuple(jobs),
        metadata={"dataset": dataset},
    )


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-cell metrics into the paper's Table 2."""
    s_values = get_setting(campaign.scale).type_s_values
    labels = {(weights, biases): label for label, weights, biases in _CASES}
    table = Table(
        title=(
            "Table 2: l0 norm and success rate per parameter type, last FC layer "
            f"({campaign.metadata['dataset']})"
        ),
        columns=["parameter type", "metric"] + [f"S=R={s}" for s in s_values],
    )

    # Cells run S-fastest within each case: one l0 row and one success row
    # per parameter type, filled left to right.
    rows: dict[str, tuple[list, list]] = {}
    for params, metrics in results.cells():
        label = labels[params["include_weights"], params["include_biases"]]
        l0_row, success_row = rows.setdefault(label, ([label, "l0 norm"], [label, "success rate"]))
        succeeded = metrics["success_rate"] >= 1.0
        l0_row.append(format_cell_int(metrics["l0"]) if succeeded else "-")
        success_row.append(metrics["success_rate"])
    for l0_row, success_row in rows.values():
        table.add_row(*l0_row)
        table.add_row(*success_row)

    table.add_note(
        "Paper reference (MNIST): weights succeed at every S with l0 236/458/715/1644; "
        "biases succeed only for S=1,2 (l0 = 2/4) and fail for S>=4."
    )
    table.add_note("'-' marks configurations where the attack did not reach 100% success.")
    return table


# Reproduce Table 2 and return it as a :class:`Table`.
run = functools.partial(run_experiment, build_campaign, assemble)
