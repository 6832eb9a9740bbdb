"""Table 1 — ℓ0 norm of the modification per attacked fully connected layer.

The paper attacks each of the three FC layers of the MNIST network in turn
with ``S = R ∈ {1, 4, 16}`` and reports the number of modified parameters.
The headline observation: attacking the *last* FC layer needs far fewer
modifications than attacking earlier layers, because it influences the logits
most directly.  This driver reproduces the same rows for the MNIST-like model.
"""

from __future__ import annotations

import functools

from repro.analysis.reporting import Table
from repro.attacks.fault_sneaking import FaultSneakingAttack
from repro.attacks.parameter_view import ParameterSelector, ParameterView
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

__all__ = ["run", "build_campaign", "assemble", "ATTACKED_LAYERS"]

# The three FC layers of the benchmark architectures, first to last.
ATTACKED_LAYERS = ("fc1", "fc2", "fc_logits")


@register_job("layer-attack")
def _layer_attack_job(
    *,
    registry: ModelRegistry | None = None,
    dataset: str,
    scale: str,
    seed: int,
    layer: str,
    s: int,
    plan_seed: int,
) -> dict:
    """Attack a single FC layer with S = R targets and report the l0 norm."""
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    model = trained.model
    total_params = ParameterView(model, ParameterSelector(layers=(layer,))).size
    config = attack_config_for(scale, norm="l0", layers=(layer,))
    plan = make_attack_plan(trained.data.test, num_targets=s, num_images=s, seed=plan_seed)
    result = FaultSneakingAttack(model, config).attack(plan)
    return {
        "l0": result.l0_norm,
        "success_rate": result.success_rate,
        "total_params": total_params,
    }


def build_campaign(
    scale: str = "ci", *, seed: int = 0, dataset: str = "mnist_like"
) -> Campaign:
    """Declare one job per (layer, S) cell of Table 1."""
    setting = get_setting(scale)
    jobs = [
        JobSpec.make(
            "layer-attack",
            dataset=dataset,
            scale=scale,
            seed=int(seed),
            layer=layer,
            s=int(s),
            plan_seed=int(seed + s),
        )
        for layer in ATTACKED_LAYERS
        for s in setting.layer_s_values
    ]
    return Campaign(
        name="table1",
        scale=scale,
        seed=seed,
        jobs=tuple(jobs),
        metadata={"dataset": dataset},
    )


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-cell metrics into the paper's Table 1."""
    s_values = get_setting(campaign.scale).layer_s_values
    cells = {(params["layer"], params["s"]): metrics for params, metrics in results.cells()}
    table = Table(
        title=(
            "Table 1: l0 norm of parameter modifications per FC layer "
            f"({campaign.metadata['dataset']})"
        ),
        columns=["layer", "total_params"] + [f"l0 (S=R={s})" for s in s_values],
    )

    for layer in ATTACKED_LAYERS:
        row = []
        for s in s_values:
            metrics = cells[layer, s]
            l0 = format_cell_int(metrics["l0"])
            row.append(l0 if metrics["success_rate"] >= 1.0 else f"{l0}*")
        table.add_row(layer, format_cell_int(metrics["total_params"]), *row)

    table.add_note(
        "Paper reference (MNIST, S=R=1/4/16): fc1 205000 params -> 14016/40649/120597, "
        "fc2 40200 -> 5390/14086/34069, last FC 2010 -> 222/682/1755."
    )
    table.add_note(
        "Expected shape: the last FC layer needs the fewest modifications; "
        "the l0 norm grows with S."
    )
    table.add_note("Entries marked with '*' did not reach 100% attack success.")
    return table


# Reproduce Table 1 and return it as a :class:`Table`.
run = functools.partial(run_experiment, build_campaign, assemble)
