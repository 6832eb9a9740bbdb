"""Table 3 — ℓ0-based vs ℓ2-based attacks.

For three (S, R) settings the paper runs both variants of the attack on the
last FC layer of the MNIST network and reports the ℓ0 and ℓ2 norms of the
resulting modification.  Expected shape: the ℓ0 attack modifies far fewer
parameters, at the price of a (somewhat) larger Euclidean magnitude.
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

# (row label, attack norm, kappa override).  The l2 attack does not sparsify,
# so it needs no hinge margin.
_VARIANTS = (
    ("l0 attack", "l0", None),
    ("l2 attack", "l2", 0.0),
)


@register_job("norm-attack")
def _norm_attack_job(
    *,
    registry: ModelRegistry | None = None,
    dataset: str,
    scale: str,
    seed: int,
    norm: str,
    kappa,
    s: int,
    r: int,
    plan_seed: int,
) -> dict:
    """Run one attack-norm variant at one (S, R) setting."""
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    overrides = {} if kappa is None else {"kappa": float(kappa)}
    config = attack_config_for(scale, norm=norm, **overrides)
    plan = make_attack_plan(trained.data.test, num_targets=s, num_images=r, seed=plan_seed)
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    return {"l0": result.l0_norm, "l2": result.l2_norm}


def build_campaign(
    scale: str = "ci", *, seed: int = 0, dataset: str = "mnist_like"
) -> Campaign:
    """Declare one job per (attack variant, (S, R)) cell of Table 3."""
    setting = get_setting(scale)
    jobs = [
        JobSpec.make(
            "norm-attack",
            dataset=dataset,
            scale=scale,
            seed=int(seed),
            norm=norm,
            kappa=kappa,
            s=int(s),
            r=int(r),
            plan_seed=int(seed + 13 * s + r),
        )
        for _, norm, kappa in _VARIANTS
        for s, r in setting.norm_settings
    ]
    return Campaign(
        name="table3",
        scale=scale,
        seed=seed,
        jobs=tuple(jobs),
        metadata={"dataset": dataset},
    )


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-cell metrics into the paper's Table 3."""
    columns = ["attack"]
    for s, r in get_setting(campaign.scale).norm_settings:
        columns += [f"l0 (S={s},R={r})", f"l2 (S={s},R={r})"]
    table = Table(
        title=(
            "Table 3: l0 and l2 norms of the l0- and l2-based attacks "
            f"({campaign.metadata['dataset']})"
        ),
        columns=columns,
    )

    # Cells run (S, R)-fastest within each variant: one row per variant.
    labels = {norm: label for label, norm, _ in _VARIANTS}
    rows: dict[str, list] = {}
    for params, metrics in results.cells():
        label = labels[params["norm"]]
        rows.setdefault(label, [label]).extend(
            [format_cell_int(metrics["l0"]), metrics["l2"]]
        )
    for row in rows.values():
        table.add_row(*row)

    table.add_note(
        "Paper reference (MNIST, last FC layer): l0 attack 1026/1208/1606 modified "
        "parameters vs l2 attack 1431/1432/1964; the l2 attack achieves the smaller "
        "Euclidean norm."
    )
    table.add_note(
        "Expected shape: the l0-based attack modifies fewer parameters than the "
        "l2-based attack for every (S, R)."
    )
    return table


# Reproduce Table 3 and return it as a :class:`Table`.
run = functools.partial(run_experiment, build_campaign, assemble)
