"""§5.4 comparison — accuracy loss of fault sneaking vs the Liu et al. baselines.

The paper reports that, when misclassifying a single image, the fault
sneaking attack degrades MNIST accuracy by 0.8 points and CIFAR by 1.0 points,
whereas the fault injection attack of [16] loses 3.86 and 2.35 points in its
best case.  This driver runs all three attacks (fault sneaking ℓ0, GDA and
SBA) under the same S = 1 requirement and reports the modification size, the
attack success and the accuracy drop.
"""

from __future__ import annotations

import functools

from repro.analysis.evaluation import evaluate_attack_result
from repro.analysis.reporting import Table
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
    S1_BASELINE_ATTACKS,
    get_setting,
    get_trained_model,
    run_s1_attack,
    s1_num_images,
    victim_context,
)
from repro.zoo.registry import ModelRegistry

__all__ = ["run", "build_campaign", "assemble"]


@register_job("baseline-attack")
def _baseline_attack_job(
    *,
    registry: ModelRegistry | None = None,
    dataset: str,
    scale: str,
    seed: int,
    attack: str,
    num_images: int,
    plan_seed: int,
) -> dict:
    """Run one of the three S = 1 attacks and evaluate accuracy retention."""
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    context = victim_context(trained)
    plan = make_attack_plan(
        context.anchor_pool, num_targets=1, num_images=num_images, seed=plan_seed
    )
    result, success = run_s1_attack(attack, trained.model, plan, scale)

    if attack == "fault_sneaking":
        # The paper's method is scored through the full evaluation pipeline
        # (shared zero tolerance for the l0 count).
        evaluation = evaluate_attack_result(result, context=context.evaluation)
        l0, l2 = evaluation.l0_norm, evaluation.l2_norm
        success = evaluation.success_rate
        attacked = evaluation.attacked_test_accuracy
    else:
        l0, l2 = result.l0_norm, result.l2_norm
        [attacked] = context.evaluation.accuracies(
            [result.modified_model()], result.view.first_layer_index
        )
    return {
        "l0": l0,
        "l2": l2,
        "success": success,
        "clean_accuracy": context.evaluation.clean_accuracy,
        "attacked_accuracy": attacked,
    }


def build_campaign(
    scale: str = "ci",
    *,
    seed: int = 0,
    datasets: tuple[str, ...] = ("mnist_like", "cifar_like"),
) -> Campaign:
    """Declare one job per (dataset, attack) cell of the §5.4 comparison."""
    num_images = s1_num_images(get_setting(scale))
    jobs = [
        JobSpec.make(
            "baseline-attack",
            dataset=dataset,
            scale=scale,
            seed=int(seed),
            attack=attack,
            num_images=int(num_images),
            plan_seed=int(seed + 17),
        )
        for dataset in datasets
        for attack, _ in S1_BASELINE_ATTACKS
    ]
    return Campaign(name="baseline_comparison", scale=scale, seed=seed, jobs=tuple(jobs))


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-attack metrics into the §5.4 comparison table."""
    labels = dict(S1_BASELINE_ATTACKS)
    table = Table(
        title="Baseline comparison: accuracy loss when misclassifying one image (S=1)",
        columns=[
            "dataset",
            "attack",
            "l0",
            "l2",
            "success",
            "clean accuracy",
            "attacked accuracy",
            "accuracy drop (pts)",
        ],
    )

    for params, metrics in results.cells():
        table.add_row(
            params["dataset"],
            labels[params["attack"]],
            format_cell_int(metrics["l0"]),
            metrics["l2"],
            metrics["success"],
            metrics["clean_accuracy"],
            metrics["attacked_accuracy"],
            100.0 * (metrics["clean_accuracy"] - metrics["attacked_accuracy"]),
        )

    table.add_note(
        "Paper reference: fault sneaking loses 0.8 pts (MNIST) / 1.0 pts (CIFAR); "
        "the fault injection attack of Liu et al. loses 3.86 / 2.35 pts in its best case."
    )
    table.add_note(
        "Expected shape: the fault sneaking attack retains more accuracy than both baselines."
    )
    return table


# Reproduce the §5.4 accuracy-loss comparison.
run = functools.partial(run_experiment, build_campaign, assemble)
