"""Extension experiment: how detectable is each attack to a defender?

This goes beyond the paper's tables: it quantifies the stealth argument of
§1/§3 ("misclassifications are only for certain images while maintaining high
model accuracy ... therefore cannot be easily detected") with two concrete
defender models from :mod:`repro.defenses.detectors` — the same probability
code path the defense suite's checksum scrub and canary field run on:

* accuracy probing — probability that measuring accuracy on a probe set of
  100 / 1000 samples raises an alarm, and the probe size needed to reach 95 %
  detection confidence;
* parameter auditing — probability that spot-checking 1 % / 10 % of the
  attacked layer's parameters against a reference copy hits a modified one.

The fault sneaking attack is compared against the Liu et al. baselines under
the same S = 1 misclassification requirement.
"""

from __future__ import annotations

import functools
import math

from repro.defenses import detection_report
from repro.analysis.reporting import Table
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


@register_job("detection-attack")
def _detection_attack_job(
    *,
    registry: ModelRegistry | None = None,
    dataset: str,
    scale: str,
    seed: int,
    attack: str,
    num_images: int,
    plan_seed: int,
) -> dict:
    """Run one S = 1 attack and score it against the probing/auditing defenders."""
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    model = trained.model
    context = victim_context(trained)
    plan = make_attack_plan(
        context.anchor_pool, num_targets=1, num_images=num_images, seed=plan_seed
    )
    layer_size = ParameterView(model, ParameterSelector(layers=("fc_logits",))).size

    result, _ = run_s1_attack(attack, model, plan, scale)
    [attacked_accuracy] = context.evaluation.accuracies(
        [result.modified_model()], result.view.first_layer_index
    )

    report = detection_report(
        context.evaluation.clean_accuracy,
        attacked_accuracy,
        num_modified_parameters=result.l0_norm,
        attacked_parameter_count=layer_size,
    )
    return {
        "l0": result.l0_norm,
        "attacked_accuracy": report.attacked_accuracy,
        "probe_detection_at_100": report.probe_detection_at_100,
        "probe_detection_at_1000": report.probe_detection_at_1000,
        # NaN encodes "undetectable at any probe size" in the numeric store.
        "probes_needed_95": (
            float("nan") if report.probes_needed_95 is None else report.probes_needed_95
        ),
        "audit_detection_at_1_percent": report.audit_detection_at_1_percent,
        "audit_detection_at_10_percent": report.audit_detection_at_10_percent,
    }


def build_campaign(
    scale: str = "ci", *, seed: int = 0, dataset: str = "mnist_like"
) -> Campaign:
    """Declare one job per attack of the detectability comparison."""
    num_images = s1_num_images(get_setting(scale))
    jobs = [
        JobSpec.make(
            "detection-attack",
            dataset=dataset,
            scale=scale,
            seed=int(seed),
            attack=attack,
            num_images=int(num_images),
            plan_seed=int(seed + 17),
        )
        for attack, _ in S1_BASELINE_ATTACKS
    ]
    return Campaign(
        name="extension_detection",
        scale=scale,
        seed=seed,
        jobs=tuple(jobs),
        metadata={"dataset": dataset},
    )


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-attack metrics into the detectability table."""
    labels = dict(S1_BASELINE_ATTACKS)
    table = Table(
        title=f"Extension: detectability of the S=1 attacks ({campaign.metadata['dataset']})",
        columns=[
            "attack",
            "modified params",
            "attacked accuracy",
            "probe detection @100",
            "probe detection @1000",
            "probes needed (95%)",
            "audit detection @1%",
            "audit detection @10%",
        ],
    )
    for params, metrics in results.cells():
        probes_needed = metrics["probes_needed_95"]
        table.add_row(
            labels[params["attack"]],
            format_cell_int(metrics["l0"]),
            metrics["attacked_accuracy"],
            metrics["probe_detection_at_100"],
            metrics["probe_detection_at_1000"],
            "undetectable" if math.isnan(probes_needed) else format_cell_int(probes_needed),
            metrics["audit_detection_at_1_percent"],
            metrics["audit_detection_at_10_percent"],
        )

    table.add_note(
        "Accuracy probing models a defender that re-measures accuracy on n held-out "
        "samples and alarms on a drop of more than 2 points; parameter auditing models "
        "a defender that spot-checks a fraction of the attacked layer against a "
        "reference copy."
    )
    table.add_note(
        "Expected shape: the fault sneaking attack needs orders of magnitude more "
        "probes to detect than SBA (stealth), while SBA/GDA win on parameter audits "
        "(they modify very few parameters)."
    )
    return table


# Run the detectability extension experiment and return its table.
run = functools.partial(run_experiment, build_campaign, assemble)
