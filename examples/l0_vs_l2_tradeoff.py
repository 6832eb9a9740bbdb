#!/usr/bin/env python3
"""Scenario: choose between the ℓ0 and ℓ2 attack variants for a hardware budget.

The ℓ0-based attack minimises *how many* parameters change (few memory words
to touch — cheap for laser/row-hammer injection); the ℓ2-based attack
minimises *how much* they change in aggregate.  This example runs both on the
same attack plan and compares:

* the modification norms (the paper's Table 3),
* the resulting test accuracy,
* the simulated memory-level cost of actually injecting each modification
  (bit flips, DRAM rows to hammer, estimated effort).

Run with::

    python examples/l0_vs_l2_tradeoff.py
"""

from __future__ import annotations

from repro import evaluate_attack_result, make_attack_plan
from repro.analysis.reporting import Table
from repro.attacks import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.lowering import lower_attack
from repro.experiments.common import get_trained_model
from repro.hardware import LaserBeamInjector, RowHammerInjector


def main() -> None:
    trained = get_trained_model("mnist_like", scale="ci", seed=0)
    model = trained.model
    test_set = trained.data.test
    plan = make_attack_plan(test_set, num_targets=4, num_images=100, seed=42)
    print(f"Victim accuracy {trained.test_accuracy:.3f}; attack plan {plan.describe()}\n")

    table = Table(
        title="l0 vs l2 fault sneaking attack on the last FC layer",
        columns=[
            "attack",
            "l0 (params changed)",
            "l2 (magnitude)",
            "success",
            "test accuracy",
            "bit flips",
            "DRAM rows",
            "rowhammer hours",
            "laser hours",
        ],
    )

    for norm in ("l0", "l2"):
        # The l2 variant does not sparsify, so it needs no hinge margin.
        config = FaultSneakingConfig(norm=norm, kappa=1.0 if norm == "l0" else 0.0)
        result = FaultSneakingAttack(model, config).attack(plan)
        evaluation = evaluate_attack_result(
            result, test_set, clean_model=model, clean_accuracy=trained.test_accuracy
        )
        flips = lower_attack(result, storage="float32").plan
        table.add_row(
            f"{norm} attack",
            evaluation.l0_norm,
            evaluation.l2_norm,
            evaluation.success_rate,
            evaluation.attacked_test_accuracy,
            flips.num_flips,
            flips.num_rows_touched,
            RowHammerInjector().cost(flips).time_seconds / 3600.0,
            LaserBeamInjector().cost(flips).time_seconds / 3600.0,
        )

    print(table.render("text"))
    print(
        "\nThe l0 attack touches far fewer memory words, which is what makes the"
        " physical fault injection practical; the l2 attack spreads a smaller"
        " total magnitude over almost every parameter of the layer."
    )


if __name__ == "__main__":
    main()
