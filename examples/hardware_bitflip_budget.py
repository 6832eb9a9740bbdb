#!/usr/bin/env python3
"""Scenario: plan a row-hammer campaign against a deployed model.

An attacker who can hammer DRAM wants to know, before touching the hardware:

* exactly which parameter words must change and by how many bits,
* how many victim rows have to be hammered,
* whether the per-row controlled-flip limit makes the plan feasible at all,
* what the model will do once the (quantised) modification lands in memory.

This example computes a fault-sneaking modification, lowers it to a bit-flip
plan under float32 and float16 parameter storage, and verifies the attack on
the model rebuilt from the simulated memory.

Run with::

    python examples/hardware_bitflip_budget.py
"""

from __future__ import annotations

from repro import make_attack_plan
from repro.analysis.reporting import Table
from repro.attacks import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.lowering import lower_attack
from repro.experiments.common import get_trained_model
from repro.hardware import MemoryLayout, RowHammerInjector


def main() -> None:
    trained = get_trained_model("mnist_like", scale="ci", seed=0)
    model = trained.model
    test_set = trained.data.test
    plan = make_attack_plan(test_set, num_targets=2, num_images=100, seed=7)

    print("Computing the fault-sneaking modification (l0 attack, last FC layer) ...")
    result = FaultSneakingAttack(model, FaultSneakingConfig(norm="l0")).attack(plan)
    print(f"  {result.summary()}\n")

    table = Table(
        title="Row-hammer campaign budget for the computed modification",
        columns=[
            "storage format",
            "row size (bytes)",
            "words touched",
            "bit flips",
            "rows to hammer",
            "feasible",
            "est. hours",
            "post-injection success",
            "post-injection keep rate",
            "quantisation error",
        ],
    )

    injector = RowHammerInjector(max_flips_per_row=32)
    for storage in ("float32", "float16"):
        for row_bytes in (4096, 8192):
            report = lower_attack(
                result, storage=storage, layout=MemoryLayout(row_bytes=row_bytes)
            )
            cost = injector.cost(report.plan)
            table.add_row(
                storage,
                row_bytes,
                report.plan.num_words_touched,
                report.plan.num_flips,
                report.plan.num_rows_touched,
                cost.feasible,
                cost.time_seconds / 3600.0,
                report.success_rate,
                report.keep_rate,
                report.quantization_error,
            )

    print(table.render("text"))
    print(
        "\nfloat16 storage halves the memory footprint, so the same modification"
        " concentrates into fewer rows; the quantisation error column confirms the"
        " attack still lands within the representable precision."
    )


if __name__ == "__main__":
    main()
