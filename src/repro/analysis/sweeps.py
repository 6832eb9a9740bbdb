"""Parameter sweeps over the (S, R) grid used throughout the evaluation.

Tables 1, 4 and Figures 1–3 of the paper all report quantities over a grid of
``S`` (images to misclassify) and ``R`` (total anchor images).  This module
runs the attack over such a grid and returns flat records that the experiment
drivers turn into the corresponding tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.evaluation import (
    AttackEvaluation,
    EvaluationContext,
    evaluate_attack_result,
)
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.targets import make_attack_plan
from repro.data.dataset import Dataset
from repro.nn.model import Sequential
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger

__all__ = ["SweepRecord", "sweep_s_r_grid"]

_LOGGER = get_logger("analysis.sweeps")


@dataclass(frozen=True)
class SweepRecord:
    """One (S, R) grid point of an attack sweep."""

    dataset: str
    num_targets: int
    num_images: int
    evaluation: AttackEvaluation

    def as_dict(self) -> dict:
        record = {"dataset": self.dataset}
        record.update(self.evaluation.as_dict())
        return record


def sweep_s_r_grid(
    model: Sequential,
    dataset: Dataset,
    *,
    s_values,
    r_values,
    config: FaultSneakingConfig | None = None,
    test_set: Dataset | None = None,
    target_strategy: str = "random",
    seed: int = 0,
) -> list[SweepRecord]:
    """Run the fault sneaking attack over every valid (S, R) combination.

    Grid points with ``S > R`` are skipped (they are not meaningful).  The
    same plan seed is used for every grid point so that rows of the resulting
    table differ only in S and R, mirroring the paper's experimental protocol.

    Parameters
    ----------
    model:
        The victim network.
    dataset:
        Pool from which the anchor images are drawn.
    s_values, r_values:
        The S and R grids.
    config:
        Attack configuration shared by all grid points.
    test_set:
        Dataset used for the accuracy-retention numbers; defaults to
        ``dataset``.
    """
    s_values = [int(s) for s in s_values]
    r_values = [int(r) for r in r_values]
    if not s_values or not r_values:
        raise ConfigurationError("s_values and r_values must be non-empty")
    config = config or FaultSneakingConfig()
    test_set = test_set if test_set is not None else dataset
    attack = FaultSneakingAttack(model, config)
    context = EvaluationContext(model, test_set)

    records: list[SweepRecord] = []
    for r in r_values:
        for s in s_values:
            if s > r:
                continue
            plan = make_attack_plan(
                dataset,
                num_targets=s,
                num_images=r,
                target_strategy=target_strategy,
                seed=seed,
            )
            result = attack.attack(plan)
            evaluation = evaluate_attack_result(
                result, context=context, zero_tolerance=config.zero_tolerance
            )
            _LOGGER.info(
                "sweep %s S=%d R=%d: success=%.2f keep=%.2f l0=%d acc=%.3f",
                dataset.name,
                s,
                r,
                evaluation.success_rate,
                evaluation.keep_rate,
                evaluation.l0_norm,
                evaluation.attacked_test_accuracy,
            )
            records.append(
                SweepRecord(
                    dataset=dataset.name,
                    num_targets=s,
                    num_images=r,
                    evaluation=evaluation,
                )
            )
    return records
