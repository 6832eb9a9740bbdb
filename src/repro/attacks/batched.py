"""Batched front-end of the fault sneaking attack.

:class:`BatchedFaultSneakingAttack` runs one attack per *lane* of a stacked
tensor solve: ``B`` attack plans against the same victim model become one
sequence of stacked forward/backward passes (leading lane axis through
:mod:`repro.nn.layers`), so per-iteration Python and BLAS dispatch overhead
is paid once per batch instead of once per cell.

It runs the same code as the single-plan
:class:`~repro.attacks.fault_sneaking.FaultSneakingAttack`,
:func:`~repro.attacks.fault_sneaking.run_attack_lanes`, with ``B`` lanes
instead of one.  A lane's result is bit-identical to attacking its plan
alone, because every stacked kernel computes each lane's slice with the
one-lane arithmetic (pinned by the batched bit-identity tests).
"""

from __future__ import annotations

from typing import Sequence

from repro.attacks.fault_sneaking import (
    FaultSneakingConfig,
    FaultSneakingResult,
    run_attack_lanes,
)
from repro.attacks.targets import AttackPlan
from repro.nn.model import Sequential
from repro.utils.logging import get_logger

__all__ = ["BatchedFaultSneakingAttack"]

_LOGGER = get_logger("attacks.batched")


class BatchedFaultSneakingAttack:
    """Solve several fault-sneaking plans against one model in a stacked batch.

    Parameters
    ----------
    model:
        The victim network, shared by every lane.  Restored to its original
        parameters before returning, exactly like the single-plan attack.
    config:
        One attack configuration applied to every lane (fused campaign cells
        share their configuration by construction).
    """

    def __init__(self, model: Sequential, config: FaultSneakingConfig | None = None):
        self.model = model
        self.config = config or FaultSneakingConfig()

    def attack_batch(self, plans: Sequence[AttackPlan]) -> list[FaultSneakingResult]:
        """Run one stacked attack per plan and return the per-lane results."""
        results = run_attack_lanes(self.model, self.config, plans)
        _LOGGER.info(
            "batched attack: %d lanes, %s",
            len(results),
            "; ".join(result.summary() for result in results),
        )
        return results
