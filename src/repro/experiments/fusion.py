"""Running compatible sweep cells as the lanes of one stacked solve.

Table 4 and Figures 1–2 are an S × R grid of independent ``sweep-cell``
jobs (:mod:`repro.experiments.common`), one scalar ADMM solve each.  Cells
on one victim with one attack configuration and one anchor count R differ
only in S and the plan seed, which a stacked tensor solve carries as
per-lane state.  ``--fuse`` runs each such group as one
:class:`~repro.attacks.batched.BatchedFaultSneakingAttack` solve:

* :func:`plan_fusion` — partition a pending job list into sweep groups and
  a scalar remainder, preserving submission order.
* :func:`run_fused_group` — run one group under the seeding discipline of
  :func:`repro.experiments.campaign.execute_job` and split the result back
  into per-cell :class:`~repro.experiments.campaign.JobResult`\\ s.  Per-cell
  artifact keys are untouched: a fused cell stores and reloads exactly like
  a scalar one.

Fusion is safe because the batched solver matches the scalar one ULP for
ULP (``tests/test_attacks_batched.py``): every lane's metrics equal what
the scalar job returns for that cell alone.  It is therefore purely an
execution-plan rewrite; manifests, artifact stores and tables cannot tell
whether a cell ran fused or scalar.
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.campaign import JobResult, JobSpec, run_seeded
from repro.experiments.common import SWEEP_CELL, sweep_cell_batch, sweep_group_key
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed
from repro.zoo.registry import ModelRegistry

__all__ = ["plan_fusion", "run_fused_group"]

_LOGGER = get_logger("experiments.fusion")

# A group of one gains nothing from stacking and runs the scalar solve.
_MIN_GROUP = 2


def plan_fusion(
    specs: Iterable[JobSpec],
) -> tuple[list[list[JobSpec]], list[JobSpec]]:
    """Partition pending jobs into fusable sweep groups and a scalar remainder.

    ``sweep-cell`` specs group by :func:`~repro.experiments.common.
    sweep_group_key`; other kinds, and groups of one, stay on the scalar
    path.  Order is preserved everywhere: groups appear in first-member
    submission order, members keep their submission order within the group,
    and the remainder keeps the original relative order — so a fused
    campaign visits cells in a deterministic order regardless of how the
    grid interleaves fusable and scalar cells.
    """
    grouped: dict[tuple, list[tuple[int, JobSpec]]] = {}
    scalar: list[tuple[int, JobSpec]] = []
    for position, spec in enumerate(specs):
        if spec.kind == SWEEP_CELL:
            grouped.setdefault(sweep_group_key(spec.param_dict()), []).append((position, spec))
        else:
            scalar.append((position, spec))

    # Insertion order of ``grouped`` is first-member submission order.
    groups: list[list[JobSpec]] = []
    for members in grouped.values():
        if len(members) >= _MIN_GROUP:
            groups.append([spec for _, spec in members])
        else:
            # A lone member keeps its own submission position, so the
            # remainder interleaves exactly as submitted.
            scalar.extend(members)
    remainder = [spec for _, spec in sorted(scalar, key=lambda item: item[0])]
    return groups, remainder


def run_fused_group(
    group: list[JobSpec], *, registry: ModelRegistry | None = None
) -> list[JobResult]:
    """Execute one fused sweep group in the current process.

    The global generators are seeded from the group's member keys through
    :func:`~repro.experiments.campaign.run_seeded`, like a scalar job's, and
    restored afterwards.  The group's wall time is split evenly across its
    cells: per-cell ``elapsed`` stays a meaningful throughput number while
    summing back to the group's true cost.
    """
    kinds = sorted({spec.kind for spec in group})
    if kinds != [SWEEP_CELL]:
        raise ConfigurationError(f"a fused group holds {SWEEP_CELL} specs only, got {kinds}")
    metrics_list, elapsed = run_seeded(
        derive_seed("fused", SWEEP_CELL, tuple(spec.key for spec in group)),
        lambda: sweep_cell_batch(group, registry=registry),
    )
    per_cell = elapsed / len(group)
    _LOGGER.info(
        "fused %d %s cells in %.2fs (%.2fs/cell)", len(group), SWEEP_CELL, elapsed, per_cell
    )
    return [
        JobResult(
            key=spec.key,
            kind=spec.kind,
            metrics={name: float(value) for name, value in metrics.items()},
            elapsed=per_cell,
        )
        for spec, metrics in zip(group, metrics_list)
    ]
