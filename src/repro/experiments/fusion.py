"""Fusing compatible campaign cells into one batched in-parent job.

A campaign grid is a list of *independent* cells, and the scalar path pays
the full per-cell overhead — model lookup, plan construction, one scalar
ADMM solve — for every one of them.  Many cells differ only in parameters
that a stacked tensor solve can carry as a *lane* (Table 4's S axis, the
Monte-Carlo plan-seed axis), so executing them one by one leaves large
batching gains on the table.

This module is the grouping half of that optimisation:

* :func:`register_fusion` — a job kind declares how its cells fuse: a
  ``group_key`` mapping a cell's parameters to a compatibility key (cells
  with equal keys may share one batched execution; ``None`` opts a cell
  out), and a ``run_batch`` function executing one group and returning one
  metric dictionary per cell.
* :func:`plan_fusion` — partition a pending job list into fusable groups
  and a remainder, preserving submission order.
* :func:`run_fused_group` — execute one group under the same seeding
  discipline as :func:`repro.experiments.campaign.execute_job` and split
  the result back into per-cell :class:`~repro.experiments.campaign.
  JobResult`s.  Per-cell artifact keys are untouched: a fused cell stores
  and reloads exactly like a scalar one, so fused and serial campaigns are
  interchangeable cell for cell.

The contract that makes fusion safe is *bit-identity*: ``run_batch`` must
produce, for every cell of the group, the same metrics the scalar job-kind
function would produce for that cell alone (the batched attack stack pins
this property down to the ULP — see ``tests/test_attacks_batched.py``).
Fusion is therefore purely an execution-plan rewrite; manifests, artifact
stores and tables cannot tell whether a cell ran fused or scalar.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

import numpy as np

from repro.experiments.campaign import JobResult, JobSpec
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed, seed_everything
from repro.zoo.registry import ModelRegistry

__all__ = [
    "FusionRule",
    "register_fusion",
    "fusion_kinds",
    "fusion_rule",
    "plan_fusion",
    "run_fused_group",
]

_LOGGER = get_logger("experiments.fusion")

# A run_batch function: receives the group's specs (>= 2, equal group keys)
# plus the model registry, returns one metric dict per spec, same order.
BatchRunner = Callable[..., "list[dict[str, float]]"]

# A group_key function: spec parameters -> compatibility key, or None to
# keep the cell on the scalar path.
GroupKey = Callable[[dict[str, Any]], Hashable | None]


@dataclass(frozen=True)
class FusionRule:
    """How one job kind groups and batch-executes compatible cells."""

    kind: str
    group_key: GroupKey
    run_batch: BatchRunner
    min_group: int = 2


_FUSION_RULES: dict[str, FusionRule] = {}


def register_fusion(
    kind: str, *, group_key: GroupKey, min_group: int = 2
) -> Callable[[BatchRunner], BatchRunner]:
    """Decorator registering the batched executor for a job kind.

    ``group_key`` receives a cell's parameter dictionary and returns the
    compatibility key — every parameter that must be *shared* for the cells
    to ride one stacked solve (victim model, configuration, anchor count)
    belongs in the key; parameters that become per-lane state (S, plan
    seed) do not.  Returning ``None`` opts the cell out of fusion.

    The decorated function receives ``(specs, *, registry)`` and must
    return one metric dictionary per spec, in spec order, each equal to
    what the scalar job-kind function returns for that cell.
    """
    if min_group < 2:
        raise ConfigurationError(f"min_group must be >= 2, got {min_group}")

    def decorator(fn: BatchRunner) -> BatchRunner:
        existing = _FUSION_RULES.get(kind)
        if existing is not None and existing.run_batch is not fn:
            raise ConfigurationError(f"fusion for job kind {kind!r} is already registered")
        _FUSION_RULES[kind] = FusionRule(
            kind=kind, group_key=group_key, run_batch=fn, min_group=min_group
        )
        return fn

    return decorator


def fusion_kinds() -> tuple[str, ...]:
    """Names of all job kinds with a registered fusion rule."""
    return tuple(sorted(_FUSION_RULES))


def fusion_rule(kind: str) -> FusionRule | None:
    """Return the fusion rule of a job kind, or ``None`` if it has none."""
    return _FUSION_RULES.get(kind)


def plan_fusion(
    specs: Iterable[JobSpec],
) -> tuple[list[list[JobSpec]], list[JobSpec]]:
    """Partition pending jobs into fusable groups and a scalar remainder.

    Cells group by ``(kind, group_key(params))``; groups smaller than the
    rule's ``min_group`` (and cells whose kind has no rule or whose key is
    ``None``) stay on the scalar path.  Order is preserved everywhere:
    groups appear in first-member submission order, members keep their
    submission order within the group, and the remainder keeps the original
    relative order — so a fused campaign visits cells in a deterministic
    order regardless of how the grid interleaves fusable and scalar cells.
    """
    grouped: dict[tuple[str, Hashable], list[tuple[int, JobSpec]]] = {}
    scalar: list[tuple[int, JobSpec]] = []
    for position, spec in enumerate(specs):
        rule = _FUSION_RULES.get(spec.kind)
        key = rule.group_key(spec.param_dict()) if rule is not None else None
        if key is None:
            scalar.append((position, spec))
            continue
        grouped.setdefault((spec.kind, key), []).append((position, spec))

    # Insertion order of ``grouped`` is first-member submission order.
    groups: list[list[JobSpec]] = []
    for (kind, _), members in grouped.items():
        if len(members) >= _FUSION_RULES[kind].min_group:
            groups.append([spec for _, spec in members])
        else:
            # An undersized group's members keep their own submission
            # positions, so the remainder interleaves exactly as submitted.
            scalar.extend(members)
    remainder = [spec for _, spec in sorted(scalar, key=lambda item: item[0])]
    return groups, remainder


def run_fused_group(
    group: list[JobSpec], *, registry: ModelRegistry | None = None
) -> list[JobResult]:
    """Execute one fused group in the current process.

    Mirrors :func:`repro.experiments.campaign.execute_job`'s seeding
    discipline — the global generators are seeded deterministically from
    the group's member keys and restored afterwards — so stray global-RNG
    reads behave identically run to run.  The group's wall time is split
    evenly across its cells: per-cell ``elapsed`` stays a meaningful
    throughput number while summing back to the group's true cost.
    """
    if not group:
        raise ConfigurationError("run_fused_group needs at least one spec")
    kinds = {spec.kind for spec in group}
    if len(kinds) != 1:
        raise ConfigurationError(f"fused group mixes job kinds: {sorted(kinds)}")
    rule = _FUSION_RULES.get(group[0].kind)
    if rule is None:
        raise ConfigurationError(f"job kind {group[0].kind!r} has no fusion rule")

    stdlib_state = random.getstate()
    numpy_state = np.random.get_state()
    try:
        seed_everything(derive_seed("fused", rule.kind, tuple(spec.key for spec in group)))
        started = time.perf_counter()
        metrics_list = rule.run_batch(group, registry=registry)
        elapsed = time.perf_counter() - started
    finally:
        random.setstate(stdlib_state)
        np.random.set_state(numpy_state)

    if len(metrics_list) != len(group):
        raise ConfigurationError(
            f"fusion for {rule.kind!r} returned {len(metrics_list)} results "
            f"for {len(group)} cells"
        )
    per_cell = elapsed / len(group)
    _LOGGER.info(
        "fused %d %s cells in %.2fs (%.2fs/cell)", len(group), rule.kind, elapsed, per_cell
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
