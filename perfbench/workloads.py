"""The benchmark's workloads: one campaign grid each, built from the seed.

The victim is always the ``ci``-scale ``mnist_like`` network trained with
seed 0.  The workload seed drives the sweep's attack-plan seeds and the
lowering grids' Monte-Carlo ``flip_seed`` (which also seeds the defenses),
so two runs with one seed execute identical cells and must produce
identical canonical manifests.

The lowering grids keep their attack plans fixed.  A plan's solve sets how
many flips every cell of the plan lowers, and drawing the plans from the
seed moved a run's lowering cost by up to 2x from seed to seed, which no
run length here could average out.

Grids are sized so that one pass takes 4-13 s on a 2-core x86 VM.
``pass_budget_s`` is that time with some margin; it turns ``--seconds`` into
a fixed number of passes, so a run's work (and hence every count and sample
size) does not depend on how fast the code is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.experiments.campaign import Campaign, JobSpec
from repro.experiments.common import sweep_cell_spec
from repro.experiments.defense_matrix import DEFAULT_DEFENSES
from repro.experiments.hardware_cost import DEFAULT_PROFILES
from repro.nn.quantization import STORAGE_FORMATS

DATASET = "mnist_like"
SCALE = "ci"
VICTIM_SEED = 0

# sweep-cell grid: every R of the ci anchor pool's range x S <= R x plan seeds.
SWEEP_R = (50, 100, 200, 300)
SWEEP_S = (1, 2, 4, 8, 16)
SWEEP_PLAN_SEEDS = 3

# Lowering grids: R = 100 and 3 Monte-Carlo trials, as hardware_cost at ci
# scale.  Each budget level (and attacker) lowers its own fixed attack plan.
LOWERING_R = 100
TRIALS = 3
HARDWARE_S = (1, 4)
# "expected" equals "derived" bit for bit on the probability-1.0 default
# profiles, so the hardware grid leaves it to the defense grid.
HARDWARE_BUDGETS = ("unlimited", "derived")
DEFENSE_BUDGETS = ("derived", "expected")
DEFENSE_ATTACKERS = ("server-stealth", "trrespass-stochastic")


def _derived(*parts: object) -> int:
    """A 31-bit seed from the workload seed, independent of the program."""
    text = ":".join(str(part) for part in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) >> 1


def _plan_seed(seed: int, index: int) -> int:
    return _derived("plan", seed, index)


def _flip_seed(seed: int) -> int:
    return _derived("flip", seed)


def sweep_jobs(seed: int) -> tuple[JobSpec, ...]:
    """Table 4 / Figure 1 cells: (S, R) grid x ``SWEEP_PLAN_SEEDS`` plans."""
    return tuple(
        sweep_cell_spec(
            dataset=DATASET,
            scale=SCALE,
            seed=VICTIM_SEED,
            s=s,
            r=r,
            norm="l0",
            plan_seed=_plan_seed(seed, index),
        )
        for index in range(SWEEP_PLAN_SEEDS)
        for r in SWEEP_R
        for s in SWEEP_S
        if s <= r
    )


def _lowering_params(seed: int, s: int, plan: int) -> dict:
    return {
        "dataset": DATASET,
        "scale": SCALE,
        "seed": VICTIM_SEED,
        "s": s,
        "r": LOWERING_R,
        "plan_seed": _derived("lowering-plan", plan),
        "trials": TRIALS,
        "flip_seed": _flip_seed(seed),
    }


def hardware_cost_jobs(seed: int) -> tuple[JobSpec, ...]:
    """The ci ``hardware_cost`` grid (storage x profile x S) at two budgets."""
    return tuple(
        JobSpec.make(
            "hardware-cost-cell",
            storage=storage,
            profile=profile,
            budget=budget,
            pattern="double-sided",
            **_lowering_params(seed, s, plan),
        )
        for storage in STORAGE_FORMATS
        for profile in DEFAULT_PROFILES
        for plan, budget in enumerate(HARDWARE_BUDGETS)
        for s in HARDWARE_S
    )


def defense_matrix_jobs(seed: int) -> tuple[JobSpec, ...]:
    """The ci ``defense_matrix`` grid at S = 1 for two of its attackers.

    The six defenses of one (attacker, budget) share one lowering."""
    return tuple(
        JobSpec.make(
            "defense-matrix-cell",
            attacker=attacker,
            defense=defense,
            budget=budget,
            **_lowering_params(seed, 1, plan),
        )
        for index, attacker in enumerate(DEFENSE_ATTACKERS)
        for defense in DEFAULT_DEFENSES
        for plan, budget in enumerate(DEFENSE_BUDGETS, start=index * len(DEFENSE_BUDGETS))
    )


def solve_warmup_jobs(campaign: Campaign) -> list[JobSpec]:
    """The cheapest cells that store a lowering grid's solves in the cache.

    Both lowering job kinds key their solve on (dataset, scale, seed, s, r,
    plan_seed, norm) only, so one int8 cell without trials warms each.
    """
    params = [spec.param_dict() for spec in campaign.jobs]
    solves = sorted({(cell["s"], cell["plan_seed"]) for cell in params})
    return [
        JobSpec.make(
            "hardware-cost-cell",
            dataset=DATASET,
            scale=SCALE,
            seed=VICTIM_SEED,
            s=s,
            r=LOWERING_R,
            plan_seed=plan_seed,
            trials=0,
            flip_seed=0,
            storage="int8",
            profile=DEFAULT_PROFILES[0],
            budget="unlimited",
            pattern="double-sided",
        )
        for s, plan_seed in solves
    ]


@dataclass(frozen=True)
class Workload:
    """One named campaign configuration."""

    name: str
    campaign: str  # sweep-fused and sweep-scalar share it: equal manifests
    jobs: Callable[[int], tuple[JobSpec, ...]]
    fuse: bool
    warm_solves: bool
    pass_budget_s: float

    def build(self, seed: int) -> Campaign:
        return Campaign(name=self.campaign, scale=SCALE, seed=int(seed), jobs=self.jobs(seed))

    def passes(self, seconds: float) -> int:
        """Whole pass budgets that fit in ``seconds`` (at least one)."""
        return max(1, int(seconds // self.pass_budget_s))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("sweep-fused", "sweep", sweep_jobs, True, False, 5.0),
        Workload("sweep-scalar", "sweep", sweep_jobs, False, False, 10.0),
        Workload("hardware-cost", "hardware_cost", hardware_cost_jobs, False, True, 10.0),
        Workload("defense-matrix", "defense_matrix", defense_matrix_jobs, False, True, 10.0),
    )
}


def expected_counts(workload: Workload, campaign: Campaign) -> dict[str, int]:
    """Per-pass call counts the grid structure dictates (tracer self-check).

    A wrapper that missed a name-imported binding, or a cell that silently
    skipped a stage, shows up here as a count that does not match the grid.
    """
    from repro.experiments.fusion import plan_fusion

    cells = len(campaign.unique_jobs())
    if not workload.warm_solves:
        groups = plan_fusion(campaign.unique_jobs())[0] if workload.fuse else []
        return {
            "attacks.fault_sneaking.attack_calls": 0 if workload.fuse else cells,
            "attacks.batched.attack_batch_calls": len(groups),
            "attacks.batched.lanes": sum(len(group) for group in groups),
            "attacks.lowering.lower_attack_calls": 0,
        }
    defended = workload.name == "defense-matrix"
    lowerings = cells // len(DEFAULT_DEFENSES) if defended else cells
    return {
        "attacks.lowering.lower_attack_calls": cells,
        "attacks.lowering.distinct_lowerings": lowerings,
        "defenses.evaluate.evaluate_defense_calls": cells if defended else 0,
        # every cell reads its solve back from the cache warmed in set-up
        "utils.cache.hits": cells,
        "attacks.fault_sneaking.attack_calls": 0,
    }
