"""Ablation studies beyond the paper's tables.

These quantify the attack's design choices:

* ``rho_sweep`` — how the ADMM penalty ρ trades off the ℓ0 norm against the
  attack's success (the hard-threshold level is ``sqrt(2/ρ)``).
* ``warm_start`` — ADMM started from zero vs from the dense warm start.
* ``delta_step`` — adaptive trust-region α vs the fixed α of eq. (22).
* ``hardware_cost`` — bit flips and injector effort implied by the ℓ0 vs ℓ2
  modification, under float32 and float16 parameter storage.

Each ablation row is one independent campaign job, so ``run`` executes every
row of every ablation through one (optionally parallel) campaign; each family
function runs just its own rows as an ``ablation_*`` campaign.
"""

from __future__ import annotations

import functools

from repro.analysis.reporting import Table
from repro.attacks.fault_sneaking import FaultSneakingAttack
from repro.attacks.lowering import lower_attack
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
from repro.hardware import LaserBeamInjector, RowHammerInjector
from repro.zoo.registry import ModelRegistry

__all__ = [
    "run",
    "build_campaign",
    "assemble",
    "rho_sweep",
    "warm_start_ablation",
    "delta_step_ablation",
    "hardware_cost",
]

# Ablation (S, R) working point: small enough to run per-row in seconds,
# large enough that sparsification and stealth both matter.
_S, _R = 4, 100

_DEFAULT_RHOS = (100.0, 500.0, 2000.0, 8000.0)
_DELTA_ALPHAS = (
    ("adaptive (trust region)", None),
    ("fixed alpha=1", 1.0),
    ("fixed alpha=10", 10.0),
)
_STORAGES = ("float32", "float16")


def _num_images(setting) -> int:
    return min(_R, setting.n_test)


def _attack_plan(trained, scale: str, seed: int):
    setting = get_setting(scale)
    return make_attack_plan(
        trained.data.test, num_targets=_S, num_images=_num_images(setting), seed=seed + 23
    )


# -- rho sweep -----------------------------------------------------------------------


@register_job("ablation-rho")
def _rho_job(
    *, registry: ModelRegistry | None = None, dataset: str, scale: str, seed: int, rho: float
) -> dict:
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    plan = _attack_plan(trained, scale, seed)
    config = attack_config_for(scale, norm="l0", rho=float(rho))
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    return {
        "l0": result.l0_norm,
        "l2": result.l2_norm,
        "success_rate": result.success_rate,
        "keep_rate": result.keep_rate,
    }


def _rho_jobs(scale: str, seed: int, dataset: str, rhos=_DEFAULT_RHOS) -> list[JobSpec]:
    return [
        JobSpec.make(
            "ablation-rho", dataset=dataset, scale=scale, seed=int(seed), rho=float(rho)
        )
        for rho in rhos
    ]


def _rho_table(campaign: Campaign, results: CampaignResult) -> Table:
    setting = get_setting(campaign.scale)
    table = Table(
        title=f"Ablation: ADMM penalty rho sweep (l0 attack, S={_S}, R={_num_images(setting)})",
        columns=["rho", "hard threshold", "l0", "l2", "success rate", "keep rate"],
    )
    for params, metrics in results.cells("ablation-rho"):
        rho = params["rho"]
        table.add_row(
            rho,
            (2.0 / rho) ** 0.5,
            format_cell_int(metrics["l0"]),
            metrics["l2"],
            metrics["success_rate"],
            metrics["keep_rate"],
        )
    table.add_note("Smaller rho = higher threshold = sparser modification, until success degrades.")
    return table


# -- warm start ----------------------------------------------------------------------


@register_job("ablation-warm-start")
def _warm_start_job(
    *, registry: ModelRegistry | None = None, dataset: str, scale: str, seed: int, warm: bool
) -> dict:
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    plan = _attack_plan(trained, scale, seed)
    config = attack_config_for(scale, norm="l0", warm_start=warm)
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    return {
        "l0": result.l0_norm,
        "l2": result.l2_norm,
        "success_rate": result.success_rate,
        "keep_rate": result.keep_rate,
        "converged": float(result.converged),
    }


def _warm_jobs(scale: str, seed: int, dataset: str) -> list[JobSpec]:
    return [
        JobSpec.make(
            "ablation-warm-start", dataset=dataset, scale=scale, seed=int(seed), warm=warm
        )
        for warm in (True, False)
    ]


def _warm_table(campaign: Campaign, results: CampaignResult) -> Table:
    setting = get_setting(campaign.scale)
    table = Table(
        title=f"Ablation: dense warm start (l0 attack, S={_S}, R={_num_images(setting)})",
        columns=["warm start", "l0", "l2", "success rate", "keep rate", "converged"],
    )
    for params, metrics in results.cells("ablation-warm-start"):
        table.add_row(
            params["warm"],
            format_cell_int(metrics["l0"]),
            metrics["l2"],
            metrics["success_rate"],
            metrics["keep_rate"],
            bool(metrics["converged"]),
        )
    table.add_note(
        "Without the warm start the non-convex l0 problem tends to collapse to the "
        "trivial stationary point delta = 0 (success rate 0)."
    )
    return table


# -- delta step ----------------------------------------------------------------------


@register_job("ablation-delta-step")
def _delta_step_job(
    *, registry: ModelRegistry | None = None, dataset: str, scale: str, seed: int, alpha
) -> dict:
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    plan = _attack_plan(trained, scale, seed)
    overrides = {} if alpha is None else {"alpha": float(alpha)}
    config = attack_config_for(scale, norm="l0", **overrides)
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    return {
        "l0": result.l0_norm,
        "l2": result.l2_norm,
        "success_rate": result.success_rate,
        "keep_rate": result.keep_rate,
    }


def _delta_jobs(scale: str, seed: int, dataset: str) -> list[JobSpec]:
    return [
        JobSpec.make(
            "ablation-delta-step",
            dataset=dataset,
            scale=scale,
            seed=int(seed),
            alpha=None if alpha is None else float(alpha),
        )
        for _, alpha in _DELTA_ALPHAS
    ]


def _delta_table(campaign: Campaign, results: CampaignResult) -> Table:
    setting = get_setting(campaign.scale)
    title = (
        f"Ablation: delta-step linearisation constant "
        f"(l0 attack, S={_S}, R={_num_images(setting)})"
    )
    labels = {alpha: label for label, alpha in _DELTA_ALPHAS}
    table = Table(title=title, columns=["alpha", "l0", "l2", "success rate", "keep rate"])
    for params, metrics in results.cells("ablation-delta-step"):
        table.add_row(
            labels[params["alpha"]],
            format_cell_int(metrics["l0"]),
            metrics["l2"],
            metrics["success_rate"],
            metrics["keep_rate"],
        )
    table.add_note("The adaptive choice removes the need to tune alpha per model and S/R setting.")
    return table


# -- hardware cost -------------------------------------------------------------------


@register_job("ablation-hardware-cost")
def _hardware_cost_job(
    *, registry: ModelRegistry | None = None, dataset: str, scale: str, seed: int, norm: str
) -> dict:
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    plan = _attack_plan(trained, scale, seed)
    kappa = 1.0 if norm == "l0" else 0.0
    config = attack_config_for(scale, norm=norm, kappa=kappa)
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    metrics: dict[str, float] = {}
    # One attack, both storage formats, one lowering per storage: the injectors
    # only price the lowered plan, so flattening them into prefixed metrics
    # avoids paying the ADMM solve once per storage format.
    for storage in _STORAGES:
        report = lower_attack(result, storage=storage)
        flips = report.plan
        metrics[f"{storage}_words"] = flips.num_words_touched
        metrics[f"{storage}_flips"] = flips.num_flips
        metrics[f"{storage}_rows"] = flips.num_rows_touched
        for name, injector in (("rowhammer", RowHammerInjector()), ("laser", LaserBeamInjector())):
            metrics[f"{storage}_{name}_hours"] = injector.cost(flips).time_seconds / 3600.0
        metrics[f"{storage}_success"] = report.success_rate
    return metrics


def _hardware_jobs(scale: str, seed: int, dataset: str) -> list[JobSpec]:
    return [
        JobSpec.make(
            "ablation-hardware-cost", dataset=dataset, scale=scale, seed=int(seed), norm=norm
        )
        for norm in ("l0", "l2")
    ]


def _hardware_table(campaign: Campaign, results: CampaignResult) -> Table:
    setting = get_setting(campaign.scale)
    table = Table(
        title=(
            f"Ablation: hardware injection cost of the modification "
            f"(S={_S}, R={_num_images(setting)})"
        ),
        columns=[
            "attack",
            "storage",
            "words touched",
            "bit flips",
            "rows touched",
            "rowhammer hours",
            "laser hours",
            "post-injection success",
        ],
    )
    for params, metrics in results.cells("ablation-hardware-cost"):
        for storage in _STORAGES:
            table.add_row(
                f"{params['norm']} attack",
                storage,
                format_cell_int(metrics[f"{storage}_words"]),
                format_cell_int(metrics[f"{storage}_flips"]),
                format_cell_int(metrics[f"{storage}_rows"]),
                metrics[f"{storage}_rowhammer_hours"],
                metrics[f"{storage}_laser_hours"],
                metrics[f"{storage}_success"],
            )
    table.add_note(
        "The l0 attack touches far fewer memory words, which is exactly the practicality "
        "argument the paper makes for minimising the number of modified parameters."
    )
    return table


# -- public drivers ------------------------------------------------------------------


def _family_runner(name: str, jobs_builder, table_builder):
    """Bind ``run_experiment`` to a campaign of one ablation family's rows."""

    def build(scale: str = "ci", *, seed: int = 0, dataset: str = "mnist_like", **options):
        jobs = jobs_builder(scale, seed, dataset, **options)
        return Campaign(name=name, scale=scale, seed=seed, jobs=tuple(jobs))

    return functools.partial(run_experiment, build, table_builder)


# l0 norm and success rate of the l0 attack as a function of rho (``rhos=``).
rho_sweep = _family_runner("ablation_rho", _rho_jobs, _rho_table)
# ADMM with and without the dense warm start.
warm_start_ablation = _family_runner("ablation_warm_start", _warm_jobs, _warm_table)
# Adaptive trust-region alpha vs fixed alpha in the linearised delta-step.
delta_step_ablation = _family_runner("ablation_delta_step", _delta_jobs, _delta_table)
# Memory-level cost of executing the l0 vs l2 modification.
hardware_cost = _family_runner("ablation_hardware_cost", _hardware_jobs, _hardware_table)


def build_campaign(
    scale: str = "ci",
    *,
    seed: int = 0,
    dataset: str = "mnist_like",
    rhos=_DEFAULT_RHOS,
) -> Campaign:
    """Declare every ablation row as one combined campaign."""
    jobs = (
        _rho_jobs(scale, seed, dataset, rhos)
        + _warm_jobs(scale, seed, dataset)
        + _delta_jobs(scale, seed, dataset)
        + _hardware_jobs(scale, seed, dataset)
    )
    return Campaign(name="ablations", scale=scale, seed=seed, jobs=tuple(jobs))


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Merge the per-family ablation tables into a single wide table."""
    merged = Table(title="Ablation studies", columns=["ablation", "row"])
    for table_builder in (_rho_table, _warm_table, _delta_table, _hardware_table):
        table = table_builder(campaign, results)
        for row in table.rows:
            merged.add_row(table.title, " | ".join(str(v) for v in row))
        merged.notes.extend(table.notes)
    return merged


# Run every ablation and merge the results into a single wide table.
run = functools.partial(run_experiment, build_campaign, assemble)
