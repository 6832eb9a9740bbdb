"""Ablation studies beyond the paper's tables.

These quantify the design choices called out in DESIGN.md:

* ``rho_sweep`` — how the ADMM penalty ρ trades off the ℓ0 norm against the
  attack's success (the hard-threshold level is ``sqrt(2/ρ)``).
* ``warm_start`` — ADMM started from zero vs from the dense warm start.
* ``delta_step`` — adaptive trust-region α vs the fixed α of eq. (22).
* ``hardware_cost`` — bit flips and injector effort implied by the ℓ0 vs ℓ2
  modification, under float32 and float16 parameter storage.

Each ablation row is one independent campaign job, so ``run`` executes every
row of every ablation through one (optionally parallel) campaign.
"""

from __future__ import annotations

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


def _rho_cell(dataset: str, scale: str, seed: int, rho: float) -> JobSpec:
    return JobSpec.make(
        "ablation-rho", dataset=dataset, scale=scale, seed=int(seed), rho=float(rho)
    )


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


def _rho_jobs(scale: str, seed: int, dataset: str, rhos) -> list[JobSpec]:
    return [_rho_cell(dataset, scale, seed, rho) for rho in rhos]


def _rho_table(scale: str, seed: int, dataset: str, rhos, results: CampaignResult) -> Table:
    setting = get_setting(scale)
    table = Table(
        title=f"Ablation: ADMM penalty rho sweep (l0 attack, S={_S}, R={_num_images(setting)})",
        columns=["rho", "hard threshold", "l0", "l2", "success rate", "keep rate"],
    )
    for rho in rhos:
        metrics = results.metrics_for(_rho_cell(dataset, scale, seed, rho))
        table.add_row(
            float(rho),
            (2.0 / float(rho)) ** 0.5,
            format_cell_int(metrics["l0"]),
            metrics["l2"],
            metrics["success_rate"],
            metrics["keep_rate"],
        )
    table.add_note("Smaller rho = higher threshold = sparser modification, until success degrades.")
    return table


# -- warm start ----------------------------------------------------------------------


def _warm_cell(dataset: str, scale: str, seed: int, warm: bool) -> JobSpec:
    return JobSpec.make(
        "ablation-warm-start", dataset=dataset, scale=scale, seed=int(seed), warm=bool(warm)
    )


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
    return [_warm_cell(dataset, scale, seed, warm) for warm in (True, False)]


def _warm_table(scale: str, seed: int, dataset: str, results: CampaignResult) -> Table:
    setting = get_setting(scale)
    table = Table(
        title=f"Ablation: dense warm start (l0 attack, S={_S}, R={_num_images(setting)})",
        columns=["warm start", "l0", "l2", "success rate", "keep rate", "converged"],
    )
    for warm in (True, False):
        metrics = results.metrics_for(_warm_cell(dataset, scale, seed, warm))
        table.add_row(
            warm,
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


def _delta_cell(dataset: str, scale: str, seed: int, alpha) -> JobSpec:
    return JobSpec.make(
        "ablation-delta-step",
        dataset=dataset,
        scale=scale,
        seed=int(seed),
        alpha=None if alpha is None else float(alpha),
    )


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
    return [_delta_cell(dataset, scale, seed, alpha) for _, alpha in _DELTA_ALPHAS]


def _delta_table(scale: str, seed: int, dataset: str, results: CampaignResult) -> Table:
    setting = get_setting(scale)
    title = (
        f"Ablation: delta-step linearisation constant "
        f"(l0 attack, S={_S}, R={_num_images(setting)})"
    )
    table = Table(title=title, columns=["alpha", "l0", "l2", "success rate", "keep rate"])
    for label, alpha in _DELTA_ALPHAS:
        metrics = results.metrics_for(_delta_cell(dataset, scale, seed, alpha))
        table.add_row(
            label,
            format_cell_int(metrics["l0"]),
            metrics["l2"],
            metrics["success_rate"],
            metrics["keep_rate"],
        )
    table.add_note("The adaptive choice removes the need to tune alpha per model and S/R setting.")
    return table


# -- hardware cost -------------------------------------------------------------------


def _hardware_cell(dataset: str, scale: str, seed: int, norm: str) -> JobSpec:
    return JobSpec.make(
        "ablation-hardware-cost", dataset=dataset, scale=scale, seed=int(seed), norm=norm
    )


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
    return [_hardware_cell(dataset, scale, seed, norm) for norm in ("l0", "l2")]


def _hardware_table(scale: str, seed: int, dataset: str, results: CampaignResult) -> Table:
    setting = get_setting(scale)
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
    for norm in ("l0", "l2"):
        metrics = results.metrics_for(_hardware_cell(dataset, scale, seed, norm))
        for storage in _STORAGES:
            table.add_row(
                f"{norm} attack",
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


def _single_ablation_runner(jobs_builder, table_builder, name: str):
    """Build a ``run``-style function for one ablation family."""

    def runner(
        scale: str = "ci",
        *,
        registry: ModelRegistry | None = None,
        seed: int = 0,
        dataset: str = "mnist_like",
        jobs: int = 1,
        executor=None,
        artifact_dir=None,
        **extra,
    ) -> Table:
        def build(scale, *, seed):
            return Campaign(
                name=name,
                scale=scale,
                seed=seed,
                jobs=tuple(jobs_builder(scale, seed, dataset, **extra)),
            )

        def assemble(campaign, results):
            return table_builder(campaign.scale, campaign.seed, dataset, **extra, results=results)

        return run_experiment(
            build,
            assemble,
            scale,
            registry=registry,
            seed=seed,
            jobs=jobs,
            executor=executor,
            artifact_dir=artifact_dir,
        )

    return runner


def rho_sweep(
    scale: str = "ci",
    *,
    registry: ModelRegistry | None = None,
    seed: int = 0,
    dataset: str = "mnist_like",
    rhos=_DEFAULT_RHOS,
    jobs: int = 1,
    executor=None,
    artifact_dir=None,
) -> Table:
    """ℓ0 norm and success rate of the ℓ0 attack as a function of ρ."""
    runner = _single_ablation_runner(_rho_jobs, _rho_table, "ablation_rho")
    return runner(
        scale,
        registry=registry,
        seed=seed,
        dataset=dataset,
        jobs=jobs,
        executor=executor,
        artifact_dir=artifact_dir,
        rhos=tuple(float(rho) for rho in rhos),
    )


def warm_start_ablation(
    scale: str = "ci",
    *,
    registry: ModelRegistry | None = None,
    seed: int = 0,
    dataset: str = "mnist_like",
    jobs: int = 1,
    executor=None,
    artifact_dir=None,
) -> Table:
    """ADMM with and without the dense warm start."""
    runner = _single_ablation_runner(_warm_jobs, _warm_table, "ablation_warm_start")
    return runner(
        scale,
        registry=registry,
        seed=seed,
        dataset=dataset,
        jobs=jobs,
        executor=executor,
        artifact_dir=artifact_dir,
    )


def delta_step_ablation(
    scale: str = "ci",
    *,
    registry: ModelRegistry | None = None,
    seed: int = 0,
    dataset: str = "mnist_like",
    jobs: int = 1,
    executor=None,
    artifact_dir=None,
) -> Table:
    """Adaptive trust-region α vs fixed α in the linearised δ-step."""
    runner = _single_ablation_runner(_delta_jobs, _delta_table, "ablation_delta_step")
    return runner(
        scale,
        registry=registry,
        seed=seed,
        dataset=dataset,
        jobs=jobs,
        executor=executor,
        artifact_dir=artifact_dir,
    )


def hardware_cost(
    scale: str = "ci",
    *,
    registry: ModelRegistry | None = None,
    seed: int = 0,
    dataset: str = "mnist_like",
    jobs: int = 1,
    executor=None,
    artifact_dir=None,
) -> Table:
    """Memory-level cost of executing the ℓ0 vs ℓ2 modification."""
    runner = _single_ablation_runner(_hardware_jobs, _hardware_table, "ablation_hardware_cost")
    return runner(
        scale,
        registry=registry,
        seed=seed,
        dataset=dataset,
        jobs=jobs,
        executor=executor,
        artifact_dir=artifact_dir,
    )


def build_campaign(
    scale: str = "ci",
    *,
    seed: int = 0,
    dataset: str = "mnist_like",
    rhos=_DEFAULT_RHOS,
) -> Campaign:
    """Declare every ablation row as one combined campaign."""
    rhos = tuple(float(rho) for rho in rhos)
    jobs = (
        _rho_jobs(scale, seed, dataset, rhos)
        + _warm_jobs(scale, seed, dataset)
        + _delta_jobs(scale, seed, dataset)
        + _hardware_jobs(scale, seed, dataset)
    )
    return Campaign(
        name="ablations",
        scale=scale,
        seed=seed,
        jobs=tuple(jobs),
        metadata={"dataset": dataset, "rhos": rhos},
    )


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Merge the per-family ablation tables into a single wide table."""
    scale, seed = campaign.scale, campaign.seed
    dataset = campaign.metadata["dataset"]
    rhos = campaign.metadata["rhos"]
    tables = [
        _rho_table(scale, seed, dataset, rhos, results),
        _warm_table(scale, seed, dataset, results),
        _delta_table(scale, seed, dataset, results),
        _hardware_table(scale, seed, dataset, results),
    ]
    merged = Table(title="Ablation studies", columns=["ablation", "row"])
    for table in tables:
        for row in table.rows:
            merged.add_row(table.title, " | ".join(str(v) for v in row))
        merged.notes.extend(table.notes)
    return merged


def run(
    scale: str = "ci",
    *,
    registry: ModelRegistry | None = None,
    seed: int = 0,
    dataset: str = "mnist_like",
    jobs: int = 1,
    executor=None,
    artifact_dir=None,
) -> Table:
    """Run every ablation and merge the results into a single wide table."""
    return run_experiment(
        build_campaign,
        assemble,
        scale,
        registry=registry,
        seed=seed,
        jobs=jobs,
        executor=executor,
        artifact_dir=artifact_dir,
        dataset=dataset,
    )
