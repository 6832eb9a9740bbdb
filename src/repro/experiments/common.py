"""Shared infrastructure for the experiment drivers.

The paper's evaluation always starts from the same two trained networks (one
per dataset) and varies the attack configuration and the (S, R) grid.  This
module centralises:

* the per-scale experiment settings (grid sizes, training budget, ADMM
  iteration counts) so that the full suite can run either as a quick CI pass
  or at the paper's scale;
* trained-model acquisition through the :mod:`repro.zoo.registry` so that a
  model is trained at most once per process / cache directory;
* the per-victim context every campaign cell reads its anchor pool,
  evaluation set, clean accuracy and clean prefix activations from, built
  once per process;
* the ``sweep-cell`` campaign job shared by Table 4 and Figures 1–2 (one
  fault-sneaking attack at a single (S, R) grid point, evaluated against the
  anchor/evaluation split), and its fused form: :func:`sweep_group_key`
  says which cells may share one stacked solve and :func:`sweep_cell_batch`
  runs such a group (:mod:`repro.experiments.fusion` plans and runs the
  groups).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.evaluation import (
    EvaluationContext,
    evaluate_attack_result,
    evaluate_attack_results,
)
from repro.attacks.baselines import (
    GradientDescentAttack,
    GradientDescentAttackConfig,
    SingleBiasAttack,
    SingleBiasAttackConfig,
)
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.targets import make_attack_plan
from repro.data.dataset import Dataset
from repro.experiments.campaign import JobSpec, register_job
from repro.utils.errors import ConfigurationError
from repro.zoo.registry import ModelRegistry, ModelSpec, TrainedModel, default_registry

__all__ = [
    "ExperimentSetting",
    "SETTINGS",
    "get_setting",
    "get_trained_model",
    "attack_config_for",
    "anchor_and_eval_split",
    "VictimContext",
    "victim_context",
    "anchor_pool_size",
    "usable_r_values",
    "SWEEP_CELL",
    "sweep_cell_spec",
    "sweep_group_key",
    "sweep_cell_batch",
    "S1_BASELINE_ATTACKS",
    "s1_num_images",
    "run_s1_attack",
]


@dataclass(frozen=True)
class ExperimentSetting:
    """Grid sizes and budgets for one experiment scale.

    Attributes
    ----------
    name:
        ``"smoke"``, ``"ci"``, ``"paper"`` or ``"full"``.
    architecture:
        Architecture name passed to the model registry.
    n_train, n_test, epochs:
        Training budget of the victim models.
    s_values, r_values:
        Default S and R grids (Table 4 / Figures 1–2).
    layer_s_values:
        S (= R) grid of Table 1.
    type_s_values:
        S (= R) grid of Table 2.
    norm_settings:
        (S, R) pairs of Table 3.
    tolerance_s_values, tolerance_r:
        S grid and fixed R of Figure 3.
    baseline_r:
        R of the §5.4 baseline comparison (S = 1).
    hardware_s_values:
        S grid of the bit-true hardware-cost experiment.
    attack_iterations, warmup_iterations, refine_steps:
        ADMM budget shared by all attacks at this scale.
    """

    name: str
    architecture: str
    n_train: int
    n_test: int
    epochs: int
    s_values: tuple[int, ...]
    r_values: tuple[int, ...]
    layer_s_values: tuple[int, ...]
    type_s_values: tuple[int, ...]
    norm_settings: tuple[tuple[int, int], ...]
    tolerance_s_values: tuple[int, ...]
    tolerance_r: int
    baseline_r: int
    attack_iterations: int
    warmup_iterations: int
    refine_steps: int
    hidden: tuple[int, int] = (200, 200)
    hardware_s_values: tuple[int, ...] = (1, 4)


SETTINGS: dict[str, ExperimentSetting] = {
    # "smoke" exists for fast sanity checks (unit tests, demos on very slow
    # machines); its grids are too small to reproduce the paper's trends.
    "smoke": ExperimentSetting(
        name="smoke",
        architecture="compact_cnn",
        n_train=600,
        n_test=250,
        epochs=6,
        s_values=(1, 2),
        r_values=(10, 30),
        layer_s_values=(1, 2),
        type_s_values=(1, 2),
        norm_settings=((1, 10), (2, 10)),
        tolerance_s_values=(1, 4),
        tolerance_r=10,
        baseline_r=30,
        attack_iterations=60,
        warmup_iterations=250,
        refine_steps=30,
        hidden=(64, 32),
        hardware_s_values=(1, 2),
    ),
    "ci": ExperimentSetting(
        name="ci",
        architecture="compact_cnn",
        n_train=1500,
        n_test=600,
        epochs=4,
        s_values=(1, 4),
        r_values=(50, 200),
        layer_s_values=(1, 4),
        type_s_values=(1, 2, 4),
        norm_settings=((1, 10), (5, 10), (5, 20)),
        tolerance_s_values=(2, 6, 12),
        tolerance_r=20,
        baseline_r=100,
        attack_iterations=150,
        warmup_iterations=300,
        refine_steps=50,
    ),
    "paper": ExperimentSetting(
        name="paper",
        architecture="compact_cnn",
        n_train=4000,
        n_test=2000,
        epochs=8,
        s_values=(1, 2, 4, 8, 16),
        r_values=(50, 100, 200, 500, 1000),
        layer_s_values=(1, 4, 16),
        type_s_values=(1, 2, 4, 8),
        norm_settings=((1, 10), (5, 10), (5, 20)),
        tolerance_s_values=(1, 2, 4, 8, 16, 32, 64, 128),
        tolerance_r=200,
        baseline_r=1000,
        attack_iterations=300,
        warmup_iterations=600,
        refine_steps=100,
        hardware_s_values=(1, 4, 16),
    ),
    "full": ExperimentSetting(
        name="full",
        architecture="paper_cnn",
        n_train=6000,
        n_test=2000,
        epochs=10,
        s_values=(1, 2, 4, 8, 16),
        r_values=(50, 100, 200, 500, 1000),
        layer_s_values=(1, 4, 16),
        type_s_values=(1, 2, 4, 8),
        norm_settings=((1, 10), (5, 10), (5, 20)),
        tolerance_s_values=(1, 2, 4, 8, 16, 32, 64, 128),
        tolerance_r=200,
        baseline_r=1000,
        attack_iterations=300,
        warmup_iterations=600,
        refine_steps=100,
        hardware_s_values=(1, 4, 16),
    ),
}


def get_setting(scale: str) -> ExperimentSetting:
    """Return the :class:`ExperimentSetting` for a scale name."""
    try:
        return SETTINGS[scale]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scale {scale!r}; expected one of {sorted(SETTINGS)}"
        ) from exc


def get_trained_model(
    dataset: str,
    scale: str = "ci",
    *,
    registry: ModelRegistry | None = None,
    seed: int = 0,
) -> TrainedModel:
    """Return the trained victim model for a dataset at a given scale."""
    setting = get_setting(scale)
    registry = registry or default_registry()
    spec = ModelSpec(
        dataset=dataset,
        architecture=setting.architecture,
        n_train=setting.n_train,
        n_test=setting.n_test,
        hidden=setting.hidden,
        epochs=setting.epochs,
        seed=seed,
    )
    return registry.get(spec)


def anchor_and_eval_split(trained: TrainedModel):
    """Split the held-out data into a disjoint anchor pool and evaluation set.

    The paper's adversary picks its ``R`` anchor images independently of the
    data used to report test accuracy (it is not even assumed to know the
    test set).  Drawing anchors from the same images that accuracy is
    measured on would let the keep constraint trivially inflate the reported
    accuracy at large ``R``, so every experiment that reports accuracy
    retention uses this split: even-indexed test samples form the anchor
    pool, odd-indexed samples form the evaluation set.  The test split is
    i.i.d., so the parity split is unbiased and deterministic.

    Each call builds fresh copies.  Campaign cells read the split from
    :func:`victim_context` instead, which makes it once per victim and
    process.

    Returns
    -------
    (anchor_pool, eval_set):
        Two disjoint :class:`~repro.data.dataset.Dataset` objects.
    """
    test = trained.data.test
    indices = list(range(len(test)))
    anchor_pool = test.subset(indices[0::2])
    eval_set = test.subset(indices[1::2])
    return anchor_pool, eval_set


@dataclass(frozen=True)
class VictimContext:
    """The clean-victim work every campaign cell on one victim shares.

    ``anchor_pool`` and ``eval_set`` are the victim's
    :func:`anchor_and_eval_split`.  ``evaluation`` scores attacks on the
    evaluation set; it computes the clean accuracy and, per first attacked
    layer, the clean activations below that layer once.
    """

    anchor_pool: Dataset
    evaluation: EvaluationContext

    @property
    def eval_set(self) -> Dataset:
        return self.evaluation.test_set


def victim_context(trained: TrainedModel) -> VictimContext:
    """Return the victim's shared context, building it on first use.

    The context is kept on the registry's in-memory ``trained`` entry, so all
    cells of a campaign that run in one process share it, and each pool or
    fleet worker process builds its own.  It is never written to the disk
    cache.
    """
    if trained.context is None:
        anchor_pool, eval_set = anchor_and_eval_split(trained)
        trained.context = VictimContext(anchor_pool, EvaluationContext(trained.model, eval_set))
    return trained.context


def attack_config_for(
    scale: str,
    *,
    norm: str = "l0",
    layers: tuple[str, ...] | None = ("fc_logits",),
    **overrides,
) -> FaultSneakingConfig:
    """Return the attack configuration used by the experiments at ``scale``.

    Additional keyword arguments override individual
    :class:`FaultSneakingConfig` fields.
    """
    setting = get_setting(scale)
    base = FaultSneakingConfig(
        norm=norm,
        layers=layers,
        iterations=setting.attack_iterations,
        warmup_iterations=setting.warmup_iterations,
        refine_support_steps=setting.refine_steps,
    )
    return replace(base, **overrides) if overrides else base


def anchor_pool_size(setting: ExperimentSetting) -> int:
    """Size of the anchor pool produced by :func:`anchor_and_eval_split`.

    The pool is the even-indexed half of the ``n_test`` held-out samples, so
    its size is known without training the model — grid builders use this to
    drop ``R`` values that exceed the pool without touching the registry.
    """
    return (setting.n_test + 1) // 2


def usable_r_values(setting: ExperimentSetting) -> list[int]:
    """The R grid restricted to values the anchor pool can supply."""
    limit = anchor_pool_size(setting)
    return [int(r) for r in setting.r_values if r <= limit]


# Job kind of one (S, R) grid point of the shared fault-sneaking sweep.
SWEEP_CELL = "sweep-cell"


def sweep_cell_spec(
    *,
    dataset: str,
    scale: str,
    seed: int,
    s: int,
    r: int,
    norm: str = "l0",
    target_strategy: str = "random",
    plan_seed: int | None = None,
) -> JobSpec:
    """Declare one (S, R) grid point of the shared fault-sneaking sweep.

    Table 4 and Figures 1–2 all build their grids from this spec, so when a
    campaign (or the artifact store) sees the same cell twice it is attacked
    only once.  ``plan_seed`` defaults to ``seed``, mirroring the paper's
    protocol of reusing one plan seed across the whole grid.
    """
    return JobSpec.make(
        SWEEP_CELL,
        dataset=dataset,
        scale=scale,
        seed=int(seed),
        s=int(s),
        r=int(r),
        norm=norm,
        target_strategy=target_strategy,
        plan_seed=int(seed if plan_seed is None else plan_seed),
    )


# (attack parameter value, table row label), in the paper's reporting order.
# Shared by the §5.4 baseline comparison and the detectability extension,
# which run the same three attacks under the same S = 1 requirement.
S1_BASELINE_ATTACKS = (
    ("fault_sneaking", "fault sneaking (l0)"),
    ("gda", "GDA (Liu et al.)"),
    ("sba", "SBA (Liu et al.)"),
)


def s1_num_images(setting: ExperimentSetting) -> int:
    """The R used by the S = 1 baseline/detectability experiments."""
    return min(setting.baseline_r, anchor_pool_size(setting))


def run_s1_attack(attack: str, model, plan, scale: str):
    """Run one of the three S = 1 attacks and return ``(result, success)``.

    ``result`` exposes ``modified_model()``, ``l0_norm`` and ``l2_norm`` for
    all three attacks; ``success`` normalises SBA's boolean ``success``
    against the others' ``success_rate``.
    """
    if attack == "fault_sneaking":
        result = FaultSneakingAttack(model, attack_config_for(scale, norm="l0")).attack(plan)
        return result, float(result.success_rate)
    if attack == "gda":
        config = GradientDescentAttackConfig(iterations=get_setting(scale).attack_iterations)
        result = GradientDescentAttack(model, config).attack(plan)
        return result, float(result.success_rate)
    if attack == "sba":
        sba = SingleBiasAttack(model, SingleBiasAttackConfig())
        result = sba.attack(plan.target_images[0], int(plan.target_labels[0]))
        return result, float(result.success)
    raise ConfigurationError(
        f"unknown S=1 attack {attack!r}; expected one of "
        f"{[name for name, _ in S1_BASELINE_ATTACKS]}"
    )


def _sweep_params(params: dict) -> dict:
    """A sweep cell's parameters, with defaults for the optional ones."""
    return {"norm": "l0", "target_strategy": "random", "plan_seed": 0, **params}


def _sweep_inputs(registry: ModelRegistry | None, cells: list[dict]):
    """The victim model, its context, the attack configuration and one plan
    per cell of a sweep group (or of one scalar cell).

    The cells share :func:`sweep_group_key`, so the first one names the
    victim and the configuration.
    """
    cells = [_sweep_params(cell) for cell in cells]
    first = cells[0]
    trained = get_trained_model(
        first["dataset"], first["scale"], registry=registry, seed=int(first["seed"])
    )
    context = victim_context(trained)
    config = attack_config_for(first["scale"], norm=first["norm"])
    plans = [
        make_attack_plan(
            context.anchor_pool,
            num_targets=int(cell["s"]),
            num_images=int(cell["r"]),
            target_strategy=cell["target_strategy"],
            seed=int(cell["plan_seed"]),
        )
        for cell in cells
    ]
    return trained.model, context, config, plans


@register_job(SWEEP_CELL)
def _sweep_cell_job(*, registry: ModelRegistry | None = None, **params) -> dict:
    """Attack one (S, R) grid point and return the full evaluation metrics."""
    model, context, config, (plan,) = _sweep_inputs(registry, [params])
    result = FaultSneakingAttack(model, config).attack(plan)
    return evaluate_attack_result(result, context=context.evaluation).as_dict()


def sweep_group_key(params: dict) -> tuple:
    """Fusion compatibility key of one sweep cell.

    Everything that must be *shared* across the lanes of one stacked solve:
    the victim model (dataset, scale, seed), the attack configuration (scale,
    norm) and the anchor count R (the stacked objective needs one common
    image-batch shape).  S and the plan seed vary lane to lane.
    """
    p = _sweep_params(params)
    return (p["dataset"], p["scale"], int(p["seed"]), int(p["r"]), p["norm"], p["target_strategy"])


def sweep_cell_batch(specs: list[JobSpec], *, registry: ModelRegistry | None = None) -> list[dict]:
    """Attack a group of compatible (S, R) grid points in one stacked solve.

    Each cell contributes its own attack plan as one lane of the batched
    solver.  Each lane's metrics are bit-identical to what the scalar
    ``sweep-cell`` job returns for that cell alone (the batched solver
    mirrors the scalar arithmetic ULP for ULP), so fusing is invisible to
    manifests and tables.
    """
    from repro.attacks.batched import BatchedFaultSneakingAttack

    model, context, config, plans = _sweep_inputs(registry, [spec.param_dict() for spec in specs])
    results = BatchedFaultSneakingAttack(model, config).attack_batch(plans)
    evaluations = evaluate_attack_results(results, context=context.evaluation)
    return [evaluation.as_dict() for evaluation in evaluations]
