"""Bit-true hardware cost: storage × budget × device profile × hammer pattern × S.

The paper argues (§2.3) that minimising the ℓ0 norm is what makes the attack
executable on real hardware, but reports only the proxy.  This experiment
closes the loop: every grid cell solves the attack, lowers the modification
into an exact bit-flip plan for a deployed storage format (float32 / float16 /
int8) on a *named device profile* (DRAM geometry, per-cell flip template,
optional ECC scheme, optional TRR sampler) under a chosen *hammer pattern*,
repairs the plan under the device's physics and a hardware budget, and
re-measures success rate, keep rate and accuracy drop on the *bit-true*
modified model.

For ECC profiles the table also reports the "raw" success of the unrepaired
plan — the rate after the memory controller silently corrects isolated flips
away — next to the repaired rate, showing what the syndrome-aware re-routing
pass buys.

On top of the deterministic lowering, every cell runs ``--trials`` seeded
Monte-Carlo executions of its repaired plan (per-cell flip sampling and
probabilistic-TRR re-rolls — the stochastic fault model) and reports
rate ± 95 % CI columns.  The per-cell trial seed is derived from
``--flip-seed`` and the cell's own identity with
:func:`repro.utils.rng.derive_seed`, so the statistics are byte-identical
between serial and ``--jobs N`` runs and across resumes; on deterministic
(probability-1.0) profiles under a full-yield pattern every trial reproduces
the deterministic columns exactly and the CIs are 0 (reduced-yield patterns
scale the landing probability by their ``flip_yield``).

Each cell is an independent campaign job, so the grid parallelises under
``--jobs N`` and memoizes per cell exactly like the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import (
    BIT_COST_COLUMNS,
    DEVICE_COST_COLUMNS,
    HAMMER_COST_COLUMNS,
    STOCHASTIC_COST_COLUMNS,
    Table,
    bit_cost_cells,
    device_cost_cells,
    hammer_cost_cells,
    stochastic_cost_cells,
)
from repro.attacks.fault_sneaking import FaultSneakingAttack
from repro.attacks.lowering import (
    VARIANCE_REDUCTION_SCHEMES,
    HardwareBudget,
    LoweringReport,
    lower_attack,
)
from repro.attacks.parameter_view import ParameterView
from repro.attacks.targets import AttackPlan, make_attack_plan
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    JobSpec,
    format_cell_int,
    register_job,
    run_experiment,
)
from repro.experiments.common import (
    anchor_pool_size,
    attack_config_for,
    get_setting,
    get_trained_model,
    victim_context,
)
from repro.hardware.device import get_pattern, get_profile
from repro.nn.quantization import STORAGE_FORMATS
from repro.utils.errors import ConfigurationError
from repro.utils.rng import derive_seed
from repro.zoo.registry import ModelRegistry, default_registry

__all__ = [
    "run",
    "build_campaign",
    "assemble",
    "lowered_cell",
    "LoweredCell",
    "BUDGET_LEVELS",
    "DEFAULT_PROFILES",
    "DEFAULT_PATTERNS",
    "DEFAULT_TRIALS",
]

# Budget levels swept by the grid.  "unlimited" applies only the device's
# physics (flip template, ECC) with no budget caps, isolating what the device
# itself costs; "derived" additionally enforces the HardwareBudget the
# profile derives (flips/word, hammerable rows); "expected" is the derived
# budget with the massaging stage maximising *expected* success under the
# per-cell landing probabilities (lower_attack(expected_repair=True)) — it
# coincides with "derived" bit-for-bit on probability-1.0 profiles and only
# diverges on the stochastic-* profiles, which is exactly the regression
# property the budget-sweep test pins.
BUDGET_LEVELS = ("unlimited", "derived", "expected")

# Device profiles swept by default: a permissive consumer DIMM and the
# SECDED-protected server DIMM (the pair that shows the ECC repair story).
# The CLI's --profile flag (or run(profiles=...)) selects others, e.g.
# ddr4-trrespass, ddr5-ondie or server-chipkill.
DEFAULT_PROFILES = ("ddr3-noecc", "server-ecc")

# Hammer patterns swept by default.  One pattern keeps the default grid the
# size it always was; --hammer-pattern (repeatable) or run(patterns=...) adds
# the TRR-evasion patterns, which matter on sampler-based profiles like
# ddr4-trrespass.
DEFAULT_PATTERNS = ("double-sided",)

# Monte-Carlo trials per cell.  Three is enough to exercise the stochastic
# machinery and pin the probability-1.0-equals-deterministic property in the
# golden tables without noticeably slowing the grid; campaigns studying the
# stochastic-* profiles raise it via --trials.
DEFAULT_TRIALS = 3

# Fixed anchor count R of every cell (capped by the anchor pool at runtime).
_R = 100


def _num_images(setting) -> int:
    return min(_R, anchor_pool_size(setting))


def _cell(
    dataset: str,
    scale: str,
    seed: int,
    s: int,
    r: int,
    storage: str,
    profile: str,
    budget: str,
    pattern: str,
    trials: int,
    flip_seed: int,
    variance_reduction: str = "independent",
    env_drift: float = 0.0,
) -> JobSpec:
    # The scheme and the drift enter the spec only when they differ from the
    # historical defaults, so every pre-existing artifact key (and golden
    # manifest) stays byte-identical for nominal "independent" campaigns.
    extra: dict = {}
    if variance_reduction != "independent":
        extra["variance_reduction"] = variance_reduction
    if env_drift != 0.0:
        extra["env_drift"] = float(env_drift)
    return JobSpec.make(
        "hardware-cost-cell",
        dataset=dataset,
        scale=scale,
        seed=int(seed),
        s=int(s),
        r=int(r),
        storage=storage,
        profile=profile,
        budget=budget,
        pattern=pattern,
        plan_seed=int(seed),
        trials=int(trials),
        flip_seed=int(flip_seed),
        **extra,
    )


@dataclass
class _SolvedAttack:
    """The slice of a FaultSneakingResult the lowering pipeline consumes.

    Grid cells that differ only along the storage/profile/budget axes share
    one ADMM solve through the registry's disk cache; a cache hit
    reconstructs this lightweight view instead of re-running the attack.
    """

    view: ParameterView
    delta: np.ndarray
    plan: AttackPlan
    success_mask: np.ndarray
    keep_mask: np.ndarray

    @property
    def success_rate(self) -> float:
        return float(self.success_mask.mean()) if self.success_mask.size else 1.0

    @property
    def keep_rate(self) -> float:
        return float(self.keep_mask.mean()) if self.keep_mask.size else 1.0


def _solve_attack(
    trained, config, plan, registry: ModelRegistry | None, solve_key_params: dict
) -> _SolvedAttack:
    """Solve the attack for one (dataset, scale, seed, s, r) point, memoized.

    The solve is independent of the storage/profile/budget axes, so it is
    cached in the model registry's disk cache keyed by the solve inputs only:
    the storage × profile × budget cells of each S value pay for one ADMM
    solve between them (and across resumed runs), in every worker process.
    """
    cache = (registry or default_registry()).disk_cache
    key = cache.key_for({"kind": "hardware-cost-solve", **solve_key_params})
    view = ParameterView(trained.model, config.selector())
    cached = cache.load(key)
    if cached is not None and cached["delta"].shape == (view.size,):
        return _SolvedAttack(
            view=view,
            delta=cached["delta"],
            plan=plan,
            success_mask=cached["success_mask"].astype(bool),
            keep_mask=cached["keep_mask"].astype(bool),
        )
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    cache.store(
        key,
        {
            "delta": result.delta,
            "success_mask": result.success_mask.astype(np.uint8),
            "keep_mask": result.keep_mask.astype(np.uint8),
        },
    )
    return _SolvedAttack(
        view=view,
        delta=result.delta,
        plan=plan,
        success_mask=np.asarray(result.success_mask, dtype=bool),
        keep_mask=np.asarray(result.keep_mask, dtype=bool),
    )


@dataclass
class LoweredCell:
    """Everything one lowered grid cell produced, before metric extraction.

    ``hardware_cost`` turns this straight into its table row;
    ``defense_matrix`` replays the same lowering (same solve cache, same
    trial-seed derivation, hence bit-identical Monte-Carlo columns) and then
    runs the defense evaluation on top of the report's per-trial outcomes.
    """

    solved: _SolvedAttack
    report: LoweringReport
    l0: int

    def metrics(self) -> dict:
        out = self.report.as_dict()
        out["l0"] = self.l0
        out["solver_success"] = self.solved.success_rate
        out["solver_keep"] = self.solved.keep_rate
        return out


def lowered_cell(
    *,
    registry: ModelRegistry | None = None,
    dataset: str,
    scale: str,
    seed: int,
    s: int,
    r: int,
    storage: str,
    profile: str,
    budget: str,
    pattern: str = "double-sided",
    plan_seed: int,
    trials: int = 0,
    flip_seed: int = 0,
    variance_reduction: str = "independent",
    env_drift: float = 0.0,
) -> LoweredCell:
    """Solve one attack and lower it onto a device — the shared cell core.

    Both the ``hardware_cost`` and ``defense_matrix`` cell jobs run through
    this single function so their seed derivations cannot drift apart: a
    ``defense_matrix`` cell with the same (dataset, scale, seed, s, storage,
    profile, budget, pattern, trials, flip_seed) reproduces the
    ``hardware_cost`` Monte-Carlo columns bit for bit.
    """
    trained = get_trained_model(dataset, scale, registry=registry, seed=seed)
    context = victim_context(trained)
    config = attack_config_for(scale, norm="l0")
    plan = make_attack_plan(context.anchor_pool, num_targets=s, num_images=r, seed=plan_seed)
    solved = _solve_attack(
        trained,
        config,
        plan,
        registry,
        {
            "dataset": dataset,
            "scale": scale,
            "seed": int(seed),
            "s": int(s),
            "r": int(r),
            "plan_seed": int(plan_seed),
            "norm": config.norm,
        },
    )
    report = lower_attack(
        solved,
        storage=storage,
        profile=profile,
        # "unlimited" overrides the profile-derived budget with no caps; the
        # device physics (template, ECC, TRR sampler) stay active either way.
        # "derived" and "expected" both enforce the profile-derived budget;
        # "expected" additionally optimises the massaging stage for expected
        # success under the per-cell landing probabilities.
        budget=HardwareBudget() if budget == "unlimited" else None,
        expected_repair=budget == "expected",
        hammer_pattern=pattern,
        trials=trials,
        # One trial stream per cell: folding the full cell identity into the
        # seed keeps cells independent while staying a pure function of the
        # job parameters — the serial/parallel byte-identity contract.
        rng=derive_seed(
            "hardware-cost-flips",
            int(flip_seed),
            dataset,
            scale,
            int(seed),
            int(s),
            storage,
            profile,
            budget,
            pattern,
        ),
        variance_reduction=variance_reduction,
        # CRN streams are keyed by the campaign-wide flip seed alone, so
        # every cell of a CRN campaign consumes identical trial draws —
        # that sharing is the whole point of common random numbers.
        crn_seed=int(flip_seed),
        env_drift=env_drift,
        context=context.evaluation,
    )
    return LoweredCell(
        solved=solved,
        report=report,
        l0=int(np.count_nonzero(np.abs(solved.delta) > config.zero_tolerance)),
    )


@register_job("hardware-cost-cell")
def _hardware_cost_cell_job(
    *,
    registry: ModelRegistry | None = None,
    dataset: str,
    scale: str,
    seed: int,
    s: int,
    r: int,
    storage: str,
    profile: str,
    budget: str,
    pattern: str = "double-sided",
    plan_seed: int,
    trials: int = 0,
    flip_seed: int = 0,
    variance_reduction: str = "independent",
    env_drift: float = 0.0,
) -> dict:
    """Solve one attack, lower it onto a device and return the cost metrics."""
    cell = lowered_cell(
        registry=registry,
        dataset=dataset,
        scale=scale,
        seed=seed,
        s=s,
        r=r,
        storage=storage,
        profile=profile,
        budget=budget,
        pattern=pattern,
        plan_seed=plan_seed,
        trials=trials,
        flip_seed=flip_seed,
        variance_reduction=variance_reduction,
        env_drift=env_drift,
    )
    return cell.metrics()


def build_campaign(
    scale: str = "ci",
    *,
    seed: int = 0,
    dataset: str = "mnist_like",
    storages: tuple[str, ...] = STORAGE_FORMATS,
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    patterns: tuple[str, ...] = DEFAULT_PATTERNS,
    trials: int = DEFAULT_TRIALS,
    flip_seed: int = 0,
    variance_reduction: str = "independent",
    env_drift: float = 0.0,
) -> Campaign:
    """Declare one job per (storage, profile, budget, hammer pattern, S) point.

    ``trials`` Monte-Carlo executions run inside every cell (0 disables the
    stochastic columns); ``flip_seed`` shifts every cell's trial stream at
    once — the campaign axis the CI seed matrix sweeps.
    ``variance_reduction`` selects the per-cell Monte-Carlo scheme
    (:data:`repro.attacks.lowering.VARIANCE_REDUCTION_SCHEMES`): ``"crn"``
    runs every cell on common random numbers keyed by ``flip_seed``,
    ``"antithetic"`` pairs each cell's trials on complementary landing
    draws.  ``env_drift`` scales every cell's landing probabilities by
    ``1 - env_drift`` (temperature/voltage drift of the deployment); like
    the scheme, it enters the cell keys only when non-default so historical
    artifacts stay valid.  Either way the campaign stays a pure function of
    its parameters, so serial and parallel runs agree byte for byte.
    """
    for name in profiles:
        get_profile(name)  # fail fast on unknown profile names
    for name in patterns:
        get_pattern(name)  # fail fast on unknown pattern names
    if trials < 0:
        raise ConfigurationError(f"trials must be >= 0, got {trials}")
    if variance_reduction not in VARIANCE_REDUCTION_SCHEMES:
        raise ConfigurationError(
            f"variance_reduction must be one of {VARIANCE_REDUCTION_SCHEMES}, "
            f"got {variance_reduction!r}"
        )
    if not -1.0 < env_drift < 1.0:
        raise ConfigurationError(f"env_drift must lie in (-1, 1), got {env_drift}")
    setting = get_setting(scale)
    r = _num_images(setting)
    jobs = [
        _cell(
            dataset, scale, seed, s, r, storage, profile, budget, pattern,
            trials, flip_seed, variance_reduction, env_drift,
        )
        for storage in storages
        for profile in profiles
        for budget in BUDGET_LEVELS
        for pattern in patterns
        for s in setting.hardware_s_values
        if s <= r
    ]
    return Campaign(
        name="hardware_cost",
        scale=scale,
        seed=seed,
        jobs=tuple(jobs),
        metadata={
            "dataset": dataset,
            "storages": tuple(storages),
            "profiles": tuple(profiles),
            "patterns": tuple(patterns),
            "trials": int(trials),
            "flip_seed": int(flip_seed),
            "variance_reduction": variance_reduction,
            "env_drift": float(env_drift),
        },
    )


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-cell metrics into the hardware-cost table."""
    setting = get_setting(campaign.scale)
    dataset = campaign.metadata["dataset"]
    profiles = campaign.metadata["profiles"]
    patterns = campaign.metadata.get("patterns", DEFAULT_PATTERNS)
    trials = campaign.metadata.get("trials", 0)
    flip_seed = campaign.metadata.get("flip_seed", 0)
    variance_reduction = campaign.metadata.get("variance_reduction", "independent")
    env_drift = campaign.metadata.get("env_drift", 0.0)
    r = _num_images(setting)
    table = Table(
        title=(
            f"Bit-true hardware cost per storage format, device profile, "
            f"budget and hammer pattern ({dataset}, R={r})"
        ),
        columns=[
            "storage",
            "profile",
            "budget",
            "pattern",
            "S",
            "l0",
            "solver success",
            *BIT_COST_COLUMNS,
            *DEVICE_COST_COLUMNS,
            *HAMMER_COST_COLUMNS,
            *STOCHASTIC_COST_COLUMNS,
        ],
    )
    for storage in campaign.metadata["storages"]:
        for profile in profiles:
            for budget in BUDGET_LEVELS:
                for pattern in patterns:
                    for s in setting.hardware_s_values:
                        if s > r:
                            continue
                        metrics = results.metrics_for(
                            _cell(
                                dataset,
                                campaign.scale,
                                campaign.seed,
                                s,
                                r,
                                storage,
                                profile,
                                budget,
                                pattern,
                                trials,
                                flip_seed,
                                variance_reduction,
                                env_drift,
                            )
                        )
                        table.add_row(
                            storage,
                            profile,
                            budget,
                            pattern,
                            s,
                            format_cell_int(metrics["l0"]),
                            metrics["solver_success"],
                            *bit_cost_cells(metrics),
                            *device_cost_cells(metrics),
                            *hammer_cost_cells(metrics),
                            *stochastic_cost_cells(metrics),
                        )
    table.add_note(
        "bit-true rates are re-measured on the model rebuilt from the flipped "
        "memory words after template/ECC-aware repair; the solver rate is the "
        "upper bound before quantisation, device physics and budget repair."
    )
    table.add_note(
        "'raw success' is the bit-true rate of the unrepaired plan after the "
        "ECC controller corrects isolated flips away (NaN on profiles "
        "without ECC)."
    )
    table.add_note(
        "profiles: " + "; ".join(
            f"{name} = {get_profile(name).describe()}" for name in profiles
        )
    )
    table.add_note(
        "budget levels: unlimited = device physics only; derived = " + "; ".join(
            f"{name}: {get_profile(name).budget().describe()}" for name in profiles
        )
        + "; expected = the derived budget with massaging optimised for "
        "expected success under the per-cell landing probabilities "
        "(identical to derived on probability-1.0 profiles)"
    )
    if env_drift:
        table.add_note(
            f"env drift {env_drift:+g}: landing probabilities scaled by "
            f"{1.0 - env_drift:g} in the Monte-Carlo trials and "
            "expected-success massaging."
        )
    table.add_note(
        "patterns: " + "; ".join(
            f"{name} = {get_pattern(name).describe()}" for name in patterns
        )
        + " (TRR-sampler profiles flip only the victim rows the pattern "
        "keeps off the tracker)"
    )
    if trials:
        table.add_note(
            f"mc columns: {trials} seeded Monte-Carlo executions per cell "
            f"(flip-seed {flip_seed}); rates are mean ± 95% CI half-width, "
            "'flips landed' is the expected landed-flip count.  Under "
            "full-yield patterns (double-sided), probability-1.0 profiles "
            "reproduce the bit-true columns with 0 CI; reduced-yield "
            "patterns scale the landing probability by their flip_yield."
        )
    else:
        table.add_note("mc columns are NaN: the grid ran with --trials 0.")
    return table


def run(
    scale: str = "ci",
    *,
    registry: ModelRegistry | None = None,
    seed: int = 0,
    dataset: str = "mnist_like",
    storages: tuple[str, ...] = STORAGE_FORMATS,
    profiles: tuple[str, ...] = DEFAULT_PROFILES,
    patterns: tuple[str, ...] = DEFAULT_PATTERNS,
    trials: int = DEFAULT_TRIALS,
    flip_seed: int = 0,
    variance_reduction: str = "independent",
    env_drift: float = 0.0,
    jobs: int = 1,
    executor=None,
    artifact_dir=None,
) -> Table:
    """Run the bit-true hardware-cost sweep and return its table."""
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
        storages=storages,
        profiles=profiles,
        patterns=patterns,
        trials=trials,
        flip_seed=flip_seed,
        variance_reduction=variance_reduction,
        env_drift=env_drift,
    )
