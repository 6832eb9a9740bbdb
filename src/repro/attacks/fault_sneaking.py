"""Public interface of the fault sneaking attack.

:class:`FaultSneakingAttack` glues together the pieces defined elsewhere in
this package — parameter selection (:mod:`.parameter_view`), the
misclassification objective (:mod:`.objective`) and the ADMM solver
(:mod:`.admm`) — behind the attack model of the paper: given ``R`` anchor
images, force the first ``S`` to chosen target labels while keeping the other
``R − S`` classifications unchanged, with a minimal (ℓ0 or ℓ2) modification of
the selected DNN parameters.

Every attack runs through :func:`run_attack_lanes`, which solves a list of
plans as the lanes of one stacked solve: :meth:`FaultSneakingAttack.attack`
is the one-lane case and :mod:`.batched` the many-lane one.

The objective weights every anchor image with ``c_i = 1`` and puts the
margin κ = 0 on the keep images.  The dense warm start and the support
refinement step by the solver's :data:`~repro.attacks.admm.TRUST_RADIUS`,
and the warm start uses momentum :data:`WARMUP_MOMENTUM`.  Entries with
``|δ_i| <=`` :data:`ZERO_TOLERANCE` count as unmodified
(:func:`count_modified_parameters`).

Typical use::

    plan = make_attack_plan(test_set, num_targets=4, num_images=200, seed=0)
    attack = FaultSneakingAttack(model, FaultSneakingConfig(norm="l0"))
    result = attack.attack(plan)
    hacked = result.modified_model()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attacks.admm import (
    TRUST_RADIUS,
    ADMMConfig,
    ADMMHistory,
    ADMMResult,
    ADMMSolver,
    satisfaction,
)
from repro.attacks.objective import AttackObjective, StackedAttackObjective, mask_rate
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.attacks.proximal import row_norms
from repro.attacks.targets import AttackPlan
from repro.nn.model import Sequential
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger

__all__ = [
    "WARMUP_MOMENTUM",
    "ZERO_TOLERANCE",
    "FaultSneakingConfig",
    "FaultSneakingResult",
    "FaultSneakingAttack",
    "build_objective",
    "count_modified_parameters",
    "run_attack_lanes",
]

_LOGGER = get_logger("attacks.fault_sneaking")

# Fallback per-norm defaults for the ADMM penalty ρ (see ADMMConfig.rho), used
# when ``rho`` is left as ``None`` and no warm start is available to calibrate
# against.  For the ℓ0 norm the hard-threshold level is sqrt(2/ρ) ≈ 0.063 at
# ρ = 500, which matches the magnitude of last-FC-layer modifications on the
# benchmark models.
_DEFAULT_RHO = {"l0": 500.0, "l1": 200.0, "l2": 50.0}

# Percentile of the non-zero warm-start magnitudes used as the ℓ0/ℓ1 threshold
# when auto-calibrating ρ: entries below roughly this fraction of the dense
# solution are dropped by the first z-step.
_CALIBRATION_PERCENTILE = 65.0

# Momentum coefficient of the dense warm-start phase.
WARMUP_MOMENTUM = 0.9

# Entries with ``|δ_i| <=`` this value count as unmodified.
ZERO_TOLERANCE = 1e-8


def count_modified_parameters(delta: np.ndarray) -> int:
    """Number of entries of ``δ`` whose magnitude exceeds :data:`ZERO_TOLERANCE`."""
    return int(np.count_nonzero(np.abs(np.asarray(delta)) > ZERO_TOLERANCE))


@dataclass(frozen=True)
class FaultSneakingConfig:
    """Configuration of the fault sneaking attack.

    Parameters
    ----------
    norm:
        Modification measure ``D(δ)``: ``"l0"`` (number of modified
        parameters) or ``"l2"`` (magnitude of the modification).  ``"l1"`` is
        supported as an extension.
    layers:
        Names of the layers the adversary may modify (``None`` = all
        trainable layers).  The paper's main experiments modify only the last
        fully connected layer, ``("fc_logits",)``.
    include_weights, include_biases:
        Restrict the attack to weight or bias parameters (Table 2).
    rho, alpha, iterations:
        ADMM hyper-parameters, see :class:`~repro.attacks.admm.ADMMConfig`.
        ``rho=None`` (default) calibrates ρ per attack: for the ℓ0/ℓ1 norms
        the hard/soft threshold ``sqrt(2/ρ)`` / ``1/ρ`` is set to a percentile
        of the dense warm start's non-zero magnitudes, so the same
        configuration works across layers whose parameter counts (and hence
        per-parameter modification magnitudes) differ by orders of magnitude.
        ``alpha=None`` (default) chooses the linearisation constant adaptively
        from :data:`~repro.attacks.admm.TRUST_RADIUS`.
    kappa:
        Confidence margin inside the hinge objective for the ``S`` target
        images; a positive value makes the found modification robust to the
        final sparsification.  The keep images have margin 0, as in the
        paper: a keep image only contributes to the objective once its
        classification actually flips.
    warm_start:
        Run a dense warm-start phase before ADMM: normalised-gradient descent
        with momentum on ``G(θ + δ)`` alone until the misclassification
        requirements are met (or ``warmup_iterations`` is exhausted).  The
        resulting dense ``δ`` initialises the ADMM iterations, whose proximal
        z-steps then concentrate and shrink it.  Without the warm start the
        non-convex ℓ0 problem frequently collapses to the trivial stationary
        point ``δ = z = 0``.
    warmup_iterations:
        Iteration cap of the warm-start phase.
    refine_support_steps:
        After ADMM finishes, run this many extra linearised δ-steps restricted
        to the support of the chosen sparse modification (no new parameters
        are touched).  This is an optional repair stage; 0 disables it.
    """

    norm: str = "l0"
    layers: tuple[str, ...] | None = ("fc_logits",)
    include_weights: bool = True
    include_biases: bool = True
    rho: float | None = None
    alpha: float | None = None
    iterations: int = 200
    kappa: float = 1.0
    warm_start: bool = True
    warmup_iterations: int = 600
    refine_support_steps: int = 100

    def __post_init__(self):
        if self.norm not in _DEFAULT_RHO:
            raise ConfigurationError(
                f"norm must be one of {sorted(_DEFAULT_RHO)}, got {self.norm!r}"
            )
        if self.kappa < 0:
            raise ConfigurationError("kappa must be non-negative")
        if self.refine_support_steps < 0:
            raise ConfigurationError("refine_support_steps must be non-negative")
        if self.warmup_iterations < 0:
            raise ConfigurationError("warmup_iterations must be non-negative")
        self.admm_config()  # validates the ADMM hyper-parameters

    @property
    def effective_rho(self) -> float:
        """The fallback ρ (per-norm default) used when no calibration is possible."""
        return self.rho if self.rho is not None else _DEFAULT_RHO[self.norm]

    def calibrated_rho(self, warm_delta: np.ndarray | None) -> float:
        """Return the ρ to use, calibrating from a dense warm start when possible.

        For the ℓ0 norm the z-step keeps entries with ``|v| > sqrt(2/ρ)``; for
        the ℓ1 norm it soft-thresholds at ``1/ρ``.  Setting that threshold to
        the ``_CALIBRATION_PERCENTILE``-th percentile of the warm start's
        non-zero magnitudes sparsifies away the small entries of the dense
        solution regardless of the attacked layer's size.  The ℓ2 norm has no
        per-entry threshold, so the fixed default is used.
        """
        if self.rho is not None:
            return self.rho
        if self.norm == "l2" or warm_delta is None:
            return self.effective_rho
        magnitudes = np.abs(warm_delta)
        magnitudes = magnitudes[magnitudes > ZERO_TOLERANCE]
        if magnitudes.size == 0:
            return self.effective_rho
        threshold = float(np.percentile(magnitudes, _CALIBRATION_PERCENTILE))
        if threshold <= 0:
            return self.effective_rho
        if self.norm == "l0":
            return 2.0 / threshold**2
        return 1.0 / threshold

    def selector(self) -> ParameterSelector:
        """Return the parameter selector implied by this configuration."""
        return ParameterSelector(
            layers=self.layers,
            include_weights=self.include_weights,
            include_biases=self.include_biases,
        )

    def admm_config(self) -> ADMMConfig:
        """Return the ADMM solver configuration implied by this configuration.

        Its ``rho`` is the fallback :attr:`effective_rho`; calibrated
        per-lane penalties are passed to the solver separately.
        """
        return ADMMConfig(
            norm=self.norm,
            rho=self.effective_rho,
            alpha=self.alpha,
            iterations=self.iterations,
        )


@dataclass
class FaultSneakingResult:
    """Outcome of one fault sneaking attack.

    The result references the *original* (unmodified) model; the parameter
    modification ``δ`` is stored separately so that callers decide whether to
    apply it (:meth:`modified_model` / :meth:`apply_to`).
    """

    delta: np.ndarray
    config: FaultSneakingConfig
    plan: AttackPlan
    view: ParameterView
    success_mask: np.ndarray
    keep_mask: np.ndarray
    admm: ADMMResult

    # -- norms ----------------------------------------------------------------
    @property
    def l0_norm(self) -> int:
        """Number of modified parameters (:func:`count_modified_parameters`)."""
        return count_modified_parameters(self.delta)

    @property
    def l2_norm(self) -> float:
        """Euclidean magnitude of the parameter modification."""
        return float(np.linalg.norm(self.delta))

    @property
    def linf_norm(self) -> float:
        """Largest absolute single-parameter modification."""
        return float(np.max(np.abs(self.delta))) if self.delta.size else 0.0

    # -- attack bookkeeping ------------------------------------------------------
    @property
    def num_targets(self) -> int:
        """``S`` — number of images that were to be misclassified."""
        return self.plan.num_targets

    @property
    def num_images(self) -> int:
        """``R`` — total number of anchor images."""
        return self.plan.num_images

    @property
    def success_rate(self) -> float:
        """Fraction of the ``S`` target images classified as their target."""
        return mask_rate(self.success_mask)

    @property
    def num_successful_faults(self) -> int:
        """Absolute number of successfully injected faults (≤ S)."""
        return int(self.success_mask.sum())

    @property
    def keep_rate(self) -> float:
        """Fraction of keep images whose classification is unchanged."""
        return mask_rate(self.keep_mask)

    @property
    def history(self) -> ADMMHistory:
        """Per-iteration ADMM diagnostics."""
        return self.admm.history

    @property
    def converged(self) -> bool:
        """Whether ADMM met its convergence criterion before the iteration cap."""
        return self.admm.converged

    # -- applying the modification -------------------------------------------------
    def modified_parameters(self) -> dict[str, np.ndarray]:
        """Return ``θ + δ`` split per parameter tensor."""
        return self.view.as_param_dict(self.view.baseline + self.delta)

    def apply_to(self, model: Sequential) -> Sequential:
        """Apply ``δ`` to another model with the same architecture (in place)."""
        other_view = ParameterView(model, self.config.selector())
        if other_view.size != self.view.size:
            raise ConfigurationError(
                "target model's attacked-parameter dimension does not match the result"
            )
        other_view.scatter(other_view.gather() + self.delta)
        return model

    def modified_model(self) -> Sequential:
        """Return an independent copy of the victim model with ``θ + δ`` applied."""
        return self.apply_to(self.view.model.copy())

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"FaultSneaking[{self.config.norm}] {self.plan.describe()}: "
            f"success {self.num_successful_faults}/{self.num_targets}, "
            f"keep rate {self.keep_rate:.2%}, "
            f"l0={self.l0_norm}, l2={self.l2_norm:.3f}"
        )


class FaultSneakingAttack:
    """The ADMM-based fault sneaking attack of the paper.

    Parameters
    ----------
    model:
        The victim network.  It is *not* modified: the attack restores the
        original parameters before returning and reports the modification
        separately.
    config:
        Attack configuration; defaults to the ℓ0 attack on the last FC layer.
    """

    def __init__(self, model: Sequential, config: FaultSneakingConfig | None = None):
        self.model = model
        self.config = config or FaultSneakingConfig()

    # -- public entry points -----------------------------------------------------
    def attack(self, plan: AttackPlan) -> FaultSneakingResult:
        """Run the attack for a prepared :class:`AttackPlan`.

        The attack is a one-lane stacked solve: :func:`run_attack_lanes` with
        ``[plan]``, the same code the batched front-end runs with many lanes.
        """
        (result,) = run_attack_lanes(self.model, self.config, [plan])
        _LOGGER.info("%s", result.summary())
        return result


def build_objective(
    config: FaultSneakingConfig, view: ParameterView, plan: AttackPlan
) -> AttackObjective:
    """Build the hinge objective for one attack plan (one lane): margin
    ``config.kappa`` on the target images and 0 on the keep images."""
    kappa = np.concatenate([np.full(plan.num_targets, config.kappa), np.zeros(plan.num_keep)])
    return AttackObjective(
        view, plan.images, plan.desired_labels, num_targets=plan.num_targets, kappa=kappa
    )


def run_attack_lanes(
    model: Sequential, config: FaultSneakingConfig, plans: Sequence[AttackPlan]
) -> list[FaultSneakingResult]:
    """Run one fault sneaking attack per plan as the lanes of one stacked solve.

    The phases are the dense warm start, per-lane ρ calibration, ADMM
    (:meth:`~repro.attacks.admm.ADMMSolver.solve_batch`) and support
    refinement.  A lane that finishes a phase early drops out of the stack
    (:meth:`~repro.attacks.objective.StackedAttackObjective.subset`), and
    every stacked kernel computes a lane's slice with the one-lane
    arithmetic, so each result is independent of the lanes it was solved
    beside, and each phase costs as many lane-passes as the one-plan solves
    together.  All plans must share the anchor count ``R``.  The
    model is restored to its original parameters before returning.
    """
    if not plans:
        raise ConfigurationError("the attack needs at least one plan")
    num_images = {plan.num_images for plan in plans}
    if len(num_images) != 1:
        raise ConfigurationError(
            f"all plans in a batch must share the anchor count R, got {sorted(num_images)}"
        )
    view = ParameterView(model, config.selector())
    stacked = StackedAttackObjective([build_objective(config, view, plan) for plan in plans])

    initial_deltas = _dense_warm_start(config, stacked) if config.warm_start else None
    rhos = np.array(
        [
            config.calibrated_rho(None if initial_deltas is None else initial_deltas[lane])
            for lane in range(stacked.lanes)
        ]
    )
    admm_results = ADMMSolver(config.admm_config()).solve_batch(
        stacked, initial_deltas=initial_deltas, rhos=rhos
    )

    deltas = np.stack([result.delta for result in admm_results])
    if config.refine_support_steps:
        deltas = _refine_on_support(config, stacked, deltas)

    results = [
        FaultSneakingResult(
            delta=deltas[lane].copy(),
            config=config,
            plan=plan,
            view=view,
            success_mask=success_mask,
            keep_mask=keep_mask,
            admm=admm_results[lane],
        )
        for lane, (plan, (success_mask, keep_mask)) in enumerate(zip(plans, stacked.masks(deltas)))
    ]
    view.restore()
    return results


def _dense_warm_start(config: FaultSneakingConfig, stacked: StackedAttackObjective) -> np.ndarray:
    """Find, per lane, a dense ``δ`` meeting the misclassification requirements.

    Normalised-gradient descent with momentum on ``G(θ + δ)`` alone.  The
    step length equals :data:`~repro.attacks.admm.TRUST_RADIUS` so the path (and therefore the ℓ2
    norm of the warm start) stays short.  A lane drops out of the stack as
    soon as its hinge reaches zero or its gradient vanishes; the
    lowest-valued iterate of each lane is returned.
    """
    lanes, size = stacked.lanes, stacked.size
    deltas = np.zeros((lanes, size))
    velocities = np.zeros_like(deltas)
    best = deltas.copy()
    best_values = np.full(lanes, np.inf)
    rows, sub = np.arange(lanes), stacked
    for _ in range(config.warmup_iterations):
        values, grads = sub.value_and_gradient(deltas[rows])
        improved = values < best_values[rows]
        best_values[rows[improved]] = values[improved]
        best[rows[improved]] = deltas[rows[improved]]
        grad_norms = row_norms(grads)
        keep = ~(values <= 0.0) & ~(grad_norms <= 0.0)
        rows = rows[keep]
        if not rows.size:
            break
        sub = sub.subset(np.flatnonzero(keep))
        grads, grad_norms = grads[keep], grad_norms[keep]
        safe_norms = np.where(grad_norms > 0, grad_norms, 1.0)
        velocities[rows] = (
            WARMUP_MOMENTUM * velocities[rows] - TRUST_RADIUS * grads / safe_norms[:, None]
        )
        deltas[rows] = deltas[rows] + velocities[rows]
    return best


def _refine_on_support(
    config: FaultSneakingConfig, stacked: StackedAttackObjective, deltas: np.ndarray
) -> np.ndarray:
    """Extra normalised δ-steps restricted to each lane's support of ``δ``.

    No new parameters are modified, so the ℓ0 norm cannot increase; the
    values on the support are nudged to repair any still-violated
    constraint.  A lane drops out of the stack once its hinge reaches zero
    or its gradient on the support vanishes.  Per lane, the candidate with
    the best constraint satisfaction (ties broken by smaller ℓ2 norm) is
    returned.
    """
    supports = np.abs(deltas) > ZERO_TOLERANCE
    best = deltas.copy()
    rows = np.flatnonzero(supports.any(axis=1))
    if not rows.size:
        return best
    sub = stacked.subset(rows)
    best_keys = dict(zip(rows, _candidate_keys(sub, deltas[rows])))
    current = deltas.copy()
    for _ in range(config.refine_support_steps):
        values, grads = sub.value_and_gradient(current[rows])
        grads = np.where(supports[rows], grads, 0.0)
        grad_norms = row_norms(grads)
        keep = ~(values <= 0.0) & ~(grad_norms <= 0.0)
        rows = rows[keep]
        if not rows.size:
            break
        sub = sub.subset(np.flatnonzero(keep))
        grads, grad_norms = grads[keep], grad_norms[keep]
        safe_norms = np.where(grad_norms > 0, grad_norms, 1.0)
        stepped = current[rows] - TRUST_RADIUS * grads / safe_norms[:, None]
        current[rows] = np.where(supports[rows], stepped, 0.0)
        for lane, key in zip(rows, _candidate_keys(sub, current[rows])):
            if key > best_keys[lane]:
                best_keys[lane] = key
                best[lane] = current[lane].copy()
    return best


def _candidate_keys(
    stacked: StackedAttackObjective, deltas: np.ndarray
) -> list[tuple[float, float]]:
    """Per-lane ranking keys: constraint satisfaction first, then smaller ℓ2 norm."""
    _, successes, keeps = stacked.evaluate_candidates(deltas)
    return [
        (
            satisfaction(objective, float(successes[lane]), float(keeps[lane])),
            -float(np.linalg.norm(deltas[lane])),
        )
        for lane, objective in enumerate(stacked.objectives)
    ]
