"""One-image-at-a-time reference of the fault sneaking attack, for tests only.

The library runs every attack as lanes of one stacked solve
(:func:`repro.attacks.fault_sneaking.run_attack_lanes`) and evaluates every
objective through :class:`~repro.attacks.objective.StackedAttackObjective`.
This module keeps the earlier per-plan implementation — a scalar objective
(its own forward, unit-weight hinge and ±1 backward), the plain ADMM loop
of §4, the dense warm start and the support refinement — unchanged, so the
bit-identity tests can pin the stacked path to an independent computation
instead of to itself.  Every entry point takes the library's
:class:`~repro.attacks.objective.AttackObjective` lane description.  The
solver's constants are written out here rather than read from the library;
a test that changes one patches both copies.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.attacks.admm import ADMMConfig, ADMMHistory, ADMMResult
from repro.attacks.fault_sneaking import (
    FaultSneakingConfig,
    FaultSneakingResult,
    build_objective,
)
from repro.attacks.objective import AttackObjective
from repro.attacks.parameter_view import ParameterView
from repro.attacks.proximal import get_proximal_operator
from repro.attacks.targets import AttackPlan
from repro.nn.model import Sequential
from repro.utils.errors import ConfigurationError

ALPHA_FLOOR = 1.0
TRUST_RADIUS = 0.05
PRIMAL_TOLERANCE = 1e-4
WARMUP_MOMENTUM = 0.9
ZERO_TOLERANCE = 1e-8


class ScalarObjective:
    """``G(θ + δ)`` of one lane, its gradient and masks, one delta at a time."""

    def __init__(self, lane: AttackObjective):
        self.lane = lane
        self.view = lane.view
        self.model = lane.model
        self.num_images = lane.num_images
        self.num_targets = lane.num_targets
        self.desired_labels = lane.desired_labels
        self.kappa = lane.kappa
        self.target_slice = slice(0, lane.num_targets)
        self.keep_slice = slice(lane.num_targets, lane.num_images)

    def logits(self, delta: np.ndarray) -> np.ndarray:
        with self.view.applied(delta):
            return self.model.forward_between(
                self.lane.features, self.lane.start_layer, self.model.logits_end
            )

    def margins_from_logits(self, logits: np.ndarray) -> np.ndarray:
        rows = np.arange(self.num_images)
        desired_logit = logits[rows, self.desired_labels]
        masked = logits.copy()
        masked[rows, self.desired_labels] = -np.inf
        return masked.max(axis=1) - desired_logit

    def value(self, delta: np.ndarray) -> float:
        margins = self.margins_from_logits(self.logits(delta))
        return float(np.maximum(margins + self.kappa, 0.0).sum())

    def gradient(self, delta: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(delta)[1]

    def value_and_gradient(self, delta: np.ndarray) -> tuple[float, np.ndarray]:
        with self.view.applied(delta):
            logits = self.model.forward_between(
                self.lane.features, self.lane.start_layer, self.model.logits_end
            )
            margins = self.margins_from_logits(logits)
            hinge = np.maximum(margins + self.kappa, 0.0)
            value = float(hinge.sum())

            rows = np.arange(self.num_images)
            masked = logits.copy()
            masked[rows, self.desired_labels] = -np.inf
            best_other = masked.argmax(axis=1)
            active = (margins + self.kappa) > 0

            grad_logits = np.zeros_like(logits)
            active_rows = rows[active]
            grad_logits[active_rows, best_other[active]] += 1.0
            grad_logits[active_rows, self.desired_labels[active]] -= 1.0

            self.model.backward_between(grad_logits, self.lane.start_layer, self.model.logits_end)
            grad = self.view.gather_grads()
        return value, grad

    def predictions(self, delta: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(delta), axis=1)

    def success_mask(self, delta: np.ndarray) -> np.ndarray:
        preds = self.predictions(delta)
        return preds[self.target_slice] == self.desired_labels[self.target_slice]

    def keep_mask(self, delta: np.ndarray) -> np.ndarray:
        preds = self.predictions(delta)
        return preds[self.keep_slice] == self.desired_labels[self.keep_slice]

    def success_rate(self, delta: np.ndarray) -> float:
        mask = self.success_mask(delta)
        return float(mask.mean()) if mask.size else 1.0

    def keep_rate(self, delta: np.ndarray) -> float:
        mask = self.keep_mask(delta)
        return float(mask.mean()) if mask.size else 1.0


def evaluate_candidate(lane: AttackObjective, delta: np.ndarray) -> tuple[float, float, float]:
    """Return ``(G(θ+δ), success_rate, keep_rate)`` from one forward pass."""
    objective = ScalarObjective(lane)
    logits = objective.logits(delta)
    margins = objective.margins_from_logits(logits)
    value = float(np.maximum(margins + objective.kappa, 0.0).sum())
    preds = np.argmax(logits, axis=1)
    success = preds[objective.target_slice] == objective.desired_labels[objective.target_slice]
    keep = preds[objective.keep_slice] == objective.desired_labels[objective.keep_slice]
    success_rate = float(success.mean()) if success.size else 1.0
    keep_rate = float(keep.mean()) if keep.size else 1.0
    return value, success_rate, keep_rate


def _measure(vector: np.ndarray, norm: str) -> float:
    if norm == "l0":
        return float(np.count_nonzero(vector))
    if norm == "l1":
        return float(np.abs(vector).sum())
    return float(np.linalg.norm(vector))


def _effective_alpha(cfg: ADMMConfig, grad: np.ndarray, num_images: int) -> float:
    if cfg.alpha is not None:
        return cfg.alpha
    grad_norm = float(np.linalg.norm(grad))
    needed_denominator = grad_norm / TRUST_RADIUS
    alpha = (needed_denominator - cfg.rho) / max(num_images, 1)
    return max(alpha, ALPHA_FLOOR)


def _satisfaction(objective: ScalarObjective, success: float, keep: float) -> float:
    num_targets = objective.num_targets
    num_keep = objective.num_images - num_targets
    total = max(objective.num_images, 1)
    return (success * num_targets + keep * num_keep) / total


def reference_solve(
    cfg: ADMMConfig,
    lane: AttackObjective,
    *,
    initial_delta: np.ndarray | None = None,
) -> ADMMResult:
    """The ADMM iterations of §4 on one objective (eqs. (10)–(22))."""
    objective = ScalarObjective(lane)
    prox = get_proximal_operator(cfg.norm)
    size = objective.view.size
    num_images = objective.num_images

    delta = (
        np.zeros(size)
        if initial_delta is None
        else np.asarray(initial_delta, dtype=np.float64).copy()
    )
    if delta.shape != (size,):
        raise ConfigurationError(
            f"initial_delta must have shape ({size},), got {delta.shape}"
        )
    z = delta.copy()
    dual = np.zeros(size)
    history = ADMMHistory()

    best_candidate = delta.copy()
    best_feasible = False
    best_score = (-1.0, np.inf)  # (constraint satisfaction, measure) — maximise then minimise
    converged = False
    iterations_run = 0

    for iteration in range(cfg.iterations):
        iterations_run = iteration + 1

        # z-step (eq. (13)): proximal operator of D at δ^k − s^k.
        z = prox(delta - dual, cfg.rho)

        # δ-step (eq. (22)): linearised update using ∇G at the previous δ.
        grad = objective.gradient(delta)
        alpha = _effective_alpha(cfg, grad, num_images)
        denominator = alpha * num_images + cfg.rho
        delta_new = (
            cfg.rho * (z + dual) + alpha * num_images * delta - grad
        ) / denominator

        # dual update (eq. (12)).
        primal_residual = float(np.linalg.norm(z - delta_new))
        dual_residual = float(cfg.rho * np.linalg.norm(delta_new - delta))
        dual = dual + z - delta_new
        delta = delta_new

        value, success, keep = evaluate_candidate(lane, z)
        satisfaction = _satisfaction(objective, success, keep)
        measure = _measure(z, cfg.norm)
        if (satisfaction, -measure) > (best_score[0], -best_score[1]):
            best_score = (satisfaction, measure)
            best_candidate = z.copy()
            best_feasible = bool(success >= 1.0 and keep >= 1.0)

        history.objective.append(value)
        history.measure.append(_measure(z, cfg.norm))
        history.primal_residual.append(primal_residual)
        history.dual_residual.append(dual_residual)
        history.success_rate.append(success)
        history.keep_rate.append(keep)

        if best_feasible and primal_residual <= PRIMAL_TOLERANCE:
            converged = True
            break

    return ADMMResult(
        delta=best_candidate,
        z=z,
        raw_delta=delta,
        dual=dual,
        history=history,
        iterations_run=iterations_run,
        converged=converged,
        feasible=best_feasible,
    )


def dense_warm_start(config: FaultSneakingConfig, lane: AttackObjective) -> np.ndarray:
    """Normalised-gradient descent with momentum on ``G(θ + δ)`` alone."""
    objective = ScalarObjective(lane)
    delta = np.zeros(objective.view.size)
    velocity = np.zeros_like(delta)
    best = delta.copy()
    best_value = np.inf
    for _ in range(config.warmup_iterations):
        value, grad = objective.value_and_gradient(delta)
        if value < best_value:
            best_value = value
            best = delta.copy()
        if value <= 0.0:
            break
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= 0.0:
            break
        velocity = WARMUP_MOMENTUM * velocity - TRUST_RADIUS * grad / grad_norm
        delta = delta + velocity
    return best


def _candidate_key(objective: ScalarObjective, delta: np.ndarray) -> tuple[float, float]:
    success = objective.success_rate(delta)
    keep = objective.keep_rate(delta)
    return (_satisfaction(objective, success, keep), -float(np.linalg.norm(delta)))


def refine_on_support(
    config: FaultSneakingConfig, lane: AttackObjective, delta: np.ndarray
) -> np.ndarray:
    """Extra normalised δ-steps restricted to the existing support of ``δ``."""
    objective = ScalarObjective(lane)
    support = np.abs(delta) > ZERO_TOLERANCE
    if not support.any():
        return delta
    best = delta.copy()
    best_key = _candidate_key(objective, best)
    current = delta.copy()
    for _ in range(config.refine_support_steps):
        value, grad = objective.value_and_gradient(current)
        if value <= 0.0:
            break
        grad[~support] = 0.0
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= 0.0:
            break
        current = current - TRUST_RADIUS * grad / grad_norm
        current[~support] = 0.0
        key = _candidate_key(objective, current)
        if key > best_key:
            best_key = key
            best = current.copy()
    return best


def reference_attack(
    model: Sequential, config: FaultSneakingConfig, plan: AttackPlan
) -> FaultSneakingResult:
    """The fault sneaking attack on one plan: warm start, ρ, ADMM, refinement."""
    view = ParameterView(model, config.selector())
    lane = build_objective(config, view, plan)
    objective = ScalarObjective(lane)
    initial_delta = dense_warm_start(config, lane) if config.warm_start else None
    rho = config.calibrated_rho(initial_delta)
    admm_config = replace(config.admm_config(), rho=rho)
    admm_result = reference_solve(admm_config, lane, initial_delta=initial_delta)

    delta = admm_result.delta
    if config.refine_support_steps:
        delta = refine_on_support(config, lane, delta)

    success_mask = objective.success_mask(delta)
    keep_mask = objective.keep_mask(delta)
    view.restore()
    return FaultSneakingResult(
        delta=delta,
        config=config,
        plan=plan,
        view=view,
        success_mask=success_mask,
        keep_mask=keep_mask,
        admm=admm_result,
    )
