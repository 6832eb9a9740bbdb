"""Gradient Descent Attack (GDA) baseline from Liu et al., ICCAD 2017.

GDA perturbs the attacked layer's parameters by plain gradient descent on a
misclassification loss for the attacked image(s), then applies two
post-processing passes described in [16]:

* **modification compression** — iteratively set the smallest-magnitude
  entries of the modification to zero as long as a feasibility check (the
  attacked images are still misclassified as required) passes, shrinking the
  ℓ0 norm of the modification;
* (optionally) a final feasibility check that gives up gracefully when the
  attack never succeeded.

Unlike the fault sneaking attack, GDA has no mechanism to keep the
classification of other images unchanged — this is exactly the gap the paper
quantifies in §5.4: it descends on the target images alone, and its keep
rate is reported against the full plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.objective import AttackObjective, StackedAttackObjective, mask_rate
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.attacks.targets import AttackPlan
from repro.nn.model import Sequential
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger

__all__ = ["GradientDescentAttackConfig", "GradientDescentResult", "GradientDescentAttack"]

_LOGGER = get_logger("attacks.baselines.gda")


@dataclass(frozen=True)
class GradientDescentAttackConfig:
    """Configuration of the GDA baseline.

    Parameters
    ----------
    layers:
        Layers the attack may modify (defaults to the last FC layer, as in
        the original evaluation).
    include_weights, include_biases:
        Parameter kinds the attack may modify.
    learning_rate:
        Step size of the gradient descent on the parameters.
    iterations:
        Maximum number of gradient steps.
    kappa:
        Confidence margin of the hinge loss.
    compression_rounds:
        Maximum number of modification-compression rounds; each round zeroes
        the smallest ``compression_fraction`` of the surviving entries and
        reverts if feasibility breaks.
    compression_fraction:
        Fraction of the remaining non-zero entries zeroed per round.
    """

    layers: tuple[str, ...] | None = ("fc_logits",)
    include_weights: bool = True
    include_biases: bool = True
    learning_rate: float = 0.05
    iterations: int = 200
    kappa: float = 0.2
    compression_rounds: int = 40
    compression_fraction: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.kappa < 0:
            raise ConfigurationError("kappa must be non-negative")
        if self.compression_rounds < 0:
            raise ConfigurationError("compression_rounds must be non-negative")
        if not 0.0 < self.compression_fraction <= 1.0:
            raise ConfigurationError("compression_fraction must be in (0, 1]")

    def selector(self) -> ParameterSelector:
        return ParameterSelector(
            layers=self.layers,
            include_weights=self.include_weights,
            include_biases=self.include_biases,
        )


@dataclass
class GradientDescentResult:
    """Outcome of a GDA run."""

    delta: np.ndarray
    view: ParameterView
    plan: AttackPlan
    success_mask: np.ndarray
    keep_mask: np.ndarray
    iterations_run: int
    compression_rounds_run: int
    loss_history: list[float] = field(default_factory=list)

    @property
    def l0_norm(self) -> int:
        """Exact non-zeros of ``δ``: compression zeroes dropped entries
        exactly, so no tolerance applies."""
        return int(np.count_nonzero(self.delta))

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.delta))

    @property
    def success_rate(self) -> float:
        return mask_rate(self.success_mask)

    @property
    def keep_rate(self) -> float:
        return mask_rate(self.keep_mask)

    def modified_model(self) -> Sequential:
        """Return a copy of the victim model with the modification applied."""
        model = self.view.model.copy()
        other = ParameterView(model, self.view.selector)
        other.scatter(other.gather() + self.delta)
        return model


class GradientDescentAttack:
    """GDA: parameter gradient descent plus modification compression."""

    def __init__(self, model: Sequential, config: GradientDescentAttackConfig | None = None):
        self.model = model
        self.config = config or GradientDescentAttackConfig()

    def attack(self, plan: AttackPlan) -> GradientDescentResult:
        """Run GDA for an attack plan: descend on its target images alone."""
        cfg = self.config
        view = ParameterView(self.model, cfg.selector())
        # Success / keep are always reported against the *full* plan so GDA
        # and the fault sneaking attack are measured identically.
        full = StackedAttackObjective(
            [AttackObjective(view, plan.images, plan.desired_labels, num_targets=plan.num_targets)]
        )
        objective = StackedAttackObjective(
            [AttackObjective(view, plan.target_images, plan.target_labels, kappa=cfg.kappa)]
        )

        delta, iterations_run, loss_history = self._descend(objective)
        delta, compression_rounds_run = self._compress(objective, delta)
        ((success_mask, keep_mask),) = full.masks(delta[None])
        view.restore()
        return GradientDescentResult(
            delta=delta,
            view=view,
            plan=plan,
            success_mask=success_mask,
            keep_mask=keep_mask,
            iterations_run=iterations_run,
            compression_rounds_run=compression_rounds_run,
            loss_history=loss_history,
        )

    # -- internals ------------------------------------------------------------------
    def _descend(self, objective: StackedAttackObjective) -> tuple[np.ndarray, int, list[float]]:
        cfg = self.config
        delta = np.zeros(objective.size)
        loss_history: list[float] = []
        iterations_run = 0
        for iteration in range(cfg.iterations):
            iterations_run = iteration + 1
            values, grads = objective.value_and_gradient(delta[None])
            value = float(values[0])
            loss_history.append(value)
            if value <= 0.0:
                break
            delta = delta - cfg.learning_rate * grads[0]
        return delta, iterations_run, loss_history

    def _feasible(self, objective: StackedAttackObjective, delta: np.ndarray) -> bool:
        """The feasibility check of [16]: every attacked image hits its target."""
        ((success_mask, _),) = objective.masks(delta[None])
        return bool(success_mask.all())

    def _compress(
        self, objective: StackedAttackObjective, delta: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Modification compression: zero the smallest entries while feasible."""
        cfg = self.config
        if not self._feasible(objective, delta):
            # Never feasible — nothing to compress against.
            return delta, 0
        current = delta.copy()
        rounds_run = 0
        for _ in range(cfg.compression_rounds):
            nonzero = np.flatnonzero(current)
            if nonzero.size == 0:
                break
            n_drop = max(1, int(round(nonzero.size * cfg.compression_fraction)))
            order = nonzero[np.argsort(np.abs(current[nonzero]))]
            candidate = current.copy()
            candidate[order[:n_drop]] = 0.0
            rounds_run += 1
            if self._feasible(objective, candidate):
                current = candidate
            else:
                # Try dropping a single element before giving up entirely.
                candidate = current.copy()
                candidate[order[0]] = 0.0
                if self._feasible(objective, candidate):
                    current = candidate
                else:
                    break
        _LOGGER.debug("GDA compression kept %d non-zeros", int(np.count_nonzero(current)))
        return current, rounds_run
