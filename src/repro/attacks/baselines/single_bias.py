"""Single Bias Attack (SBA) baseline from Liu et al., ICCAD 2017.

SBA misclassifies one input by increasing a *single bias* of the output
(classification) layer: raising the bias of class ``t`` raises the logit of
``t`` for *every* input, so the smallest increase that makes ``t`` win for the
attacked input is applied.  Liu et al. additionally "profile the sink class",
i.e. choose the target class whose bias increase does the least collateral
damage to overall accuracy; :meth:`SingleBiasAttack.profile_sink_class`
implements that heuristic against a reference set.

The paper under reproduction uses SBA to make two points (§5.1, §5.4):

* a bias-only modification is extremely cheap (ℓ0 = 1) but cannot express
  more than one or two simultaneous misclassification constraints, and
* because the bias shift is global, SBA loses noticeably more test accuracy
  than the fault sneaking attack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.nn.model import Sequential
from repro.utils.errors import ConfigurationError

__all__ = ["SingleBiasAttackConfig", "SingleBiasResult", "SingleBiasAttack"]


@dataclass(frozen=True)
class SingleBiasAttackConfig:
    """Configuration of the SBA baseline.

    Parameters
    ----------
    layer:
        Name of the classification layer whose bias is modified.
    margin:
        Extra logit margin added on top of the minimum bias increase, so the
        target class wins strictly.
    """

    layer: str = "fc_logits"
    margin: float = 0.1

    def __post_init__(self):
        if self.margin < 0:
            raise ConfigurationError(f"margin must be non-negative, got {self.margin}")


@dataclass
class SingleBiasResult:
    """Outcome of a single-bias attack."""

    delta: np.ndarray
    view: ParameterView
    target_class: int
    bias_increase: float
    success: bool

    @property
    def l0_norm(self) -> int:
        """Number of modified parameters (1 when the attack needed any change)."""
        return int(np.count_nonzero(self.delta))

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.delta))

    def modified_model(self) -> Sequential:
        """Return a copy of the victim model with the bias modification applied."""
        model = self.view.model.copy()
        other = ParameterView(model, self.view.selector)
        other.scatter(other.gather() + self.delta)
        return model


class SingleBiasAttack:
    """Single Bias Attack: raise one output-layer bias to flip one image."""

    def __init__(self, model: Sequential, config: SingleBiasAttackConfig | None = None):
        self.model = model
        self.config = config or SingleBiasAttackConfig()
        layer = model.get_layer(self.config.layer)
        if "b" not in layer.params:
            raise ConfigurationError(
                f"layer {self.config.layer!r} has no bias parameter; SBA requires one"
            )

    def _view(self) -> ParameterView:
        selector = ParameterSelector(
            layers=(self.config.layer,), include_weights=False, include_biases=True
        )
        return ParameterView(self.model, selector)

    def required_bias_increase(self, image: np.ndarray, target_class: int) -> float:
        """Minimum increase of bias ``target_class`` that flips ``image`` to it."""
        logits = self.model.logits(image[None])[0]
        if not 0 <= target_class < logits.shape[0]:
            raise ConfigurationError(
                f"target_class must be in [0, {logits.shape[0] - 1}], got {target_class}"
            )
        others = np.delete(logits, target_class)
        gap = float(others.max() - logits[target_class])
        return max(gap, 0.0) + self.config.margin

    def attack(self, image: np.ndarray, target_class: int) -> SingleBiasResult:
        """Misclassify a single image into ``target_class`` via one bias change."""
        view = self._view()
        increase = self.required_bias_increase(image, target_class)
        delta = np.zeros(view.size)
        delta[target_class] = increase

        with view.applied(delta):
            prediction = int(self.model.predict(image[None])[0])
        success = prediction == target_class
        return SingleBiasResult(
            delta=delta,
            view=view,
            target_class=int(target_class),
            bias_increase=increase,
            success=success,
        )

    def profile_sink_class(
        self, image: np.ndarray, reference_images: np.ndarray, reference_labels: np.ndarray
    ) -> int:
        """Choose the target ("sink") class that damages reference accuracy least.

        For every candidate class the minimum bias increase flipping ``image``
        is computed and the resulting accuracy on the reference set is
        measured; the class with the highest post-attack accuracy wins.
        """
        current = int(self.model.predict(image[None])[0])
        view = self._view()
        best_class = -1
        best_accuracy = -1.0
        for candidate in range(self.model.num_classes):
            if candidate == current:
                continue
            delta = np.zeros(view.size)
            delta[candidate] = self.required_bias_increase(image, candidate)
            with view.applied(delta):
                accuracy = self.model.evaluate(reference_images, reference_labels)
            if accuracy > best_accuracy:
                best_accuracy = accuracy
                best_class = candidate
        return best_class
