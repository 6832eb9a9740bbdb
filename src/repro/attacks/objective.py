"""The misclassification objective ``G(θ + δ, X, T, L)`` of the paper (§3.2).

For every anchor image ``x_i`` the objective contributes

    g_i(θ + δ) = c_i · max( max_{j ≠ d_i} Z(θ+δ, x_i)_j − Z(θ+δ, x_i)_{d_i} + κ_i, 0 )

where ``d_i`` is the image's *desired* label: the adversarial target ``t_i``
for the first ``S`` images (eq. (5)) and the original label ``l_i`` for the
remaining ``R − S`` "keep" images (eq. (6)).  ``G`` is the sum over all
``R`` images.  Every weight is ``c_i = 1``; the attack sets the margin κ on
the target images and κ = 0 on the keep images, as in the paper.

:class:`AttackObjective` describes one lane of the problem: the anchor
images, desired labels and margins κ.
:class:`StackedAttackObjective` is the only evaluator: it computes ``G``, its
gradient with respect to the flat attacked-parameter vector ``δ`` of a
:class:`~repro.attacks.parameter_view.ParameterView`, and the success/keep
masks for a stack of lanes in one pass; one lane is a one-lane stack.  Every
attacked parameter lives at or above the view's first attacked layer ``k``,
so the activations feeding layer ``k`` are independent of ``δ``; each lane
computes them once, and every evaluation only runs the network suffix.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.attacks.parameter_view import ParameterView, StackedParameterView
from repro.utils.errors import ConfigurationError, ShapeError

__all__ = ["AttackObjective", "StackedAttackObjective", "mask_rate"]


class AttackObjective:
    """One lane of the paper's misclassification objective.

    The lane holds what :class:`StackedAttackObjective` evaluates: the
    validated images, desired labels and margins, and the cached
    activations entering the first attacked layer.

    Parameters
    ----------
    view:
        Parameter view selecting the attackable subset ``θ``.
    images:
        The ``R`` anchor images, shape ``(R, H, W, C)`` (or whatever the model
        consumes).
    desired_labels:
        Length-``R`` integer vector of desired labels: adversarial targets for
        the first ``num_targets`` entries, original labels for the rest.
    num_targets:
        ``S`` — how many leading entries of ``desired_labels`` are adversarial
        targets.  Only used for bookkeeping (success/keep masks); the
        mathematical form of every ``g_i`` is identical.
    kappa:
        Confidence margin added inside the hinge (0 in the paper).  Either a
        scalar applied to every image or a length-``R`` vector; a positive
        margin on the target images makes the solution robust to the final
        sparsification step.
    """

    def __init__(
        self,
        view: ParameterView,
        images: np.ndarray,
        desired_labels: np.ndarray,
        *,
        num_targets: int | None = None,
        kappa: float | np.ndarray = 0.0,
    ):
        self.view = view
        self.model = view.model
        self.images = np.asarray(images, dtype=np.float64)
        self.desired_labels = np.asarray(desired_labels, dtype=np.int64)
        if self.images.shape[0] != self.desired_labels.shape[0]:
            raise ShapeError(
                f"images ({self.images.shape[0]}) and desired_labels "
                f"({self.desired_labels.shape[0]}) must have the same length"
            )
        if self.images.shape[0] == 0:
            raise ConfigurationError("the objective needs at least one anchor image")
        self.num_images = int(self.images.shape[0])
        self.num_targets = self.num_images if num_targets is None else int(num_targets)
        if not 0 <= self.num_targets <= self.num_images:
            raise ConfigurationError(
                f"num_targets must be in [0, {self.num_images}], got {self.num_targets}"
            )
        kappa = np.asarray(kappa, dtype=np.float64)
        if kappa.ndim == 0:
            kappa = np.full(self.num_images, float(kappa))
        if kappa.shape != (self.num_images,):
            raise ShapeError(
                f"kappa must be a scalar or a length-{self.num_images} vector, "
                f"got shape {kappa.shape}"
            )
        if np.any(kappa < 0):
            raise ConfigurationError("kappa must be non-negative")
        self.kappa = kappa

        self.start_layer = view.first_layer_index
        # The cache holds the activations entering the first attacked layer.
        # They depend only on parameters *below* that layer, which the attack
        # never touches, so computing them once at θ is exact.
        self.features = self.model.forward_between(self.images, 0, self.start_layer)
        self.num_classes = self.model.num_classes
        if self.desired_labels.min() < 0 or self.desired_labels.max() >= self.num_classes:
            raise ConfigurationError(
                f"desired labels must lie in [0, {self.num_classes - 1}], got range "
                f"[{self.desired_labels.min()}, {self.desired_labels.max()}]"
            )

    def value_and_gradient(self, delta: np.ndarray) -> tuple[float, np.ndarray]:
        """Return ``(G, ∇_δ G)`` at ``θ + δ`` as a one-lane stacked evaluation."""
        values, grads = StackedAttackObjective([self]).value_and_gradient(
            np.asarray(delta, dtype=np.float64)[None]
        )
        return float(values[0]), grads[0]


class StackedAttackObjective:
    """Evaluate several :class:`AttackObjective` lanes in one stacked pass.

    This is the only code that computes the objective: values, gradients
    and success/keep masks.  The lanes must share one
    :class:`ParameterView` (same model, same selector) and one anchor count
    ``R``; targets, kappa and the anchor images themselves may
    differ per lane.  Every lane slice of the stacked kernels is the exact
    one-lane computation (see :mod:`repro.nn.layers`), so a lane's results
    do not depend on the lanes stacked beside it.
    """

    def __init__(self, objectives: list[AttackObjective]):
        if not objectives:
            raise ConfigurationError("need at least one objective to stack")
        first = objectives[0]
        for obj in objectives[1:]:
            if obj.view is not first.view:
                raise ConfigurationError(
                    "stacked objectives must share one ParameterView instance"
                )
            if obj.num_images != first.num_images:
                raise ConfigurationError(
                    f"stacked objectives must share the anchor count, got "
                    f"{obj.num_images} != {first.num_images}"
                )
        self.objectives = list(objectives)
        self.lanes = len(objectives)
        self.view = first.view
        self.model = first.model
        self.stacked_view = StackedParameterView(first.view, self.lanes)
        self.num_images = first.num_images
        self.num_classes = first.num_classes
        self.num_targets = np.array([obj.num_targets for obj in objectives], dtype=np.int64)
        self.desired_labels = np.stack([obj.desired_labels for obj in objectives])
        self.kappa = np.stack([obj.kappa for obj in objectives])
        self._start_layer = first.start_layer
        self._logits_end = self.model.logits_end
        # Index grids that, with ``desired_labels``, address each image's
        # desired class column in a (lanes, R, classes) logit stack.
        self._lane_idx = np.arange(self.lanes)[:, None]
        self._row_idx = np.arange(self.num_images)[None, :]
        self._stacked_features = np.stack([obj.features for obj in objectives])

    @property
    def size(self) -> int:
        return self.view.size

    def subset(self, lanes: np.ndarray) -> StackedAttackObjective:
        """Return the sub-stack of the given (ascending) lane indices.

        The per-lane arrays are sliced from this stack rather than stacked
        again from the lanes.  This is how every solve phase drops its
        finished lanes: they leave the stack and cost nothing in later
        passes.  Selecting every lane returns this stack itself.
        """
        if np.array_equal(lanes, np.arange(self.lanes)):
            return self
        sub = copy.copy(self)
        sub.objectives = [self.objectives[lane] for lane in lanes]
        sub.lanes = len(sub.objectives)
        sub.stacked_view = StackedParameterView(self.view, sub.lanes)
        for name in ("num_targets", "desired_labels", "kappa", "_stacked_features"):
            setattr(sub, name, getattr(self, name)[lanes])
        sub._lane_idx = np.arange(sub.lanes)[:, None]
        return sub

    # -- forward ------------------------------------------------------------------
    def logits(self, deltas: np.ndarray) -> np.ndarray:
        """Return stacked logits of shape ``(lanes, R, num_classes)``."""
        with self.stacked_view.applied(deltas):
            return self.model.forward_between(
                self._stacked_features, self._start_layer, self._logits_end
            )

    def _masked_and_margins(self, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return the logits with each desired column set to ``-inf``, and the
        raw hinge margins ``max_{j≠d} Z_j − Z_d``."""
        desired = (self._lane_idx, self._row_idx, self.desired_labels)
        masked = logits.copy()
        masked[desired] = -np.inf
        return masked, masked.max(axis=-1) - logits[desired]

    def value_and_gradient(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return per-lane ``(G, ∇_δ G)`` sharing one stacked forward pass.

        The hinge is piecewise linear in the logits: for an image whose hinge
        is active, the gradient w.r.t. the logits puts ``+1`` on the best
        non-desired class and ``−1`` on the desired class; inactive images
        contribute nothing.  That logit gradient is backpropagated through
        the attacked network suffix and the selected parameter gradients are
        gathered.
        """
        with self.stacked_view.applied(deltas):
            logits = self.model.forward_between(
                self._stacked_features, self._start_layer, self._logits_end
            )
            masked, margins = self._masked_and_margins(logits)
            hinge = np.maximum(margins + self.kappa, 0.0)
            values = hinge.sum(axis=1)

            best_other = masked.argmax(axis=-1)
            active = (margins + self.kappa) > 0

            # The masked argmax never coincides with the desired column, so
            # writing 1 at best_other and subtracting it at the desired
            # column gives each active image its ±1.
            grad_logits = np.zeros_like(logits)
            active_unit = active.astype(np.float64)
            grad_logits[self._lane_idx, self._row_idx, best_other] = active_unit
            grad_logits[self._lane_idx, self._row_idx, self.desired_labels] -= active_unit

            self.model.backward_between(grad_logits, self._start_layer, self._logits_end)
            grads = self.stacked_view.gather_grads()
        return values, grads

    # -- bookkeeping ----------------------------------------------------------------
    def masks(self, deltas: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-lane ``(success_mask, keep_mask)`` from one stacked forward.

        The success mask covers the lane's ``S`` target images (classified
        as their target), the keep mask its ``R − S`` keep images
        (classification unchanged).
        """
        return self._split_masks(self.logits(deltas))

    def _split_masks(self, logits: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        correct = np.argmax(logits, axis=-1) == self.desired_labels
        return [(correct[lane, :s], correct[lane, s:]) for lane, s in enumerate(self.num_targets)]

    def evaluate_candidates(
        self, deltas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-lane ``(G, success_rate, keep_rate)`` from one stacked forward.

        All three describe the same iterate, which is what the solver's
        history and best-candidate tracking need.
        """
        logits = self.logits(deltas)
        margins = self._masked_and_margins(logits)[1]
        values = np.maximum(margins + self.kappa, 0.0).sum(axis=1)
        masks = self._split_masks(logits)
        success = np.array([mask_rate(success) for success, _ in masks])
        keep = np.array([mask_rate(keep) for _, keep in masks])
        return values, success, keep


def mask_rate(mask: np.ndarray) -> float:
    """Fraction of ``True`` entries; an empty mask is fully satisfied."""
    return float(mask.mean()) if mask.size else 1.0
