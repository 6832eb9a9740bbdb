"""The misclassification objective ``G(θ + δ, X, T, L)`` of the paper (§3.2).

For every anchor image ``x_i`` the objective contributes

    g_i(θ + δ) = c_i · max( max_{j ≠ d_i} Z(θ+δ, x_i)_j − Z(θ+δ, x_i)_{d_i}, 0 )

where ``d_i`` is the image's *desired* label: the adversarial target ``t_i``
for the first ``S`` images (eq. (5)) and the original label ``l_i`` for the
remaining ``R − S`` "keep" images (eq. (6)).  ``G`` is the sum over all
``R`` images.

:class:`AttackObjective` evaluates ``G`` and its gradient with respect to the
flat attacked-parameter vector ``δ`` exposed by a
:class:`~repro.attacks.parameter_view.ParameterView`.  When every attacked
parameter lives at or above some layer ``k`` (the common case: the last FC
layer), the activations feeding layer ``k`` are independent of ``δ``; they are
computed once and cached so that each ADMM iteration only runs the network
suffix.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.parameter_view import ParameterView, StackedParameterView
from repro.utils.errors import ConfigurationError, ShapeError
from repro.utils.validation import check_array

__all__ = ["AttackObjective", "StackedAttackObjective"]


class AttackObjective:
    """Evaluates the paper's misclassification objective and its gradient.

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
    weights:
        Per-image weights ``c_i``; scalar or length-``R`` vector.  Defaults to 1.
    kappa:
        Confidence margin added inside the hinge (0 in the paper).  Either a
        scalar applied to every image or a length-``R`` vector; a positive
        margin on the target images makes the solution robust to the final
        sparsification step.
    use_feature_cache:
        Cache activations below the first attacked layer (exact, not an
        approximation); disable only for diagnostics.
    """

    def __init__(
        self,
        view: ParameterView,
        images: np.ndarray,
        desired_labels: np.ndarray,
        *,
        num_targets: int | None = None,
        weights: float | np.ndarray = 1.0,
        kappa: float | np.ndarray = 0.0,
        use_feature_cache: bool = True,
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

        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim == 0:
            weights = np.full(self.num_images, float(weights))
        self.weights = check_array(weights, name="weights", ndim=1)
        if self.weights.shape[0] != self.num_images:
            raise ShapeError(
                f"weights must have length {self.num_images}, got {self.weights.shape[0]}"
            )
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")

        self.use_feature_cache = bool(use_feature_cache)
        self._start_layer = view.first_layer_index if use_feature_cache else 0
        self._logits_end = self.model.logits_end
        # The cache holds the activations entering the first attacked layer.
        # They depend only on parameters *below* that layer, which the attack
        # never touches, so computing them once at θ is exact.
        self._cached_features = (
            self.model.forward_between(self.images, 0, self._start_layer)
            if use_feature_cache
            else None
        )
        self.num_classes = int(self.logits(np.zeros(view.size)).shape[1])
        self._check_labels()

    # -- label handling -----------------------------------------------------------
    def _check_labels(self) -> None:
        if self.desired_labels.min() < 0 or self.desired_labels.max() >= self.num_classes:
            raise ValueError(
                f"desired labels must lie in [0, {self.num_classes - 1}], got range "
                f"[{self.desired_labels.min()}, {self.desired_labels.max()}]"
            )

    @property
    def target_slice(self) -> slice:
        """Indices of the ``S`` images that must be misclassified."""
        return slice(0, self.num_targets)

    @property
    def keep_slice(self) -> slice:
        """Indices of the ``R − S`` images whose labels must not change."""
        return slice(self.num_targets, self.num_images)

    # -- forward ------------------------------------------------------------------
    def logits(self, delta: np.ndarray) -> np.ndarray:
        """Return ``Z(θ + δ, x_i)`` for every anchor image."""
        with self.view.applied(delta):
            if self._cached_features is not None:
                return self.model.forward_between(
                    self._cached_features, self._start_layer, self._logits_end
                )
            return self.model.forward_between(self.images, 0, self._logits_end)

    def margins(self, delta: np.ndarray) -> np.ndarray:
        """Return the raw hinge margins ``max_{j≠d} Z_j − Z_d`` (no clamp, no weight)."""
        logits = self.logits(delta)
        return self._margins_from_logits(logits)

    def _margins_from_logits(self, logits: np.ndarray) -> np.ndarray:
        rows = np.arange(self.num_images)
        desired_logit = logits[rows, self.desired_labels]
        masked = logits.copy()
        masked[rows, self.desired_labels] = -np.inf
        return masked.max(axis=1) - desired_logit

    def per_image_values(self, delta: np.ndarray) -> np.ndarray:
        """Return ``c_i · max(margin_i + kappa, 0)`` for every image."""
        margins = self.margins(delta)
        return self.weights * np.maximum(margins + self.kappa, 0.0)

    def value(self, delta: np.ndarray) -> float:
        """Return ``G(θ + δ)`` — the sum of the per-image hinge terms."""
        return float(self.per_image_values(delta).sum())

    # -- gradient -----------------------------------------------------------------
    def gradient(self, delta: np.ndarray) -> np.ndarray:
        """Return ``∇_δ G(θ + δ)`` as a flat vector aligned with the view.

        The hinge is piecewise linear in the logits: for an image whose hinge
        is active, the gradient w.r.t. the logits puts ``+c_i`` on the best
        non-desired class and ``−c_i`` on the desired class; inactive images
        contribute nothing.  That logit gradient is then backpropagated
        through the attacked network suffix and the selected parameter
        gradients are gathered.
        """
        value, grad = self.value_and_gradient(delta)
        del value
        return grad

    def value_and_gradient(self, delta: np.ndarray) -> tuple[float, np.ndarray]:
        """Return ``(G, ∇_δ G)`` sharing one forward pass."""
        with self.view.applied(delta):
            if self._cached_features is not None:
                logits = self.model.forward_between(
                    self._cached_features, self._start_layer, self._logits_end
                )
            else:
                logits = self.model.forward_between(self.images, 0, self._logits_end)

            margins = self._margins_from_logits(logits)
            hinge = np.maximum(margins + self.kappa, 0.0)
            value = float((self.weights * hinge).sum())

            rows = np.arange(self.num_images)
            masked = logits.copy()
            masked[rows, self.desired_labels] = -np.inf
            best_other = masked.argmax(axis=1)
            active = (margins + self.kappa) > 0

            grad_logits = np.zeros_like(logits)
            active_rows = rows[active]
            grad_logits[active_rows, best_other[active]] += self.weights[active]
            grad_logits[active_rows, self.desired_labels[active]] -= self.weights[active]

            self.model.zero_grads()
            self.model.backward_between(grad_logits, self._start_layer, self._logits_end)
            grad = self.view.gather_grads()
        return value, grad

    # -- bookkeeping ----------------------------------------------------------------
    def predictions(self, delta: np.ndarray) -> np.ndarray:
        """Return the predicted labels of every anchor image under ``θ + δ``."""
        return np.argmax(self.logits(delta), axis=1)

    def success_mask(self, delta: np.ndarray) -> np.ndarray:
        """Boolean mask over the ``S`` target images: classified as their target."""
        preds = self.predictions(delta)
        return preds[self.target_slice] == self.desired_labels[self.target_slice]

    def keep_mask(self, delta: np.ndarray) -> np.ndarray:
        """Boolean mask over the keep images: classification unchanged."""
        preds = self.predictions(delta)
        return preds[self.keep_slice] == self.desired_labels[self.keep_slice]

    def success_rate(self, delta: np.ndarray) -> float:
        """Fraction of the ``S`` target images classified as their target."""
        mask = self.success_mask(delta)
        return float(mask.mean()) if mask.size else 1.0

    def keep_rate(self, delta: np.ndarray) -> float:
        """Fraction of the ``R − S`` keep images whose classification is unchanged."""
        mask = self.keep_mask(delta)
        return float(mask.mean()) if mask.size else 1.0


class StackedAttackObjective:
    """Evaluate several :class:`AttackObjective` instances in one stacked pass.

    The objectives must share one :class:`ParameterView` (same model, same
    selector) and one anchor count ``R``; targets, weights, kappa and the
    anchor images themselves may differ per lane.  One stacked forward and
    backward computes per-lane values and gradients that are bit-identical
    to running the scalar objectives one by one, because every lane slice of
    the stacked kernels is the exact scalar computation (see
    :mod:`repro.nn.layers`).
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
            if obj._start_layer != first._start_layer:
                raise ConfigurationError(
                    "stacked objectives must share the feature-cache start layer"
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
        self.weights = np.stack([obj.weights for obj in objectives])
        self.kappa = np.stack([obj.kappa for obj in objectives])
        self._start_layer = first._start_layer
        self._logits_end = first._logits_end
        # Index grids that, with ``desired_labels``, address each image's
        # desired class column in a (lanes, R, classes) logit stack.
        self._lane_idx = np.arange(self.lanes)[:, None]
        self._row_idx = np.arange(self.num_images)[None, :]
        # Per-lane feature caches were computed by the scalar objectives at θ,
        # so stacking them preserves scalar bits by construction.  Without a
        # cache the raw anchor images flow through the full stacked model.
        self._stacked_features = np.stack(
            [
                obj._cached_features if obj._cached_features is not None else obj.images
                for obj in objectives
            ]
        )

    @property
    def size(self) -> int:
        return self.view.size

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

    def gradient(self, deltas: np.ndarray) -> np.ndarray:
        """Return per-lane gradients ``(lanes, size)``."""
        values, grads = self.value_and_gradient(deltas)
        del values
        return grads

    def value_and_gradient(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return per-lane ``(G, ∇_δ G)`` sharing one stacked forward pass."""
        with self.stacked_view.applied(deltas):
            logits = self.model.forward_between(
                self._stacked_features, self._start_layer, self._logits_end
            )
            masked, margins = self._masked_and_margins(logits)
            hinge = np.maximum(margins + self.kappa, 0.0)
            values = (self.weights * hinge).sum(axis=1)

            best_other = masked.argmax(axis=-1)
            active = (margins + self.kappa) > 0

            # The masked argmax never coincides with the desired column, so
            # writing the active weight at best_other and subtracting it at
            # the desired column reproduces the one-objective ±c_i gradient.
            grad_logits = np.zeros_like(logits)
            active_weight = np.where(active, self.weights, 0.0)
            grad_logits[self._lane_idx, self._row_idx, best_other] = active_weight
            grad_logits[self._lane_idx, self._row_idx, self.desired_labels] -= active_weight

            self.model.zero_grads()
            self.model.backward_between(grad_logits, self._start_layer, self._logits_end)
            grads = self.stacked_view.gather_grads()
        return values, grads

    # -- bookkeeping ----------------------------------------------------------------
    def evaluate_candidates(
        self, deltas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-lane ``(G, success_rate, keep_rate)`` from one stacked forward.

        All three describe the same iterate, which is what the solver's
        history and best-candidate tracking need.
        """
        logits = self.logits(deltas)
        margins = self._masked_and_margins(logits)[1]
        values = (self.weights * np.maximum(margins + self.kappa, 0.0)).sum(axis=1)
        preds = np.argmax(logits, axis=-1)
        correct = preds == self.desired_labels
        success = np.empty(self.lanes, dtype=np.float64)
        keep = np.empty(self.lanes, dtype=np.float64)
        for lane in range(self.lanes):
            s = int(self.num_targets[lane])
            success_mask = correct[lane, :s]
            keep_mask = correct[lane, s:]
            success[lane] = float(success_mask.mean()) if success_mask.size else 1.0
            keep[lane] = float(keep_mask.mean()) if keep_mask.size else 1.0
        return values, success, keep
