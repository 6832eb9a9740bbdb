"""Post-attack evaluation.

The paper reports three kinds of numbers for every attack configuration:

* the size of the parameter modification (ℓ0 / ℓ2 norms, Tables 1–3),
* the attack success rate over the ``S`` target images and the keep rate over
  the ``R − S`` pinned images (Table 2, Figure 3),
* the test accuracy of the modified model on the full held-out test set
  (Table 4), compared against the clean model's accuracy.

:func:`evaluate_attack_results` computes all of them for
:class:`~repro.attacks.fault_sneaking.FaultSneakingResult` objects (or any
result object exposing the same small interface) against a test dataset;
:func:`evaluate_attack_result` is its one-result case.  An
:class:`EvaluationContext` holds the clean model's share of that work so a
sweep computes it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attacks.fault_sneaking import ZERO_TOLERANCE, count_modified_parameters
from repro.attacks.objective import mask_rate
from repro.data.dataset import Dataset
from repro.nn.metrics import accuracy as _accuracy
from repro.nn.model import Sequential

__all__ = [
    "ZERO_TOLERANCE",
    "AttackEvaluation",
    "EvaluationContext",
    "count_modified_parameters",
    "evaluate_attack_result",
    "evaluate_attack_results",
]


@dataclass(frozen=True)
class AttackEvaluation:
    """All headline metrics of one attack instance."""

    num_targets: int
    num_images: int
    l0_norm: int
    l2_norm: float
    linf_norm: float
    success_rate: float
    num_successful_faults: int
    keep_rate: float
    clean_test_accuracy: float
    attacked_test_accuracy: float

    @property
    def accuracy_drop(self) -> float:
        """Absolute test-accuracy degradation caused by the modification."""
        return self.clean_test_accuracy - self.attacked_test_accuracy

    @property
    def accuracy_drop_percent(self) -> float:
        """Accuracy degradation in percentage points (the unit used in §5.4)."""
        return 100.0 * self.accuracy_drop

    def as_dict(self) -> dict:
        """Plain-dict form used by the reporting and experiment modules."""
        return {
            "S": self.num_targets,
            "R": self.num_images,
            "l0": self.l0_norm,
            "l2": self.l2_norm,
            "linf": self.linf_norm,
            "success_rate": self.success_rate,
            "successful_faults": self.num_successful_faults,
            "keep_rate": self.keep_rate,
            "clean_accuracy": self.clean_test_accuracy,
            "attacked_accuracy": self.attacked_test_accuracy,
            "accuracy_drop_percent": self.accuracy_drop_percent,
        }


class EvaluationContext:
    """The clean victim's share of scoring attacks on one test set.

    Every attack on a victim is scored on the same test set, and the layers
    below its first attacked layer run unmodified copies of the clean
    weights.  The context does that work once: it computes the clean accuracy
    and, per first attacked layer ``start``, the activations entering layer
    ``start`` for each ``batch_size``-row mini-batch of the test set.  Both
    are built on first use and kept.  Scoring an attack then runs only the
    suffix layers under the attacked weights.

    The cached numbers describe ``model`` as it was when they were computed,
    so its parameters must not change while the context is in use; attacks
    restore the victim after every solve.
    """

    def __init__(
        self,
        model: Sequential,
        test_set: Dataset,
        *,
        batch_size: int = 256,
        clean_accuracy: float | None = None,
    ):
        self.model = model
        self.test_set = test_set
        self.batch_size = int(batch_size)
        self._clean_accuracy = clean_accuracy
        self._prefixes: dict[int, tuple[np.ndarray, ...]] = {}

    @property
    def clean_accuracy(self) -> float:
        """Accuracy of the clean model on the test set."""
        if self._clean_accuracy is None:
            self._clean_accuracy = self.model.evaluate(
                self.test_set.images, self.test_set.labels, batch_size=self.batch_size
            )
        return self._clean_accuracy

    def prefix_batches(self, start: int) -> tuple[np.ndarray, ...]:
        """Clean activations entering layer ``start``, one per mini-batch."""
        if start not in self._prefixes:
            images = self.test_set.images
            self._prefixes[start] = tuple(
                self.model.forward_between(images[i : i + self.batch_size], 0, start)
                for i in range(0, images.shape[0], self.batch_size)
            )
        return self._prefixes[start]

    def logits(self, models: Sequence[Sequential], start: int) -> list[np.ndarray]:
        """Test-set logits of each model, running only its layers from ``start``.

        Every model's layers below ``start`` must equal the clean model's.
        The logits are then bit-identical to ``model.predict_logits`` on the
        test set, which runs the same layers on the same mini-batches.
        """
        chunks: list[list[np.ndarray]] = [[] for _ in models]
        for prefix in self.prefix_batches(start):
            for model, logits in zip(models, chunks):
                logits.append(model.forward_between(prefix, start, model.logits_end))
        return [np.concatenate(logits, axis=0) for logits in chunks]

    def accuracies(self, models: Sequence[Sequential], start: int) -> list[float]:
        """Test accuracy of each model, running only its layers from ``start``
        (bit-identical to ``model.evaluate``, see :meth:`logits`)."""
        labels = self.test_set.labels
        return [_accuracy(labels, np.argmax(out, axis=1)) for out in self.logits(models, start)]


def evaluate_attack_result(
    result,
    test_set: Dataset | None = None,
    *,
    context: EvaluationContext | None = None,
    clean_model: Sequential | None = None,
    clean_accuracy: float | None = None,
    batch_size: int = 256,
) -> AttackEvaluation:
    """Evaluate one attack result against a held-out test set.

    ``result`` is any object exposing ``delta``, ``view``, ``plan`` (with
    ``num_targets`` / ``num_images``), ``success_mask``, ``keep_mask`` and
    ``modified_model()`` — both :class:`FaultSneakingResult` and
    :class:`GradientDescentResult` qualify.  This is the one-result case of
    :func:`evaluate_attack_results` and takes the same keyword arguments;
    pass ``context`` to reuse the clean accuracy and prefix activations
    across a sweep.
    """
    return evaluate_attack_results(
        [result],
        test_set,
        context=context,
        clean_model=clean_model,
        clean_accuracy=clean_accuracy,
        batch_size=batch_size,
    )[0]


def evaluate_attack_results(
    results,
    test_set: Dataset | None = None,
    *,
    context: EvaluationContext | None = None,
    clean_model: Sequential | None = None,
    clean_accuracy: float | None = None,
    batch_size: int = 256,
) -> list[AttackEvaluation]:
    """Evaluate attacks on one victim, sharing the clean prefix forward.

    Every result must attack the same victim through parameters whose first
    layer is the same (a fused campaign group by construction).  The
    test-set activations below that layer come from an
    :class:`EvaluationContext` and only the suffix layers run per attack, so
    each attacked accuracy is bit-identical to evaluating
    ``result.modified_model()`` on the whole test set.

    Parameters
    ----------
    results:
        Attack results as described in :func:`evaluate_attack_result`.
    test_set:
        The held-out test set used for the accuracy-retention numbers.
    context:
        A context shared across calls, given instead of ``test_set``; its
        model, clean accuracy and batch size then apply.
    clean_model:
        The unmodified victim model.  Defaults to ``results[0].view.model``.
    clean_accuracy:
        A pre-computed clean accuracy; computed on the test set when omitted.

    The ℓ0 norm counts entries above
    :data:`~repro.attacks.fault_sneaking.ZERO_TOLERANCE`
    (:func:`count_modified_parameters`).
    """
    if (test_set is None) == (context is None):
        raise ValueError("pass exactly one of test_set and context")
    if not results:
        return []
    starts = {result.view.first_layer_index for result in results}
    if len(starts) != 1:
        raise ValueError(
            f"results must share one attacked-parameter selection, got "
            f"first layer indices {sorted(starts)}"
        )
    if context is None:
        context = EvaluationContext(
            clean_model if clean_model is not None else results[0].view.model,
            test_set,
            batch_size=batch_size,
            clean_accuracy=clean_accuracy,
        )
    attacked_accuracies = context.accuracies(
        [result.modified_model() for result in results], starts.pop()
    )
    return [
        _build_evaluation(
            result,
            np.asarray(result.delta),
            context.clean_accuracy,
            attacked_accuracy,
        )
        for result, attacked_accuracy in zip(results, attacked_accuracies)
    ]


def _build_evaluation(
    result,
    delta: np.ndarray,
    clean_accuracy: float,
    attacked_accuracy: float,
) -> AttackEvaluation:
    success_mask = np.asarray(result.success_mask, dtype=bool)
    keep_mask = np.asarray(result.keep_mask, dtype=bool)
    return AttackEvaluation(
        num_targets=int(result.plan.num_targets),
        num_images=int(result.plan.num_images),
        l0_norm=count_modified_parameters(delta),
        l2_norm=float(np.linalg.norm(delta)),
        linf_norm=float(np.max(np.abs(delta))) if delta.size else 0.0,
        success_rate=mask_rate(success_mask),
        num_successful_faults=int(success_mask.sum()),
        keep_rate=mask_rate(keep_mask),
        clean_test_accuracy=float(clean_accuracy),
        attacked_test_accuracy=float(attacked_accuracy),
    )
