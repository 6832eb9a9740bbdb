"""Mini-batch trainer for the substrate networks.

Every victim trains with :class:`~repro.nn.optimizers.Adam` on the softmax
cross-entropy of its logits, for a fixed number of epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

__all__ = ["TrainingConfig", "TrainingHistory", "Trainer"]

_LOGGER = get_logger("zoo.trainer")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for :class:`Trainer`.

    Parameters
    ----------
    epochs:
        Number of passes over the training set.
    batch_size:
        Mini-batch size.
    learning_rate:
        Adam's step size.
    shuffle_seed:
        Seed for the per-epoch shuffling of the training data.
    """

    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracy[-1] if self.train_accuracy else float("nan")


class Trainer:
    """Trains a :class:`Sequential` model on a :class:`Dataset` with Adam."""

    def __init__(self, config: TrainingConfig | None = None):
        self.config = config or TrainingConfig()

    def fit(self, model: Sequential, train: Dataset) -> TrainingHistory:
        """Train ``model`` in place and return the training history."""
        cfg = self.config
        optimizer = Adam(cfg.learning_rate).register(model)
        loss = CrossEntropyLoss()
        history = TrainingHistory()
        rng = RandomState(cfg.shuffle_seed)
        logits_end = model.logits_end

        for epoch in range(cfg.epochs):
            epoch_losses: list[float] = []
            correct = 0
            seen = 0
            epoch_seed = int(rng.integers(0, 2**31 - 1))
            for images, labels in train.batches(cfg.batch_size, shuffle=True, seed=epoch_seed):
                logits = model.forward_between(images, 0, logits_end, training=True)
                batch_loss = loss.value(logits, labels)
                grad = loss.gradient(logits, labels)
                model.backward_between(grad, 0, logits_end)
                optimizer.step()

                epoch_losses.append(batch_loss)
                correct += int(np.sum(np.argmax(logits, axis=1) == labels))
                seen += labels.shape[0]

            history.train_loss.append(float(np.mean(epoch_losses)))
            history.train_accuracy.append(correct / max(seen, 1))
            _LOGGER.info(
                "epoch %d/%d loss=%.4f train_acc=%.3f",
                epoch + 1,
                cfg.epochs,
                history.train_loss[-1],
                history.train_accuracy[-1],
            )
        return history
