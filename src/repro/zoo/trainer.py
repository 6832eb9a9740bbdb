"""Mini-batch trainer for the substrate networks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam, Optimizer, RMSProp
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

__all__ = ["TrainingConfig", "TrainingHistory", "Trainer"]

_LOGGER = get_logger("zoo.trainer")

_OPTIMIZERS = {"sgd": SGD, "adam": Adam, "rmsprop": RMSProp}


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for :class:`Trainer`.

    Parameters
    ----------
    epochs:
        Number of passes over the training set.
    batch_size:
        Mini-batch size.
    optimizer:
        One of ``"sgd"``, ``"adam"``, ``"rmsprop"``.
    learning_rate, momentum, weight_decay:
        Optimizer hyper-parameters (momentum only applies to SGD).
    lr_decay:
        Multiplicative learning-rate decay applied after every epoch.
    shuffle_seed:
        Seed for the per-epoch shuffling of the training data.
    early_stopping_patience:
        Stop if validation accuracy has not improved for this many epochs
        (0 disables early stopping).
    """

    epochs: int = 10
    batch_size: int = 64
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_decay: float = 1.0
    shuffle_seed: int = 0
    early_stopping_patience: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigurationError(
                f"unknown optimizer {self.optimizer!r}; expected one of {sorted(_OPTIMIZERS)}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigurationError("lr_decay must be in (0, 1]")
        if self.early_stopping_patience < 0:
            raise ConfigurationError("early_stopping_patience must be non-negative")

    def to_dict(self) -> dict:
        """Return a plain-dict form (used for cache keys)."""
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "optimizer": self.optimizer,
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "lr_decay": self.lr_decay,
            "shuffle_seed": self.shuffle_seed,
            "early_stopping_patience": self.early_stopping_patience,
        }


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracy[-1] if self.train_accuracy else float("nan")

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracy[-1] if self.val_accuracy else float("nan")


class Trainer:
    """Trains a :class:`Sequential` model on a :class:`Dataset`.

    Parameters
    ----------
    config:
        Training hyper-parameters.
    loss:
        Loss instance; defaults to softmax cross-entropy on logits.
    """

    def __init__(self, config: TrainingConfig | None = None, *, loss: Loss | None = None):
        self.config = config or TrainingConfig()
        self.loss = loss or CrossEntropyLoss()

    def _make_optimizer(self) -> Optimizer:
        cfg = self.config
        if cfg.optimizer == "sgd":
            return SGD(cfg.learning_rate, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
        cls = _OPTIMIZERS[cfg.optimizer]
        return cls(cfg.learning_rate, weight_decay=cfg.weight_decay)

    def fit(
        self,
        model: Sequential,
        train: Dataset,
        *,
        validation: Dataset | None = None,
    ) -> TrainingHistory:
        """Train ``model`` in place and return the training history."""
        cfg = self.config
        optimizer = self._make_optimizer().register(model)
        history = TrainingHistory()
        rng = RandomState(cfg.shuffle_seed)
        best_val = -np.inf
        epochs_since_best = 0
        logits_end = model.logits_end

        for epoch in range(cfg.epochs):
            epoch_losses: list[float] = []
            correct = 0
            seen = 0
            epoch_seed = int(rng.integers(0, 2**31 - 1))
            for images, labels in train.batches(cfg.batch_size, shuffle=True, seed=epoch_seed):
                logits = model.forward_between(images, 0, logits_end, training=True)
                batch_loss = self.loss.value(logits, labels)
                grad = self.loss.gradient(logits, labels)
                model.backward_between(grad, 0, logits_end)
                optimizer.step()

                epoch_losses.append(batch_loss)
                correct += int(np.sum(np.argmax(logits, axis=1) == labels))
                seen += labels.shape[0]

            optimizer.learning_rate *= cfg.lr_decay
            history.train_loss.append(float(np.mean(epoch_losses)))
            history.train_accuracy.append(correct / max(seen, 1))

            if validation is not None:
                val_acc = model.evaluate(validation.images, validation.labels)
                history.val_accuracy.append(val_acc)
                _LOGGER.info(
                    "epoch %d/%d loss=%.4f train_acc=%.3f val_acc=%.3f",
                    epoch + 1,
                    cfg.epochs,
                    history.train_loss[-1],
                    history.train_accuracy[-1],
                    val_acc,
                )
                if cfg.early_stopping_patience:
                    if val_acc > best_val + 1e-6:
                        best_val = val_acc
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
                        if epochs_since_best >= cfg.early_stopping_patience:
                            history.stopped_early = True
                            break
            else:
                _LOGGER.info(
                    "epoch %d/%d loss=%.4f train_acc=%.3f",
                    epoch + 1,
                    cfg.epochs,
                    history.train_loss[-1],
                    history.train_accuracy[-1],
                )
        return history
