"""Tests for repro.zoo.trainer."""

import numpy as np
import pytest

from repro.nn.losses import CrossEntropyLoss
from repro.nn.optimizers import Adam
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState
from repro.zoo.architectures import mlp
from repro.zoo.trainer import Trainer, TrainingConfig, TrainingHistory


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingConfig(**kwargs)


class TestTrainer:
    def test_learns_tiny_dataset(self, tiny_split):
        model = mlp(tiny_split.train.image_shape, tiny_split.num_classes, seed=0, hidden=(32, 16))
        trainer = Trainer(TrainingConfig(epochs=5, batch_size=32, learning_rate=2e-3))
        history = trainer.fit(model, tiny_split.train)
        assert history.epochs_run == 5
        assert history.final_train_accuracy > 0.8
        assert model.evaluate(tiny_split.test.images, tiny_split.test.labels) > 0.7

    def test_loss_decreases(self, tiny_split):
        model = mlp(tiny_split.train.image_shape, tiny_split.num_classes, seed=1, hidden=(32, 16))
        history = Trainer(TrainingConfig(epochs=4, batch_size=32)).fit(model, tiny_split.train)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_training_is_reproducible(self, tiny_split):
        def run():
            model = mlp(
                tiny_split.train.image_shape, tiny_split.num_classes, seed=7, hidden=(16, 8)
            )
            Trainer(TrainingConfig(epochs=2, shuffle_seed=11)).fit(model, tiny_split.train)
            return model.get_layer("fc1").params["W"].copy()

        np.testing.assert_allclose(run(), run())

    @pytest.mark.parametrize("epochs", [1, 2, 3])
    def test_runs_every_epoch(self, epochs, tiny_split):
        # Training has no early stop: the history holds one entry per epoch.
        model = mlp(tiny_split.train.image_shape, tiny_split.num_classes, seed=2, hidden=(8, 8))
        history = Trainer(TrainingConfig(epochs=epochs, batch_size=100)).fit(
            model, tiny_split.train
        )
        assert history.epochs_run == epochs
        assert len(history.train_accuracy) == epochs
        assert all(0.0 <= acc <= 1.0 for acc in history.train_accuracy)

    def test_fit_is_an_adam_cross_entropy_loop(self, tiny_split):
        """``fit`` equals a hand-written Adam loop on the softmax cross-entropy
        over the same per-epoch shuffles, bit for bit."""
        config = TrainingConfig(epochs=2, batch_size=50, learning_rate=3e-3, shuffle_seed=5)

        def fresh():
            return mlp(tiny_split.train.image_shape, tiny_split.num_classes, seed=4, hidden=(8, 8))

        trained = fresh()
        Trainer(config).fit(trained, tiny_split.train)

        manual = fresh()
        optimizer = Adam(config.learning_rate).register(manual)
        loss = CrossEntropyLoss()
        rng = RandomState(config.shuffle_seed)
        for _ in range(config.epochs):
            seed = int(rng.integers(0, 2**31 - 1))
            for images, labels in tiny_split.train.batches(
                config.batch_size, shuffle=True, seed=seed
            ):
                logits = manual.forward_between(images, 0, manual.logits_end, training=True)
                manual.backward_between(loss.gradient(logits, labels), 0, manual.logits_end)
                optimizer.step()

        for ours, theirs in zip(trained.layers, manual.layers):
            for name, value in ours.params.items():
                np.testing.assert_array_equal(value, theirs.params[name])

    def test_empty_history(self):
        history = TrainingHistory()
        assert history.epochs_run == 0
        assert np.isnan(history.final_train_accuracy)
