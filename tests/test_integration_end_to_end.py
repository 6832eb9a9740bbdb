"""End-to-end integration tests crossing every subsystem.

These follow the full story of the paper on the tiny victim model:
train → plan → attack (ℓ0 and ℓ2) → evaluate stealth → serialise the model →
lower the modification to memory bit flips → re-verify on the re-materialised
model.
"""

import numpy as np
import pytest

from repro.analysis.evaluation import evaluate_attack_result
from repro.attacks import (
    FaultSneakingAttack,
    FaultSneakingConfig,
    make_attack_plan,
)
from repro.attacks.baselines import SingleBiasAttack
from repro.attacks.lowering import lower_attack
from repro.data.synthetic import SyntheticImageConfig, SyntheticImageGenerator
from repro.nn.serialization import load_model, save_model
from repro.zoo.architectures import compact_cnn
from repro.zoo.trainer import Trainer, TrainingConfig

FAST = dict(iterations=60, warmup_iterations=250, refine_support_steps=30)


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        """Train a small CNN end to end (not the shared MLP fixture)."""
        config = SyntheticImageConfig(
            image_size=14, channels=1, num_classes=5, strokes_per_prototype=3, seed=11
        )
        generator = SyntheticImageGenerator(config)
        train = generator.sample(500, seed=1)
        test = generator.sample(200, seed=2)
        model = compact_cnn(train.image_shape, 5, seed=0, hidden=(48, 24))
        Trainer(TrainingConfig(epochs=3, batch_size=32)).fit(model, train)
        path = save_model(model, tmp_path_factory.mktemp("models") / "victim.npz")
        return model, train, test, path

    def test_training_reached_usable_accuracy(self, pipeline):
        model, _, test, _ = pipeline
        assert model.evaluate(test.images, test.labels) > 0.8

    def test_serialised_model_attackable(self, pipeline):
        """Attack a model loaded from disk; the attack must behave identically."""
        model, _, test, path = pipeline
        reloaded = load_model(path)
        plan = make_attack_plan(test, num_targets=2, num_images=30, seed=0)
        config = FaultSneakingConfig(norm="l0", **FAST)
        result_original = FaultSneakingAttack(model, config).attack(plan)
        result_reloaded = FaultSneakingAttack(reloaded, config).attack(plan)
        np.testing.assert_allclose(result_original.delta, result_reloaded.delta)

    def test_attack_evaluate_and_inject(self, pipeline):
        model, _, test, _ = pipeline
        clean_accuracy = model.evaluate(test.images, test.labels)
        plan = make_attack_plan(test, num_targets=2, num_images=40, seed=1)

        result = FaultSneakingAttack(model, FaultSneakingConfig(norm="l0", **FAST)).attack(plan)
        assert result.success_rate == 1.0

        evaluation = evaluate_attack_result(
            result, test, clean_model=model, clean_accuracy=clean_accuracy
        )
        assert evaluation.accuracy_drop <= 0.3
        assert evaluation.l0_norm == result.l0_norm

        report = lower_attack(result, storage="float32")
        assert report.success_rate == 1.0
        assert report.plan.num_words_touched == result.l0_norm
        # the physically injected model classifies the targets as intended
        predictions = report.attacked_model.predict(plan.target_images)
        np.testing.assert_array_equal(predictions, plan.target_labels)

    def test_l0_vs_l2_tradeoff_shape(self, pipeline):
        """Table-3 shape: the l0 attack touches fewer parameters than the l2 attack."""
        model, _, test, _ = pipeline
        plan = make_attack_plan(test, num_targets=2, num_images=20, seed=2)
        l0_result = FaultSneakingAttack(model, FaultSneakingConfig(norm="l0", **FAST)).attack(plan)
        l2_result = FaultSneakingAttack(
            model, FaultSneakingConfig(norm="l2", kappa=0.0, **FAST)
        ).attack(plan)
        assert l0_result.l0_norm < l2_result.l0_norm

    def test_fault_sneaking_stealthier_than_sba(self, pipeline):
        """§5.4 shape: fault sneaking retains more accuracy than the SBA baseline."""
        model, _, test, _ = pipeline
        clean_accuracy = model.evaluate(test.images, test.labels)
        plan = make_attack_plan(test, num_targets=1, num_images=40, seed=3)

        fs_result = FaultSneakingAttack(model, FaultSneakingConfig(norm="l0", **FAST)).attack(plan)
        fs_accuracy = fs_result.modified_model().evaluate(test.images, test.labels)

        sba_result = SingleBiasAttack(model).attack(
            plan.target_images[0], int(plan.target_labels[0])
        )
        sba_accuracy = sba_result.modified_model().evaluate(test.images, test.labels)

        assert fs_result.success_rate == 1.0 and sba_result.success
        assert fs_accuracy >= sba_accuracy
        assert clean_accuracy - fs_accuracy <= 0.15

    def test_stealth_improves_with_r(self, pipeline):
        """Table-4 shape: more keep images -> better accuracy retention."""
        model, _, test, _ = pipeline
        config = FaultSneakingConfig(norm="l0", **FAST)
        accuracies = []
        for r in (8, 80):
            plan = make_attack_plan(test, num_targets=2, num_images=r, seed=4)
            result = FaultSneakingAttack(model, config).attack(plan)
            accuracies.append(result.modified_model().evaluate(test.images, test.labels))
        assert accuracies[1] >= accuracies[0]
