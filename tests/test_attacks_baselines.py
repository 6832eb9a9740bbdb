"""Tests for the Liu et al. baseline attacks (SBA and GDA)."""

import numpy as np
import pytest

from repro.attacks.baselines import (
    GradientDescentAttack,
    GradientDescentAttackConfig,
    SingleBiasAttack,
    SingleBiasAttackConfig,
)
from repro.attacks.targets import AttackPlan, make_attack_plan
from repro.utils.errors import ConfigurationError


class TestSingleBiasAttack:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SingleBiasAttackConfig(margin=-1.0)

    def test_requires_bias_layer(self, tiny_model):
        with pytest.raises(ConfigurationError):
            SingleBiasAttack(tiny_model, SingleBiasAttackConfig(layer="relu_fc1"))

    def test_single_image_success(self, tiny_model, tiny_split):
        image = tiny_split.test.images[0]
        current = int(tiny_model.predict(image[None])[0])
        target = (current + 1) % 6
        result = SingleBiasAttack(tiny_model).attack(image, target)
        assert result.success
        assert result.l0_norm == 1
        assert result.bias_increase > 0

    def test_modified_model_flips_image(self, tiny_model, tiny_split):
        image = tiny_split.test.images[1]
        current = int(tiny_model.predict(image[None])[0])
        target = (current + 2) % 6
        result = SingleBiasAttack(tiny_model).attack(image, target)
        hacked = result.modified_model()
        assert int(hacked.predict(image[None])[0]) == target
        # victim unchanged
        assert int(tiny_model.predict(image[None])[0]) == current

    def test_already_target_needs_no_change(self, tiny_model, tiny_split):
        image = tiny_split.test.images[2]
        current = int(tiny_model.predict(image[None])[0])
        result = SingleBiasAttack(tiny_model, SingleBiasAttackConfig(margin=0.0)).attack(
            image, current
        )
        assert result.success
        assert result.bias_increase == 0.0
        assert result.l0_norm == 0

    def test_required_increase_monotone_in_margin(self, tiny_model, tiny_split):
        image = tiny_split.test.images[3]
        current = int(tiny_model.predict(image[None])[0])
        target = (current + 1) % 6
        small = SingleBiasAttack(tiny_model, SingleBiasAttackConfig(margin=0.1))
        large = SingleBiasAttack(tiny_model, SingleBiasAttackConfig(margin=2.0))
        assert large.required_bias_increase(image, target) > small.required_bias_increase(
            image, target
        )

    def test_invalid_target_class(self, tiny_model, tiny_split):
        with pytest.raises(ConfigurationError):
            SingleBiasAttack(tiny_model).attack(tiny_split.test.images[0], 17)

    def test_sink_class_profile(self, tiny_model, tiny_split):
        image = tiny_split.test.images[4]
        current = int(tiny_model.predict(image[None])[0])
        sink = SingleBiasAttack(tiny_model).profile_sink_class(
            image, tiny_split.test.images[:50], tiny_split.test.labels[:50]
        )
        assert 0 <= sink < 6
        assert sink != current

    def test_global_damage(self, tiny_model, tiny_split, tiny_accuracy):
        """The bias shift affects other images — SBA's weakness vs fault sneaking."""
        image = tiny_split.test.images[5]
        current = int(tiny_model.predict(image[None])[0])
        target = (current + 1) % 6
        result = SingleBiasAttack(tiny_model).attack(image, target)
        hacked = result.modified_model()
        hacked_accuracy = hacked.evaluate(tiny_split.test.images, tiny_split.test.labels)
        assert hacked_accuracy <= tiny_accuracy


class TestGradientDescentAttack:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"iterations": 0},
            {"kappa": -1.0},
            {"compression_rounds": -1},
            {"compression_fraction": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            GradientDescentAttackConfig(**kwargs)

    @pytest.fixture(scope="class")
    def gda_result(self, request):
        tiny_model = request.getfixturevalue("tiny_model")
        tiny_split = request.getfixturevalue("tiny_split")
        plan = make_attack_plan(tiny_split.test, num_targets=1, num_images=10, seed=1)
        config = GradientDescentAttackConfig(iterations=150, learning_rate=0.1)
        return GradientDescentAttack(tiny_model, config).attack(plan), plan, tiny_model

    def test_success(self, gda_result):
        result, plan, _ = gda_result
        assert result.success_rate == 1.0

    def test_compression_reduces_l0(self, gda_result):
        result, _, _ = gda_result
        # compression must leave strictly fewer modified parameters than the layer size
        assert 0 < result.l0_norm < result.view.size
        assert result.compression_rounds_run > 0

    def test_modified_model_flips_target(self, gda_result):
        result, plan, _ = gda_result
        hacked = result.modified_model()
        assert int(hacked.predict(plan.target_images)[0]) == int(plan.target_labels[0])

    def test_masks_match_modified_model(self, tiny_model, tiny_split):
        """Both masks describe the full plan under θ + δ, although the descent
        saw only the target images."""
        plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=10, seed=4)
        config = GradientDescentAttackConfig(iterations=150, learning_rate=0.1)
        result = GradientDescentAttack(tiny_model, config).attack(plan)
        assert result.l0_norm > 0
        correct = result.modified_model().predict(plan.images) == plan.desired_labels
        np.testing.assert_array_equal(result.success_mask, correct[: plan.num_targets])
        np.testing.assert_array_equal(result.keep_mask, correct[plan.num_targets :])

    def test_descent_ignores_the_keep_images(self, tiny_model, tiny_split):
        """GDA descends on the target images alone: swapping the keep images
        changes the reported keep mask but not δ or the loss curve."""
        plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=10, seed=4)
        other = make_attack_plan(tiny_split.test, num_targets=2, num_images=10, seed=6)
        swapped = AttackPlan(
            images=np.concatenate([plan.target_images, other.keep_images]),
            true_labels=np.concatenate([plan.true_labels[:2], other.keep_labels]),
            target_labels=plan.target_labels,
            num_targets=2,
        )
        config = GradientDescentAttackConfig(iterations=150, learning_rate=0.1)
        first = GradientDescentAttack(tiny_model, config).attack(plan)
        second = GradientDescentAttack(tiny_model, config).attack(swapped)
        np.testing.assert_array_equal(first.delta, second.delta)
        assert first.loss_history == second.loss_history
        correct = second.modified_model().predict(other.keep_images) == other.keep_labels
        np.testing.assert_array_equal(second.keep_mask, correct)

    def test_plan_without_keep_images_has_full_keep_rate(self, tiny_model, tiny_split):
        plan = make_attack_plan(tiny_split.test, num_targets=3, num_images=3, seed=2)
        config = GradientDescentAttackConfig(iterations=150, learning_rate=0.1)
        result = GradientDescentAttack(tiny_model, config).attack(plan)
        assert result.keep_mask.shape == (0,)
        assert result.keep_rate == 1.0

    def test_victim_unchanged(self, gda_result):
        result, _, model = gda_result
        np.testing.assert_array_equal(result.view.gather(), result.view.baseline)

    def test_loss_history_decreases(self, gda_result):
        result, _, _ = gda_result
        assert result.loss_history[-1] <= result.loss_history[0]

    def test_infeasible_attack_returns_gracefully(self, tiny_model, tiny_split):
        """With a single iteration GDA cannot succeed; compression is skipped."""
        plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=4, seed=3)
        config = GradientDescentAttackConfig(iterations=1, learning_rate=1e-6)
        result = GradientDescentAttack(tiny_model, config).attack(plan)
        assert result.success_rate < 1.0
        assert result.compression_rounds_run == 0
