"""Tests for repro.attacks.objective.

:class:`AttackObjective` only describes a lane; every value, gradient and
mask comes from :class:`StackedAttackObjective`, here mostly as a one-lane
stack.
"""

import numpy as np
import pytest

from repro.attacks.objective import AttackObjective, StackedAttackObjective, mask_rate
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.attacks.targets import make_attack_plan
from repro.utils.errors import ConfigurationError, ShapeError
from repro.zoo.architectures import compact_cnn

RNG = np.random.default_rng(0)


def one_lane(objective: AttackObjective) -> StackedAttackObjective:
    return StackedAttackObjective([objective])


def value(objective: AttackObjective, delta: np.ndarray) -> float:
    return float(one_lane(objective).value_and_gradient(delta[None])[0][0])


def gradient(objective: AttackObjective, delta: np.ndarray) -> np.ndarray:
    return one_lane(objective).value_and_gradient(delta[None])[1][0]


def rates(objective: AttackObjective, delta: np.ndarray) -> tuple[float, float]:
    _, success, keep = one_lane(objective).evaluate_candidates(delta[None])
    return float(success[0]), float(keep[0])


@pytest.fixture()
def setup(tiny_model, tiny_split):
    plan = make_attack_plan(tiny_split.test, num_targets=3, num_images=12, seed=0)
    view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
    objective = AttackObjective(
        view, plan.images, plan.desired_labels, num_targets=plan.num_targets, kappa=0.5
    )
    return tiny_model, view, objective, plan


class TestConstruction:
    def test_num_classes_inferred(self, setup):
        _, _, objective, _ = setup
        assert objective.num_classes == 6

    def test_mismatched_lengths(self, tiny_model, tiny_split):
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        with pytest.raises(ShapeError):
            AttackObjective(view, tiny_split.test.images[:5], np.zeros(4, dtype=int))

    def test_empty_images_rejected(self, tiny_model, tiny_split):
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        with pytest.raises(ConfigurationError):
            AttackObjective(view, tiny_split.test.images[:0], np.zeros(0, dtype=int))

    def test_bad_labels_rejected(self, tiny_model, tiny_split):
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        with pytest.raises(ConfigurationError, match="desired labels"):
            AttackObjective(view, tiny_split.test.images[:3], np.array([0, 1, 99]))

    def test_bad_num_targets(self, tiny_model, tiny_split):
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        with pytest.raises(ConfigurationError):
            AttackObjective(
                view, tiny_split.test.images[:3], np.zeros(3, dtype=int), num_targets=5
            )

    def test_kappa_vector_wrong_length(self, tiny_model, tiny_split):
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        with pytest.raises(ShapeError):
            AttackObjective(
                view, tiny_split.test.images[:3], np.zeros(3, dtype=int), kappa=np.ones(2)
            )

    def test_negative_kappa_rejected(self, tiny_model, tiny_split):
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        with pytest.raises(ConfigurationError):
            AttackObjective(
                view, tiny_split.test.images[:3], np.zeros(3, dtype=int), kappa=-1.0
            )


def full_model_value_and_gradient(objective, delta):
    """``G`` and ``∇_δ G`` from a full forward/backward of a model copy with δ applied."""
    model = objective.model.copy()
    view = ParameterView(model, objective.view.selector)
    view.scatter(view.gather() + delta)
    logits = model.logits(objective.images)
    rows = np.arange(objective.num_images)
    masked = logits.copy()
    masked[rows, objective.desired_labels] = -np.inf
    margins = masked.max(axis=1) - logits[rows, objective.desired_labels] + objective.kappa
    value = float(np.maximum(margins, 0.0).sum())
    active = margins > 0
    grad_logits = np.zeros_like(logits)
    grad_logits[rows[active], masked.argmax(axis=1)[active]] = 1.0
    grad_logits[rows[active], objective.desired_labels[active]] -= 1.0
    model.backward_between(grad_logits, 0, model.logits_end)
    return value, view.gather_grads()


class TestValueSemantics:
    def test_logits_match_model(self, setup):
        model, _, objective, plan = setup
        zero = np.zeros((1, objective.view.size))
        np.testing.assert_allclose(one_lane(objective).logits(zero)[0], model.logits(plan.images))

    def test_model_restored_after_calls(self, setup):
        model, view, objective, _ = setup
        before = view.gather()
        stacked = one_lane(objective)
        stacked.value_and_gradient(RNG.random((1, view.size)))
        stacked.evaluate_candidates(RNG.random((1, view.size)))
        stacked.masks(RNG.random((1, view.size)))
        np.testing.assert_array_equal(view.gather(), before)

    def test_value_nonnegative(self, setup):
        _, view, objective, _ = setup
        assert value(objective, np.zeros(view.size)) >= 0.0
        assert value(objective, RNG.random(view.size)) >= 0.0

    def test_keep_terms_zero_at_clean_model(self, tiny_model, tiny_split):
        """With kappa=0, correctly classified keep images contribute nothing."""
        predictions = tiny_model.predict(tiny_split.test.images)
        correct = predictions == tiny_split.test.labels
        plan = make_attack_plan(
            tiny_split.test, num_targets=0, num_images=10, only_correct=correct, seed=1
        )
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        objective = AttackObjective(
            view, plan.images, plan.desired_labels, num_targets=0, kappa=0.0
        )
        assert value(objective, np.zeros(view.size)) == pytest.approx(0.0)

    @pytest.mark.parametrize("layer", ["fc_logits", "conv1"])
    def test_feature_cache_matches_full_forward(self, layer, tiny_model, tiny_split):
        """The cached prefix is exact: the suffix-only value and gradient equal
        a full forward/backward of the model with δ applied.  ``conv1`` is
        layer 0 of the CNN, so its cache is the raw images."""
        plan = make_attack_plan(tiny_split.test, num_targets=3, num_images=12, seed=0)
        if layer == "conv1":
            model = compact_cnn(tiny_split.train.image_shape, tiny_split.num_classes, seed=0)
            assert model.layer_index("conv1") == 0
        else:
            model = tiny_model
        view = ParameterView(model, ParameterSelector(layers=(layer,)))
        objective = AttackObjective(
            view, plan.images, plan.desired_labels, num_targets=plan.num_targets, kappa=0.5
        )
        assert objective.start_layer == model.layer_index(layer)
        delta = RNG.standard_normal(view.size) * 0.1
        values, grads = one_lane(objective).value_and_gradient(delta[None])
        expected_value, expected_grad = full_model_value_and_gradient(objective, delta)
        assert expected_value > 0.0
        assert values[0] == pytest.approx(expected_value, rel=1e-12)
        np.testing.assert_allclose(grads[0], expected_grad, rtol=1e-10, atol=1e-12)


class TestGradient:
    def test_gradient_matches_numeric(self, setup):
        _, view, objective, _ = setup
        delta = RNG.random(view.size) * 0.05
        analytic = gradient(objective, delta)
        eps = 1e-6
        numeric = np.zeros_like(delta)
        for i in range(delta.size):
            plus = delta.copy()
            plus[i] += eps
            minus = delta.copy()
            minus[i] -= eps
            numeric[i] = (value(objective, plus) - value(objective, minus)) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_value_and_gradient_consistent(self, setup):
        _, view, objective, _ = setup
        delta = RNG.random(view.size) * 0.05
        lane_value, lane_grad = objective.value_and_gradient(delta)
        values, grads = one_lane(objective).value_and_gradient(delta[None])
        assert lane_value == values[0]
        np.testing.assert_array_equal(lane_grad, grads[0])

    def test_gradient_zero_when_all_satisfied(self, tiny_model, tiny_split):
        """If every desired label is already predicted with margin, grad = 0."""
        predictions = tiny_model.predict(tiny_split.test.images)
        correct = predictions == tiny_split.test.labels
        plan = make_attack_plan(
            tiny_split.test, num_targets=0, num_images=8, only_correct=correct, seed=2
        )
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        objective = AttackObjective(
            view, plan.images, plan.desired_labels, num_targets=0, kappa=0.0
        )
        np.testing.assert_array_equal(gradient(objective, np.zeros(view.size)), 0.0)


class TestUnitWeightHinge:
    """Every image's hinge enters ``G`` with weight 1."""

    @pytest.mark.parametrize("image", [0, 1, 2])
    def test_logit_gradient_is_plus_one_minus_one(self, image, tiny_model, tiny_split):
        # With only the logit layer's biases attacked, ∇_b G is the logit
        # gradient itself: +1 on the best other class, −1 on the target.
        plan = make_attack_plan(tiny_split.test, num_targets=3, num_images=3, seed=5)
        view = ParameterView(
            tiny_model, ParameterSelector(layers=("fc_logits",), include_weights=False)
        )
        desired = plan.desired_labels[image : image + 1]
        objective = AttackObjective(view, plan.images[image : image + 1], desired)
        values, grads = one_lane(objective).value_and_gradient(np.zeros((1, view.size)))
        logits = tiny_model.logits(plan.images[image : image + 1])[0]
        others = logits.copy()
        others[desired[0]] = -np.inf
        assert values[0] == logits.max() - logits[desired[0]] > 0.0
        expected = np.zeros(view.size)
        expected[np.argmax(others)] = 1.0
        expected[desired[0]] = -1.0
        np.testing.assert_array_equal(grads[0], expected)


class TestMaskRate:
    @pytest.mark.parametrize(
        ("mask", "rate"),
        [
            (np.zeros(0, dtype=bool), 1.0),
            (np.zeros((0, 4), dtype=bool), 1.0),
            (np.array([True]), 1.0),
            (np.array([False, False]), 0.0),
            (np.array([True, False, False, True]), 0.5),
            (np.array([True, True, False]), 2.0 / 3.0),
        ],
        ids=["empty", "empty-2d", "all-true", "all-false", "half", "two-thirds"],
    )
    def test_rate(self, mask, rate):
        assert mask_rate(mask) == rate

    def test_returns_a_python_float(self):
        assert type(mask_rate(np.array([True, False]))) is float

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_the_mean_of_a_non_empty_mask(self, seed):
        mask = np.random.default_rng(seed).random(37) < 0.4
        assert mask_rate(mask) == float(np.mean(mask))


class TestBookkeeping:
    def test_success_rate_zero_at_clean_model(self, setup):
        _, view, objective, _ = setup
        # targets are wrong labels, so the unmodified model cannot satisfy them
        assert rates(objective, np.zeros(view.size))[0] <= 0.34

    def test_keep_rate_high_at_clean_model(self, setup):
        _, view, objective, _ = setup
        assert rates(objective, np.zeros(view.size))[1] >= 0.5

    def test_masks_lengths(self, setup):
        _, view, objective, plan = setup
        ((success, keep),) = one_lane(objective).masks(np.zeros((1, view.size)))
        assert success.shape == (plan.num_targets,)
        assert keep.shape == (plan.num_keep,)

    def test_masks_match_model_predictions(self, setup):
        model, view, objective, plan = setup
        delta = RNG.standard_normal(view.size) * 0.5
        ((success, keep),) = one_lane(objective).masks(delta[None])
        modified = model.copy()
        ParameterView(modified, view.selector).scatter(view.gather() + delta)
        correct = modified.predict(plan.images) == plan.desired_labels
        np.testing.assert_array_equal(success, correct[: plan.num_targets])
        np.testing.assert_array_equal(keep, correct[plan.num_targets :])

    def test_empty_target_slice_gives_full_success(self, tiny_model, tiny_split):
        view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
        plan = make_attack_plan(tiny_split.test, num_targets=0, num_images=5, seed=3)
        objective = AttackObjective(view, plan.images, plan.desired_labels, num_targets=0)
        assert rates(objective, np.zeros(view.size))[0] == 1.0
