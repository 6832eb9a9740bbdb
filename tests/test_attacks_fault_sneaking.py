"""Tests for repro.attacks.fault_sneaking — the paper's core contribution."""

import numpy as np
import pytest
import reference_attack

from repro.attacks import admm, fault_sneaking
from repro.attacks.fault_sneaking import (
    FaultSneakingAttack,
    FaultSneakingConfig,
    build_objective,
)
from repro.attacks.parameter_view import ParameterView
from repro.attacks.targets import AttackPlan, make_attack_plan
from repro.utils.errors import ConfigurationError

# A reduced iteration budget keeps each attack in the sub-second range on the
# tiny MLP victim while still exercising every stage (warm start, ADMM, refine).
FAST = dict(iterations=60, warmup_iterations=250, refine_support_steps=30)


@pytest.fixture(scope="module")
def plan(tiny_split):
    return make_attack_plan(tiny_split.test, num_targets=2, num_images=20, seed=0)


@pytest.fixture(scope="module")
def tiny_split_module(tiny_split):
    return tiny_split


@pytest.fixture(scope="module")
def victim(tiny_model):
    return tiny_model


class TestConfig:
    def test_defaults_valid(self):
        FaultSneakingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"norm": "linf"},
            {"kappa": -0.1},
            {"refine_support_steps": -1},
            {"warmup_iterations": -1},
            {"iterations": 0},
            {"rho": -1.0},
            {"alpha": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSneakingConfig(**kwargs)

    def test_effective_rho_defaults(self):
        assert FaultSneakingConfig(norm="l0").effective_rho == 500.0
        assert FaultSneakingConfig(norm="l2").effective_rho == 50.0
        assert FaultSneakingConfig(norm="l0", rho=7.0).effective_rho == 7.0

    def test_calibrated_rho_from_warm_start(self):
        config = FaultSneakingConfig(norm="l0")
        warm = np.array([0.0, 0.01, 0.02, 0.1, 0.2, 0.4])
        rho = config.calibrated_rho(warm)
        threshold = np.sqrt(2.0 / rho)
        # threshold must lie inside the range of warm-start magnitudes
        assert 0.01 < threshold < 0.4

    def test_calibrated_rho_explicit_wins(self):
        config = FaultSneakingConfig(norm="l0", rho=123.0)
        assert config.calibrated_rho(np.ones(5)) == 123.0

    def test_calibrated_rho_without_warm_start(self):
        config = FaultSneakingConfig(norm="l0")
        assert config.calibrated_rho(None) == config.effective_rho

    def test_calibrated_rho_l2_uses_default(self):
        config = FaultSneakingConfig(norm="l2")
        assert config.calibrated_rho(np.ones(5)) == config.effective_rho

    def test_selector_reflects_fields(self):
        config = FaultSneakingConfig(layers=("fc1",), include_biases=False)
        selector = config.selector()
        assert selector.layers == ("fc1",)
        assert not selector.include_biases

    def test_admm_config_carries_solver_fields(self):
        config = FaultSneakingConfig(norm="l1", rho=42.0, alpha=2.0, iterations=7)
        admm = config.admm_config()
        assert (admm.norm, admm.rho, admm.alpha, admm.iterations) == ("l1", 42.0, 2.0, 7)
        default = FaultSneakingConfig(norm="l0")
        assert default.admm_config().rho == default.effective_rho == 500.0


class TestSolverConstants:
    @pytest.mark.parametrize(
        ("module", "name", "value"),
        [
            (admm, "_ALPHA_FLOOR", 1.0),
            (admm, "TRUST_RADIUS", 0.05),
            (admm, "PRIMAL_TOLERANCE", 1e-4),
            (fault_sneaking, "WARMUP_MOMENTUM", 0.9),
            (fault_sneaking, "ZERO_TOLERANCE", 1e-8),
        ],
        ids=["alpha-floor", "trust-radius", "primal-tolerance", "warmup-momentum", "zero-tol"],
    )
    def test_library_and_reference_agree(self, module, name, value):
        # The one-plan reference writes each constant out on its own; the
        # bit-identity tests only mean something while both copies agree.
        reference = getattr(reference_attack, name.lstrip("_"))
        assert getattr(module, name) == reference == value


class TestBuildObjective:
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 1.5])
    def test_kappa_on_targets_zero_on_keep_images(self, kappa, victim, plan):
        # κ on the S target images, 0 on the R − S keep images.
        config = FaultSneakingConfig(kappa=kappa)
        objective = build_objective(config, ParameterView(victim, config.selector()), plan)
        expected = [kappa] * plan.num_targets + [0.0] * plan.num_keep
        np.testing.assert_array_equal(objective.kappa, expected)
        np.testing.assert_array_equal(objective.desired_labels, plan.desired_labels)
        assert objective.num_targets == plan.num_targets


class TestAttack:
    @pytest.fixture(scope="class")
    def result(self, victim, plan):
        config = FaultSneakingConfig(norm="l0", layers=("fc_logits",), **FAST)
        return FaultSneakingAttack(victim, config).attack(plan)

    def test_attack_succeeds(self, result, plan):
        assert result.success_rate == 1.0
        assert result.num_successful_faults == plan.num_targets

    def test_keep_rate_high(self, result):
        assert result.keep_rate >= 0.9

    def test_sparsity(self, result):
        # the attacked layer has 6*... parameters; the modification must be sparse
        assert 0 < result.l0_norm < result.view.size

    def test_norms_consistent(self, result):
        assert result.l2_norm == pytest.approx(float(np.linalg.norm(result.delta)))
        assert result.linf_norm == pytest.approx(float(np.abs(result.delta).max()))
        assert result.l0_norm == int(np.count_nonzero(np.abs(result.delta) > 1e-8))

    def test_victim_model_unchanged(self, victim, plan, result):
        """The attack must not leave the victim model modified."""
        np.testing.assert_array_equal(result.view.gather(), result.view.baseline)

    def test_modified_model_is_copy(self, victim, result):
        hacked = result.modified_model()
        assert hacked is not victim
        # victim parameters unchanged, hacked parameters differ
        assert not np.allclose(
            hacked.get_layer("fc_logits").params["W"],
            victim.get_layer("fc_logits").params["W"],
        )

    def test_modified_model_misclassifies_targets(self, result, plan):
        hacked = result.modified_model()
        predictions = hacked.predict(plan.target_images)
        np.testing.assert_array_equal(predictions, plan.target_labels)

    def test_modified_model_keeps_keep_images(self, result, plan):
        hacked = result.modified_model()
        predictions = hacked.predict(plan.keep_images)
        keep_rate = np.mean(predictions == plan.keep_labels)
        assert keep_rate >= 0.9

    def test_modified_parameters_equals_baseline_plus_delta(self, result):
        modified = result.modified_parameters()
        flat = np.concatenate([modified["fc_logits/W"].ravel(), modified["fc_logits/b"].ravel()])
        np.testing.assert_allclose(flat, result.view.baseline + result.delta)

    def test_apply_to_same_architecture(self, victim, result, plan):
        clone = victim.copy()
        result.apply_to(clone)
        predictions = clone.predict(plan.target_images)
        np.testing.assert_array_equal(predictions, plan.target_labels)

    def test_summary_mentions_norms(self, result):
        text = result.summary()
        assert "l0=" in text and "success" in text

    def test_history_available(self, result):
        assert result.history.iterations > 0


class TestAttackVariants:
    def test_l2_attack_is_dense(self, victim, plan):
        config = FaultSneakingConfig(norm="l2", kappa=0.0, **FAST)
        result = FaultSneakingAttack(victim, config).attack(plan)
        assert result.success_rate == 1.0
        # the l2 attack touches most parameters of the layer
        assert result.l0_norm > result.view.size * 0.5

    def test_l0_sparser_than_l2(self, victim, plan):
        l0_result = FaultSneakingAttack(
            victim, FaultSneakingConfig(norm="l0", **FAST)
        ).attack(plan)
        l2_result = FaultSneakingAttack(
            victim, FaultSneakingConfig(norm="l2", kappa=0.0, **FAST)
        ).attack(plan)
        assert l0_result.l0_norm < l2_result.l0_norm

    def test_l1_norm_supported(self, victim, plan):
        config = FaultSneakingConfig(norm="l1", **FAST)
        result = FaultSneakingAttack(victim, config).attack(plan)
        assert result.success_rate >= 0.5

    def test_bias_only_attack_single_image(self, victim, tiny_split_module):
        plan = make_attack_plan(tiny_split_module.test, num_targets=1, num_images=1, seed=3)
        config = FaultSneakingConfig(
            norm="l0", include_weights=False, include_biases=True, **FAST
        )
        result = FaultSneakingAttack(victim, config).attack(plan)
        assert result.success_rate == 1.0
        # only bias parameters exist in the view
        assert result.view.size == 6
        assert result.l0_norm <= 6

    def test_attack_all_layers(self, victim, tiny_split_module):
        plan = make_attack_plan(tiny_split_module.test, num_targets=1, num_images=5, seed=4)
        config = FaultSneakingConfig(norm="l0", layers=None, **FAST)
        result = FaultSneakingAttack(victim, config).attack(plan)
        assert result.view.size == victim.n_params
        assert result.success_rate == 1.0

    def test_without_warm_start_still_returns(self, victim, plan):
        config = FaultSneakingConfig(norm="l0", warm_start=False, iterations=40)
        result = FaultSneakingAttack(victim, config).attack(plan)
        # without the warm start the l0 attack typically fails; the call must
        # still return a well-formed (possibly zero) result
        assert result.delta.shape == (result.view.size,)

    def test_attack_plan_from_raw_arrays(self, victim, tiny_split_module):
        # Raw image arrays enter the attack through a hand-built AttackPlan:
        # the target first, then keep images pinned to the victim's labels.
        images = tiny_split_module.test.images[:9]
        true_labels = victim.predict(images)
        target_label = (int(true_labels[0]) + 1) % 6
        plan = AttackPlan(
            images=images,
            true_labels=true_labels,
            target_labels=np.array([target_label]),
            num_targets=1,
        )
        config = FaultSneakingConfig(norm="l0", **FAST)
        result = FaultSneakingAttack(victim, config).attack(plan)
        assert result.num_targets == 1
        assert result.num_images == 9
        assert result.success_rate == 1.0
        assert int(result.modified_model().predict(images[:1])[0]) == target_label

    def test_deterministic_given_same_plan(self, victim, plan):
        config = FaultSneakingConfig(norm="l0", **FAST)
        a = FaultSneakingAttack(victim, config).attack(plan)
        b = FaultSneakingAttack(victim, config).attack(plan)
        np.testing.assert_allclose(a.delta, b.delta)
