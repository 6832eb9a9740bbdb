"""Tests for repro.experiments.common."""

from dataclasses import replace

import pytest

from repro.attacks.fault_sneaking import FaultSneakingConfig
from repro.experiments.common import (
    SETTINGS,
    anchor_and_eval_split,
    anchor_pool_size,
    attack_config_for,
    get_setting,
    get_trained_model,
    usable_r_values,
)
from repro.utils.errors import ConfigurationError


class TestSettings:
    def test_all_scales_present(self):
        assert {"smoke", "ci", "paper", "full"} <= set(SETTINGS)

    def test_paper_grids_match_paper(self):
        setting = get_setting("paper")
        assert setting.s_values == (1, 2, 4, 8, 16)
        assert setting.r_values == (50, 100, 200, 500, 1000)
        assert setting.layer_s_values == (1, 4, 16)
        assert setting.type_s_values == (1, 2, 4, 8)
        assert setting.norm_settings == ((1, 10), (5, 10), (5, 20))

    def test_full_uses_paper_architecture(self):
        assert get_setting("full").architecture == "paper_cnn"

    def test_unknown_scale(self):
        with pytest.raises(ConfigurationError):
            get_setting("huge")


class TestAttackConfigFor:
    def test_budget_follows_scale(self):
        config = attack_config_for("ci")
        setting = get_setting("ci")
        assert config.iterations == setting.attack_iterations
        assert config.warmup_iterations == setting.warmup_iterations
        assert config.refine_support_steps == setting.refine_steps

    def test_overrides(self):
        config = attack_config_for("smoke", norm="l2", kappa=0.0, rho=9.0)
        assert isinstance(config, FaultSneakingConfig)
        assert config.norm == "l2"
        assert config.kappa == 0.0
        assert config.rho == 9.0

    def test_layer_selection(self):
        config = attack_config_for("smoke", layers=("fc1",))
        assert config.layers == ("fc1",)

    @pytest.mark.parametrize("norm", ["l0", "l1", "l2"])
    def test_norm_keeps_scale_budget(self, norm):
        config = attack_config_for("smoke", norm=norm)
        assert config == FaultSneakingConfig(
            norm=norm,
            layers=("fc_logits",),
            iterations=get_setting("smoke").attack_iterations,
            warmup_iterations=get_setting("smoke").warmup_iterations,
            refine_support_steps=get_setting("smoke").refine_steps,
        )


class TestAnchorPool:
    def test_pool_size_is_even_indexed_half(self):
        assert anchor_pool_size(replace(get_setting("smoke"), n_test=7)) == 4
        assert anchor_pool_size(replace(get_setting("smoke"), n_test=8)) == 4

    def test_usable_r_values_drop_r_beyond_pool(self):
        setting = replace(get_setting("smoke"), n_test=100, r_values=(10, 50, 51, 200))
        assert usable_r_values(setting) == [10, 50]

    def test_split_is_disjoint_and_covers_test_set(self, session_registry):
        # Accuracy is scored on images the attack never anchors on.
        trained = get_trained_model("mnist_like", "smoke", registry=session_registry, seed=0)
        anchor_pool, eval_set = anchor_and_eval_split(trained)
        test = trained.data.test
        assert len(anchor_pool) == anchor_pool_size(get_setting("smoke"))
        assert len(anchor_pool) + len(eval_set) == len(test)
        anchors = {image.tobytes() for image in anchor_pool.images}
        assert not anchors & {image.tobytes() for image in eval_set.images}
        assert (anchor_pool.images == test.images[0::2]).all()
        assert (eval_set.labels == test.labels[1::2]).all()


class TestGetTrainedModel:
    def test_smoke_model_trains_and_caches(self, session_registry):
        trained = get_trained_model("mnist_like", "smoke", registry=session_registry, seed=0)
        assert trained.test_accuracy > 0.5
        again = get_trained_model("mnist_like", "smoke", registry=session_registry, seed=0)
        assert again is trained

    def test_unknown_dataset_rejected(self, session_registry):
        with pytest.raises(ConfigurationError):
            get_trained_model("svhn", "smoke", registry=session_registry)
