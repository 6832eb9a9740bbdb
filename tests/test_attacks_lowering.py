"""Tests for repro.attacks.lowering (bit-true attack lowering + plan repair)."""

import numpy as np
import pytest

from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.lowering import (
    HardwareBudget,
    LoweringReport,
    lower_attack,
    repair_plan,
)
from repro.attacks.parameter_view import ParameterView
from repro.attacks.targets import make_attack_plan
from repro.hardware.bitflip import plan_bit_flips
from repro.hardware.injectors import LaserBeamInjector, RowHammerInjector
from repro.hardware.memory import MemoryLayout, ParameterMemoryMap
from repro.nn.quantization import storage_spec
from repro.utils.errors import ConfigurationError

FAST_CONFIG = FaultSneakingConfig(
    norm="l0", iterations=50, warmup_iterations=200, refine_support_steps=20
)

# Small rows so the tiny model's single FC layer spans several of them and the
# row budgets have something to constrain.
SMALL_ROWS = MemoryLayout(base_address=0, row_bytes=64)


@pytest.fixture(scope="module")
def attack_result(tiny_model, tiny_split):
    plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=20, seed=0)
    return FaultSneakingAttack(tiny_model, FAST_CONFIG).attack(plan)


class TestHardwareBudget:
    def test_default_is_unconstrained(self):
        budget = HardwareBudget()
        assert not budget.constrained
        assert budget.describe() == "unlimited"

    def test_describe_lists_active_limits(self):
        budget = HardwareBudget(max_flips_per_word=3, max_rows=2, row_window=4)
        assert budget.constrained
        text = budget.describe()
        assert "3 flips/word" in text and "2 rows" in text and "4-row window" in text

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_flips_per_word": 0},
            {"max_rows": -1},
            {"row_window": 0},
        ],
    )
    def test_invalid_limits(self, kwargs):
        with pytest.raises(ConfigurationError):
            HardwareBudget(**kwargs)


class TestRepairPlan:
    def _memory_and_target(self, attack_result, spec_name="int8"):
        model = attack_result.view.model.copy()
        view = ParameterView(model, attack_result.view.selector)
        memory = ParameterMemoryMap(view, spec=storage_spec(spec_name), layout=SMALL_ROWS)
        target = view.baseline + attack_result.delta
        return memory, target

    def test_unconstrained_budget_is_identity(self, attack_result):
        memory, target = self._memory_and_target(attack_result)
        plan = plan_bit_flips(memory, target)
        repair = repair_plan(plan, memory, target, HardwareBudget())
        assert repair.plan is plan
        assert repair.flips_dropped == 0
        assert not repair.modified

    def test_max_flips_per_word_enforced(self, attack_result):
        memory, target = self._memory_and_target(attack_result)
        plan = plan_bit_flips(memory, target)
        limit = 2
        repair = repair_plan(plan, memory, target, HardwareBudget(max_flips_per_word=limit))
        counts = repair.plan.flips_per_word()
        assert counts, "repair should keep some flips"
        assert max(counts.values()) <= limit
        assert repair.flips_dropped == plan.num_flips - repair.plan.num_flips

    def test_rounded_words_move_toward_target(self, attack_result):
        memory, target = self._memory_and_target(attack_result)
        plan = plan_bit_flips(memory, target)
        repair = repair_plan(plan, memory, target, HardwareBudget(max_flips_per_word=2))
        original = memory.decoded_values()
        target_repr = memory.representable(target)
        probe = ParameterMemoryMap(
            ParameterView(attack_result.view.model.copy(), attack_result.view.selector),
            spec=memory.spec,
            layout=SMALL_ROWS,
        )
        probe.apply_plan(repair.plan)
        achieved = probe.decoded_values()
        # Every kept (possibly partial) write must not be worse than leaving
        # the original word in place.
        for word in np.unique(repair.plan.as_arrays()[0]):
            assert abs(achieved[word] - target_repr[word]) <= abs(
                original[word] - target_repr[word]
            )

    def test_max_rows_enforced(self, attack_result):
        memory, target = self._memory_and_target(attack_result)
        plan = plan_bit_flips(memory, target)
        assert plan.num_rows_touched > 1, "fixture must span multiple rows"
        repair = repair_plan(plan, memory, target, HardwareBudget(max_rows=1))
        assert repair.plan.num_rows_touched == 1

    def test_row_window_enforced(self, attack_result):
        memory, target = self._memory_and_target(attack_result, spec_name="float32")
        plan = plan_bit_flips(memory, target)
        window = 2
        repair = repair_plan(plan, memory, target, HardwareBudget(row_window=window))
        rows = repair.plan.rows_touched
        assert rows
        assert rows[-1] - rows[0] < window

    def test_repaired_plan_is_subset(self, attack_result):
        memory, target = self._memory_and_target(attack_result)
        plan = plan_bit_flips(memory, target)
        repair = repair_plan(
            plan, memory, target, HardwareBudget(max_flips_per_word=3, max_rows=2)
        )
        original = set(plan.flips)
        assert set(repair.plan.flips) <= original


class TestLowerAttack:
    def test_unlimited_float32_matches_solver(self, attack_result, tiny_split):
        report = lower_attack(
            attack_result, storage="float32", eval_set=tiny_split.test
        )
        assert isinstance(report, LoweringReport)
        assert report.flips_dropped == 0
        assert report.quantization_error < 1e-6
        assert report.success_rate == pytest.approx(attack_result.success_rate)
        assert report.keep_rate >= attack_result.keep_rate - 0.1
        assert 0.0 <= report.attacked_accuracy <= 1.0
        assert np.isfinite(report.min_target_margin)

    def test_float16_attack_still_lands(self, attack_result):
        report = lower_attack(attack_result, storage="float16")
        # float16 has ~3 decimal digits of precision; modifications are O(0.1)
        assert report.quantization_error < 0.01
        assert report.success_rate >= 0.5

    def test_plan_touches_one_word_per_modified_parameter(self, attack_result):
        report = lower_attack(attack_result, storage="float32")
        assert report.plan.num_words_touched == attack_result.l0_norm

    def test_victim_model_untouched(self, attack_result, tiny_model):
        before = tiny_model.snapshot()
        report = lower_attack(attack_result, storage="float32")
        assert report.attacked_model is not tiny_model
        after = tiny_model.snapshot()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_injector_prices_the_lowered_plan(self, attack_result):
        plan = lower_attack(attack_result, storage="float32").plan
        assert LaserBeamInjector().cost(plan).technique == "laser"
        assert RowHammerInjector().cost(plan).technique == "rowhammer"

    def test_metrics_dict_keys(self, attack_result):
        report = lower_attack(attack_result, storage="float16")
        record = report.as_dict()
        for key in (
            "bit_flips",
            "flips_dropped",
            "words_touched",
            "rows_touched",
            "bit_true_success",
            "bit_true_keep",
            "accuracy_drop_percent",
        ):
            assert key in record
        # no eval set: accuracy fields are NaN sentinels
        assert np.isnan(record["clean_accuracy"])

    def test_tight_budget_drops_flips(self, attack_result):
        report = lower_attack(
            attack_result,
            storage="int8",
            layout=SMALL_ROWS,
            budget=HardwareBudget(max_flips_per_word=2, max_rows=1),
        )
        assert report.flips_dropped > 0
        assert report.plan.num_flips < report.planned.num_flips
        assert report.plan.num_rows_touched <= 1

    def test_margins_agree_with_success(self, attack_result):
        report = lower_attack(attack_result, storage="float32")
        if report.success_rate == 1.0:
            assert report.min_target_margin > 0.0

    def test_roundtrip_word_by_word_reproduces_reported_rates(
        self, attack_result, tiny_model
    ):
        """End to end: solve → lower to int8 → apply flip by flip → re-verify.

        The repaired plan is executed word by word through a *fresh*
        ParameterMemoryMap (no shared state with the lowering pipeline); the
        re-decoded model must reproduce exactly the success/keep rates the
        report claims.
        """
        report = lower_attack(
            attack_result,
            storage="int8",
            layout=SMALL_ROWS,
            budget=HardwareBudget(max_flips_per_word=3),
        )

        model = tiny_model.copy()
        view = ParameterView(model, attack_result.view.selector)
        memory = ParameterMemoryMap(view, spec=storage_spec("int8"), layout=SMALL_ROWS)
        for flip in report.plan.flips:
            memory.flip_bit(flip.word_index, flip.bit)
        memory.flush_to_model()

        np.testing.assert_array_equal(
            view.gather(),
            ParameterView(
                report.attacked_model, attack_result.view.selector
            ).gather(),
        )

        attack_plan = attack_result.plan
        predictions = model.predict(attack_plan.images)
        desired = attack_plan.desired_labels
        s = attack_plan.num_targets
        success_rate = float((predictions[:s] == desired[:s]).mean())
        keep_rate = float((predictions[s:] == desired[s:]).mean())
        assert success_rate == pytest.approx(report.success_rate)
        assert keep_rate == pytest.approx(report.keep_rate)

    def test_mismatched_model_rejected(self, attack_result, tiny_split):
        from repro.zoo.architectures import mlp

        other = mlp(tiny_split.train.image_shape, tiny_split.num_classes, seed=9, hidden=(20, 12))

        class FakeView:
            model = other
            selector = attack_result.view.selector

        class FakeResult:
            view = FakeView()
            delta = attack_result.delta
            plan = attack_result.plan

        with pytest.raises(ConfigurationError):
            lower_attack(FakeResult())
