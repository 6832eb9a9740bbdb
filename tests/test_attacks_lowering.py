"""Tests for repro.attacks.lowering (bit-true attack lowering + plan repair)."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.evaluation import EvaluationContext
from repro.attacks import lowering
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.lowering import (
    HardwareBudget,
    LoweringReport,
    _closest_masks,
    lower_attack,
    repair_plan,
    shared_repairs,
    trial_ci,
    trial_mean,
)
from repro.attacks.parameter_view import ParameterView
from repro.attacks.targets import make_attack_plan
from repro.hardware.bitflip import plan_bit_flips
from repro.hardware.injectors import LaserBeamInjector, RowHammerInjector
from repro.hardware.memory import MemoryLayout, ParameterMemoryMap
from repro.nn.quantization import dequantize, quantize, storage_spec
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


class TestTrialSummaries:
    """``trial_mean`` / ``trial_ci``: the per-trial summaries every mc column uses."""

    def test_mean_skips_non_finite_entries(self):
        assert trial_mean(np.array([0.25, np.nan, 0.75])) == 0.5
        assert np.isnan(trial_mean(np.array([np.nan, np.nan])))
        assert np.isnan(trial_mean(np.array([], dtype=np.float64)))

    def test_ci_is_the_normal_half_width_over_single_trials(self):
        values = np.array([0.0, 0.5, 1.0, 0.5])
        expected = 1.96 * np.std(values, ddof=1) / np.sqrt(values.size)
        assert trial_ci(values) == pytest.approx(expected, rel=1e-12)
        # non-finite entries drop out of the count as well as the spread
        assert trial_ci(np.append(values, np.nan)) == pytest.approx(expected, rel=1e-12)

    def test_ci_degenerate_cases(self):
        assert trial_ci(np.array([0.3])) == 0.0
        # identical trials: exactly zero, never rounding noise
        assert trial_ci(np.full(5, 0.1)) == 0.0
        assert np.isnan(trial_ci(np.array([np.nan])))


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


def _reference_closest_mask(word, value, target, usable_bits, spec, allowed):
    """One word at a time: every subset of the 12 most significant usable
    bits, ranked by (distance, flips, subset index)."""
    search = np.sort(usable_bits)[::-1][:12]
    masks = [0]
    for b in search.tolist():
        masks = masks + [mask ^ (1 << b) for mask in masks]
    masks = np.array(masks, dtype=np.int64)
    flips = np.array([bin(i).count("1") for i in range(masks.size)])
    dtype = spec.storage_dtype()
    with np.errstate(invalid="ignore"):
        values = dequantize(np.bitwise_xor(dtype.type(word), masks.astype(dtype)), spec)
        distance = np.abs(values - target)
    ok = np.isfinite(distance) & allowed(np.array([0]), search[None, :], flips)[0]
    distance = np.where(ok, distance, np.inf)
    best = int(np.lexsort((flips, distance))[0])
    return int(masks[best]) if distance[best] < abs(value - target) else 0


@pytest.mark.parametrize("storage", ["float32", "float16", "int8"])
@pytest.mark.parametrize("limit", [None, 1, 3])
def test_closest_masks_match_a_word_by_word_reference(storage, limit):
    spec = storage_spec(storage)
    bits = spec.bits_per_value
    rng = np.random.default_rng(3)
    n = 600
    words = quantize(rng.normal(0.0, 0.3, size=n), spec)
    original = dequantize(words, spec)

    def flipped(masks):
        return dequantize(np.bitwise_xor(words, masks.astype(words.dtype)), spec)

    # Targets near the original, halfway between the original and a
    # low-bit neighbour, and halfway between two reachable values: the
    # last two make exact distance ties, so the tie order is checked too.
    near = original + rng.normal(0.0, 0.2, size=n)
    with np.errstate(invalid="ignore", over="ignore"):
        neighbour = (original + flipped(1 << rng.integers(0, 4, size=n))) / 2
        between = (flipped(rng.integers(0, 1 << bits, size=n)) + flipped(
            rng.integers(0, 1 << bits, size=n)
        )) / 2
    targets = np.choose(np.arange(n) % 3, [near, neighbour, between])
    targets = np.where(np.isfinite(targets), targets, near)
    # Every density of usable cells, none and all included.
    usable = rng.random((n, bits)) < rng.uniform(0.0, 1.0, size=n)[:, None]
    usable[0], usable[1] = False, True
    cap = np.inf if limit is None else limit

    def allowed(rows, search, flips):
        # Depends on the word's searched bits too, like the ECC self-pad rule.
        parity = (search.sum(axis=1)[:, None] + np.arange(flips.size)) % 3 != 0
        return parity & (flips <= cap)

    masks = _closest_masks(words, original, targets, usable, spec, allowed)
    expected = [
        _reference_closest_mask(
            words[i], original[i], targets[i], np.flatnonzero(usable[i]), spec, allowed
        )
        for i in range(n)
    ]
    assert masks.tolist() == expected
    assert any(expected)


class TestLowerAttack:
    def test_unlimited_float32_matches_solver(self, attack_result, tiny_split):
        report = lower_attack(
            attack_result,
            storage="float32",
            context=EvaluationContext(attack_result.view.model, tiny_split.test),
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


def _as_json(report: LoweringReport) -> str:
    """The report's metrics in a form where NaN equals NaN."""
    return json.dumps(report.as_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def lowering_inputs(attack_result, tiny_model, tiny_split):
    """Solved attacks that differ from ``attack_result`` in one repair input.

    ``plan`` solves another attack plan (other S, other targets); ``victim``
    lowers onto a victim with one attacked weight changed, with the delta
    shifted so the target values stay the same: only the pristine memory
    words differ.
    """
    plan = make_attack_plan(tiny_split.test, num_targets=1, num_images=20, seed=1)
    baseline, delta = attack_result.view.baseline, attack_result.delta.copy()
    index = int(np.flatnonzero((delta == 0) & (baseline != 0))[0])
    values = baseline.copy()
    values[index] *= 1.5
    victim = tiny_model.copy()
    ParameterView(victim, attack_result.view.selector).scatter(values)
    view = ParameterView(victim, attack_result.view.selector)
    delta[index] = baseline[index] - values[index]  # exact: Sterbenz
    np.testing.assert_array_equal(view.baseline + delta, baseline + attack_result.delta)
    shifted = SimpleNamespace(view=view, delta=delta, plan=attack_result.plan)
    return {
        "base": attack_result,
        "plan": FaultSneakingAttack(tiny_model, FAST_CONFIG).attack(plan),
        "victim": shifted,
    }


# Pairs of lower_attack calls that differ in exactly one input the repair
# reads.  Every call runs trials, so the reports carry Monte-Carlo columns.
_BASE_CALL = {"result": "base", "profile": "stochastic-ddr3", "trials": 2, "rng": 0}
KEY_CASES = {
    "storage": ({"storage": "float32"}, {"storage": "float16"}),
    # Same geometry, budget and pattern; only the landing probabilities differ.
    "profile": ({}, {"profile": "ddr3-noecc"}),
    "budget-unlimited": ({"budget": HardwareBudget()}, {}),
    "budget-expected": ({}, {"expected_repair": True}),
    "pattern": ({"hammer_pattern": "double-sided"}, {"hammer_pattern": "many-sided"}),
    "env_drift": ({}, {"env_drift": 0.2}),
    "layout": ({"layout": SMALL_ROWS}, {"layout": MemoryLayout(base_address=0)}),
    "plan": ({}, {"result": "plan"}),
    "victim": ({}, {"result": "victim"}),
}


class TestSharedRepairs:
    @pytest.fixture()
    def repairs(self, monkeypatch):
        """Counts repair_plan calls, as lower_attack makes them."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(lowering._shared_repairs.get())
            return repair_plan(*args, **kwargs)

        monkeypatch.setattr(lowering, "repair_plan", counting)
        return calls

    @staticmethod
    def _lower(inputs, call):
        call = {**_BASE_CALL, **call}
        return lower_attack(inputs[call.pop("result")], **call)

    @pytest.mark.parametrize("case", list(KEY_CASES))
    def test_each_key_input_forces_its_own_repair(self, case, lowering_inputs, repairs):
        calls = KEY_CASES[case]
        with shared_repairs():
            inside = [self._lower(lowering_inputs, call) for call in calls]
        assert len(repairs) == 2
        outside = [self._lower(lowering_inputs, call) for call in calls]
        assert [_as_json(r) for r in inside] == [_as_json(r) for r in outside]

    def test_equal_lowerings_share_one_repair(self, lowering_inputs, repairs):
        with shared_repairs():
            first = self._lower(lowering_inputs, {})
            second = self._lower(lowering_inputs, {"rng": 1})
        assert len(repairs) == 1
        assert second.repair is first.repair and second.planned is first.planned
        # Only the repair is shared: each call measures on its own scorer.
        assert second.scorer is not first.scorer
        assert _as_json(second) == _as_json(self._lower(lowering_inputs, {"rng": 1}))

    def test_no_reuse_outside_a_block(self, lowering_inputs, repairs):
        self._lower(lowering_inputs, {})
        self._lower(lowering_inputs, {})
        assert repairs == [None, None]

    def test_shared_arrays_are_read_only(self, lowering_inputs):
        with shared_repairs():
            report = self._lower(lowering_inputs, {})
        for plan in (report.planned, report.plan):
            with pytest.raises(ValueError, match="read-only"):
                plan._word_index[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            report.repair.frames[0] = 0
        # A plan derived from a shared one is the holder's own.
        derived = report.plan.select(np.ones(report.plan.num_flips, dtype=bool))
        derived._bit[0] = 0

    def test_unshared_arrays_stay_writable(self, lowering_inputs):
        report = self._lower(lowering_inputs, {})
        report.plan._word_index[0] = 0
        report.repair.frames[0] = 0

    def test_block_exit_empties_and_deactivates_the_memo(self, lowering_inputs, repairs):
        with pytest.raises(RuntimeError):
            with shared_repairs():
                self._lower(lowering_inputs, {})
                raise RuntimeError("job failed")
        (memo,) = repairs
        assert memo == {} and lowering._shared_repairs.get() is None

    def test_nested_block_restores_the_outer_memo(self, lowering_inputs, repairs):
        with shared_repairs():
            self._lower(lowering_inputs, {})
            with shared_repairs():
                self._lower(lowering_inputs, {})
            self._lower(lowering_inputs, {})
        assert len(repairs) == 2 and repairs[0] is not repairs[1]
