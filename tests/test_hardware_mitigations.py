"""Tests for TRR sampler modelling, hammer patterns and the new ECC schemes."""

import numpy as np
import pytest

from repro.analysis.evaluation import EvaluationContext
from repro.attacks.lowering import HardwareBudget, lower_attack, repair_plan
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.attacks.targets import make_attack_plan
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.hardware.bitflip import BitFlip, BitFlipPlan, plan_bit_flips
from repro.hardware.device import (
    HAMMER_PATTERNS,
    ChipkillCode,
    DramGeometry,
    EccScheme,
    HammerPattern,
    OnDieEcc,
    SecdedCode,
    TrrSampler,
    get_pattern,
    get_profile,
    list_patterns,
    plan_hammer,
    register_pattern,
    vendor_geometry,
)
from repro.hardware.memory import MemoryLayout, ParameterMemoryMap
from repro.nn.quantization import storage_spec
from repro.utils.errors import ConfigurationError


@pytest.fixture(scope="module")
def attack_result(tiny_model, tiny_split):
    plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=20, seed=0)
    config = FaultSneakingConfig(
        norm="l0", iterations=50, warmup_iterations=200, refine_support_steps=20
    )
    return FaultSneakingAttack(tiny_model, config).attack(plan)


class TestTrrSampler:
    def test_tracker_catches_highest_weight_rows(self):
        sampler = TrrSampler(tracker_size=2, threshold=1)
        rows = np.array([10, 20, 30, 40])
        weights = np.array([1, 5, 3, 5])
        banks = np.zeros(4, dtype=np.int64)
        assert sampler.tracked_rows(rows, weights, banks).tolist() == [20, 40]

    def test_ties_break_towards_lower_row_ids(self):
        sampler = TrrSampler(tracker_size=2, threshold=1)
        rows = np.array([40, 10, 30, 20])
        weights = np.ones(4, dtype=np.int64)
        banks = np.zeros(4, dtype=np.int64)
        assert sampler.tracked_rows(rows, weights, banks).tolist() == [10, 20]

    def test_threshold_hides_throttled_rows(self):
        sampler = TrrSampler(tracker_size=4, threshold=3)
        rows = np.array([1, 2, 3])
        weights = np.array([2, 3, 4])
        banks = np.zeros(3, dtype=np.int64)
        assert sampler.tracked_rows(rows, weights, banks).tolist() == [2, 3]

    def test_tracker_is_per_bank(self):
        sampler = TrrSampler(tracker_size=1, threshold=1)
        rows = np.array([5, 6, 105, 106])
        weights = np.array([2, 1, 1, 2])
        banks = np.array([0, 0, 1, 1])
        assert sampler.tracked_rows(rows, weights, banks).tolist() == [5, 106]

    @pytest.mark.parametrize("kwargs", [{"tracker_size": 0}, {"threshold": 0}])
    def test_invalid_sampler_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrrSampler(**kwargs)


class TestHammerPatterns:
    def test_shipped_patterns_registered(self):
        assert set(list_patterns()) >= {"double-sided", "many-sided", "decoy-throttled"}

    def test_get_pattern_roundtrip(self):
        pattern = get_pattern("many-sided")
        assert pattern.name == "many-sided"
        assert get_pattern(pattern) is pattern

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            get_pattern("quad-rotor")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_pattern(HAMMER_PATTERNS["double-sided"])

    def test_effective_flips_per_row_scales_with_yield(self):
        assert get_pattern("double-sided").effective_flips_per_row(16) == 16
        assert get_pattern("many-sided").effective_flips_per_row(16) == 8
        assert get_pattern("decoy-throttled").effective_flips_per_row(16) == 4
        assert get_pattern("decoy-throttled").effective_flips_per_row(2) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"aggressor_weight": 0},
            {"decoys_per_bank": 2, "decoy_weight": 0},
            {"flip_yield": 0.0},
            {"flip_yield": 1.5},
        ],
    )
    def test_invalid_pattern_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            HammerPattern(name="x", description="x", **kwargs)


class TestPlanHammer:
    geometry = DramGeometry(bank_bits=2, row_bits=8, column_bits=4)
    sampler = TrrSampler(tracker_size=4, threshold=2)

    def test_no_sampler_all_victims_feasible(self):
        hammer = plan_hammer([10, 12, 14], geometry=self.geometry)
        assert hammer.feasible_victims.tolist() == [10, 12, 14]
        assert hammer.decoys.size == 0
        assert hammer.tracked.size == 0

    def test_double_sided_dies_against_tracker(self):
        # Four isolated victims in one bank: 8 aggressors, tracker catches
        # 4 of them (ties -> lowest ids), the victims next to those refresh.
        hammer = plan_hammer(
            [10, 20, 30, 40], geometry=self.geometry,
            pattern="double-sided", sampler=self.sampler,
        )
        assert hammer.tracked.tolist() == [9, 11, 19, 21]
        assert hammer.feasible_victims.tolist() == [30, 40]
        assert hammer.refreshed_victims.tolist() == [10, 20]

    def test_many_sided_floods_the_tracker(self):
        # Decoys outrank the aggressors, so every tracker entry is a decoy
        # and every victim flips.
        hammer = plan_hammer(
            [10, 20, 30, 40], geometry=self.geometry,
            pattern="many-sided", sampler=self.sampler,
        )
        assert hammer.feasible_victims.tolist() == [10, 20, 30, 40]
        assert np.isin(hammer.tracked, hammer.decoys).all()

    def test_throttled_aggressors_escape_sampling(self):
        # Aggressor weight 1 < threshold 2: the tracker never sees them.
        hammer = plan_hammer(
            [10, 20, 30, 40], geometry=self.geometry,
            pattern="decoy-throttled", sampler=self.sampler,
        )
        assert hammer.feasible_victims.tolist() == [10, 20, 30, 40]
        assert not np.isin(hammer.tracked, hammer.aggressors).any()

    def test_decoys_placed_per_bank_off_the_victims(self):
        victims = [10, (1 << 8) + 10]  # one victim in each of two banks
        hammer = plan_hammer(
            victims, geometry=self.geometry, pattern="many-sided", sampler=self.sampler
        )
        decoys = hammer.decoys
        assert decoys.size == 16  # 8 per touched bank
        assert not np.isin(decoys, hammer.aggressors).any()
        assert not np.isin(decoys, hammer.victims).any()
        # Decoys stay inside their bank's row range.
        banks = decoys >> 8
        assert sorted(np.unique(banks).tolist()) == [0, 1]

    def test_tracked_row_does_not_save_across_bank_boundary(self):
        # Victim = last row of bank 0; a tracked row at the first row of
        # bank 1 is numerically adjacent but physically unrelated.
        geometry = DramGeometry(bank_bits=1, row_bits=3, column_bits=3)
        sampler = TrrSampler(tracker_size=8, threshold=1)
        victims = [6, 9]  # local row 6 of bank 0, local row 1 of bank 1
        hammer = plan_hammer(
            victims, geometry=geometry, pattern="double-sided", sampler=sampler
        )
        # Victim 9's aggressors {8, 10} are tracked -> refreshed; row 8 being
        # tracked must not refresh victim 6's neighbour relation via row 7.
        assert 9 not in hammer.feasible_victims
        assert (6 in hammer.feasible_victims) == (7 not in hammer.tracked)

    def test_flat_geometry_fallback(self):
        sampler = TrrSampler(tracker_size=1, threshold=1)
        hammer = plan_hammer([5], pattern="double-sided", sampler=sampler)
        assert hammer.aggressors.tolist() == [4, 6]
        assert hammer.refreshed_victims.tolist() == [5]


class TestOnDieEcc:
    def _memory(self, tiny_model):
        view = ParameterView(tiny_model.copy(), ParameterSelector(layers=None))
        return ParameterMemoryMap(
            view, spec=storage_spec("int8"), layout=MemoryLayout(base_address=0)
        )

    def test_is_sec_136_128(self):
        code = OnDieEcc()
        assert code.data_bits == 128
        assert code.check_bits == 8
        assert code.code_bits == 136
        assert code.describe() == "sec(136,128)"
        assert isinstance(code, EccScheme)

    def test_single_flip_corrected_away(self, tiny_model):
        code = OnDieEcc()
        memory = self._memory(tiny_model)
        plan = BitFlipPlan([BitFlip(0, 3, 0, 0)], num_words_total=memory.num_words)
        effective, summary = code.apply_to_plan(plan, memory)
        assert effective.num_flips == 0
        assert summary.corrected == 1
        assert summary.alarms == 0

    def test_double_flip_silently_miscorrects(self, tiny_model):
        # The defining difference from SECDED: a pair never alarms — the die
        # "corrects" a third bit and forwards the word.
        code = OnDieEcc()
        memory = self._memory(tiny_model)
        plan = BitFlipPlan(
            [BitFlip(0, 3, 0, 0), BitFlip(1, 2, 1, 0)],
            num_words_total=memory.num_words,
        )
        effective, summary = code.apply_to_plan(plan, memory)
        assert summary.alarms == 0
        assert summary.miscorrected == 1
        assert effective.num_flips in (2, 3)

    def test_nulled_syndrome_passes_clean(self, tiny_model):
        code = OnDieEcc()
        memory = self._memory(tiny_model)
        # Positions 3 ^ 5 ^ 6 == 0 (offsets of an int8 memory: word o//8 bit o%8).
        offsets = [int(np.searchsorted(code.positions, p)) for p in (3, 5, 6)]
        plan = BitFlipPlan(
            [BitFlip(off // 8, off % 8, off // 8, 0) for off in offsets],
            num_words_total=memory.num_words,
        )
        effective, summary = code.apply_to_plan(plan, memory)
        assert summary.undetected == 1
        assert summary.flips_added == 0
        assert effective.num_flips == 3

    def test_repair_pads_lone_flips_into_pairs_or_better(self, tiny_model):
        view = ParameterView(tiny_model.copy(), ParameterSelector(layers=None))
        spec = storage_spec("int8")
        memory = ParameterMemoryMap(view, spec=spec, layout=MemoryLayout(base_address=0))
        words = memory.read_words().copy()
        words[0] ^= 1 << 6
        target = ParameterMemoryMap(view, spec=spec, layout=MemoryLayout(base_address=0))
        target.write_words(words)
        target_values = target.decoded_values()

        plan = plan_bit_flips(memory, target_values)
        assert plan.num_flips == 1
        code = OnDieEcc()
        repair = repair_plan(plan, memory, target_values, ecc=code)
        assert repair.codewords_padded == 1
        executed, summary = code.apply_to_plan(repair.plan, memory)
        assert summary.corrected == 0
        memory.apply_plan(executed)
        achieved = memory.decoded_values()
        assert abs(float(achieved[0] - target_values[0])) <= 3 / spec.scale


class TestChipkillCode:
    def _memory(self, tiny_model):
        view = ParameterView(tiny_model.copy(), ParameterSelector(layers=None))
        return ParameterMemoryMap(
            view, spec=storage_spec("int8"), layout=MemoryLayout(base_address=0)
        )

    def test_symbol_layout(self):
        code = ChipkillCode(data_bits=64, symbol_bits=4)
        assert code.symbols_per_codeword == 16
        assert code.describe() == "chipkill(16x4b)"
        assert isinstance(code, EccScheme)
        with pytest.raises(ConfigurationError):
            ChipkillCode(data_bits=64, symbol_bits=5)

    def test_flips_within_one_symbol_corrected(self, tiny_model):
        code = ChipkillCode()
        memory = self._memory(tiny_model)
        # Word 0 bits 0-3 all live in symbol 0 of codeword 0.
        plan = BitFlipPlan(
            [BitFlip(0, b, 0, 0) for b in range(4)], num_words_total=memory.num_words
        )
        effective, summary = code.apply_to_plan(plan, memory)
        assert effective.num_flips == 0
        assert summary.corrected == 1
        assert summary.alarms == 0

    def test_flips_across_symbols_alarm_but_land(self, tiny_model):
        code = ChipkillCode()
        memory = self._memory(tiny_model)
        plan = BitFlipPlan(
            [BitFlip(0, 0, 0, 0), BitFlip(1, 0, 1, 0)],
            num_words_total=memory.num_words,
        )
        effective, summary = code.apply_to_plan(plan, memory)
        assert summary.alarms == 1
        assert effective.num_flips == 2

    def test_repair_spreads_single_symbol_codewords(self, attack_result, tiny_model):
        model = attack_result.view.model.copy()
        view = ParameterView(model, attack_result.view.selector)
        memory = ParameterMemoryMap(
            view, spec=storage_spec("int8"), layout=MemoryLayout(base_address=0)
        )
        target = view.baseline + attack_result.delta
        plan = plan_bit_flips(memory, target)
        code = ChipkillCode()
        repair = repair_plan(plan, memory, target, ecc=code)
        # After repair no surviving codeword may be confined to one symbol
        # (those would be corrected away).
        word_index, bit, _, _ = repair.plan.as_arrays()
        cw = code.codewords_of(word_index, 8)
        symbols = code.symbols_of(code.data_offsets(word_index, bit, 8))
        for cw_id in np.unique(cw).tolist():
            assert np.unique(symbols[cw == cw_id]).size >= 2


class TestTrrAwareRepair:
    def test_many_sided_recovers_strictly_more_than_flat_trr_cap(self):
        """Acceptance: many-sided on ddr4-trrespass keeps strictly more
        feasible flips than double-sided on the flat-capped ddr4-trr."""
        from repro.zoo.architectures import mlp

        model = mlp((20, 20, 1), 6, seed=0, hidden=(64, 48))
        view = ParameterView(model, ParameterSelector(layers=None))

        def surviving_flips(profile_name, pattern):
            profile = get_profile(profile_name)
            memory = ParameterMemoryMap(
                view, spec=storage_spec("int8"), layout=profile.layout()
            )
            target = view.baseline.copy()
            target[::30] += 0.15
            plan = plan_bit_flips(memory, target)
            assert plan.num_rows_touched > 16, "plan must span more rows than the cap"
            repair = repair_plan(
                plan, memory, target, profile.budget(),
                trr=profile.trr, hammer_pattern=pattern,
            )
            return repair

        flat = surviving_flips("ddr4-trr", "double-sided")
        evaded = surviving_flips("ddr4-trrespass", "many-sided")
        blocked = surviving_flips("ddr4-trrespass", "double-sided")
        assert evaded.plan.num_flips > flat.plan.num_flips
        assert evaded.rows_refreshed == 0
        # Double-sided against the sampler loses rows the tracker saves.
        assert blocked.rows_refreshed > 0
        assert blocked.plan.num_flips < evaded.plan.num_flips

    def test_repair_drops_only_refreshed_rows(self):
        layout_rows = np.array([10, 20, 30, 40])
        flips = [BitFlip(i, 0, i * 16, int(r)) for i, r in enumerate(layout_rows)]
        plan = BitFlipPlan(flips, num_words_total=4)

        class _Memory:
            class layout:  # noqa: N801 - minimal stand-in
                geometry = None

            spec = storage_spec("int8")

            @staticmethod
            def decoded_values():
                return np.zeros(4)

            @staticmethod
            def representable(values):
                return np.asarray(values)

        # The same planner call the repair stage makes decides what survives.
        sampler = TrrSampler(tracker_size=4, threshold=2)
        hammer = plan_hammer(
            layout_rows, pattern="double-sided", sampler=sampler
        )
        assert 0 < hammer.feasible_victims.size < layout_rows.size
        repair = repair_plan(
            plan, _Memory, np.zeros(4), HardwareBudget(),
            trr=sampler, hammer_pattern="double-sided",
        )
        kept_rows = np.unique(repair.plan.as_arrays()[3])
        np.testing.assert_array_equal(kept_rows, hammer.feasible_victims)
        assert repair.rows_refreshed == hammer.refreshed_victims.size
        assert repair.hammer_pattern == "double-sided"

    def test_lower_attack_with_trrespass_profile(self, attack_result, tiny_split):
        report = lower_attack(
            attack_result,
            storage="int8",
            profile="ddr4-trrespass",
            hammer_pattern="many-sided",
            context=EvaluationContext(attack_result.view.model, tiny_split.test),
        )
        assert report.device.name == "ddr4-trrespass"
        assert report.hammer_pattern == "many-sided"
        record = report.as_dict()
        assert record["rows_refreshed"] == 0  # many-sided evades the tracker
        assert record["hammer_rows"] > 0
        assert 0.0 <= record["bit_true_success"] <= 1.0

    def test_lower_attack_double_sided_loses_rows_on_trrespass(self, attack_result):
        evaded = lower_attack(
            attack_result, storage="int8", profile="ddr4-trrespass",
            hammer_pattern="many-sided",
        )
        blocked = lower_attack(
            attack_result, storage="int8", profile="ddr4-trrespass",
            hammer_pattern="double-sided",
        )
        assert blocked.as_dict()["rows_refreshed"] > 0
        assert blocked.plan.num_flips < evaded.plan.num_flips


class TestVendorProfiles:
    def test_vendor_geometry_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            vendor_geometry("drama-z80")

    def test_vendor_profile_registered_and_lowerable(self, attack_result):
        profile = get_profile("ddr4-vendor-haswell")
        assert profile.geometry.bank_xor_masks
        report = lower_attack(attack_result, storage="int8", profile=profile)
        assert report.plan.num_flips > 0

    def test_gpu_profile_uses_cacheline_granularity(self):
        assert get_profile("hbm2-gpu").geometry.cacheline_bytes == 32
        assert get_profile("ddr3-noecc").geometry.cacheline_bytes == 8

    def test_new_profiles_lower_end_to_end(self, attack_result):
        for name in ("ddr5-ondie", "server-chipkill"):
            report = lower_attack(attack_result, storage="int8", profile=name)
            assert report.device.name == name
            assert report.ecc_summary is not None
            record = report.as_dict()
            assert np.isfinite(record["unrepaired_success"])
