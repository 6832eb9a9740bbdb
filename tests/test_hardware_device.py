"""Tests for the device-model subsystem (geometry, templates, ECC, profiles)."""

import numpy as np
import pytest

from repro.analysis.evaluation import EvaluationContext
from repro.attacks.lowering import HardwareBudget, lower_attack, repair_plan
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.attacks.targets import make_attack_plan
from repro.hardware.bitflip import BitFlip, BitFlipPlan, plan_bit_flips
from repro.hardware.device import (
    CELL_ONE_TO_ZERO,
    CELL_STUCK,
    CELL_ZERO_TO_ONE,
    DEVICE_PROFILES,
    DeviceProfile,
    DramGeometry,
    FlipTemplate,
    SecdedCode,
    get_profile,
    list_profiles,
    register_profile,
)
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
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


class TestDramGeometry:
    def test_decompose_recompose_roundtrip_all_profiles(self, rng):
        # Property-style: for every registered profile, decompose/recompose
        # are inverse on randomized addresses across the whole capacity.
        for name in list_profiles():
            geometry = get_profile(name).geometry
            addresses = rng.integers(0, geometry.capacity_bytes, size=512)
            coords = geometry.decompose(addresses)
            back = geometry.recompose(coords)
            np.testing.assert_array_equal(back, addresses, err_msg=name)

    def test_decompose_field_ranges(self, rng):
        for name in list_profiles():
            geometry = get_profile(name).geometry
            addresses = rng.integers(0, geometry.capacity_bytes, size=256)
            coords = geometry.decompose(addresses)
            for field, values in zip(
                ("channel", "rank", "bank", "row", "column"), coords
            ):
                bits = geometry.field_bits(field)
                assert values.min() >= 0
                assert values.max() < (1 << bits) or bits == 0

    def test_high_address_bits_ignored(self):
        geometry = DramGeometry(bank_bits=2, row_bits=4, column_bits=3)
        low = geometry.decompose(np.array([5]))
        high = geometry.decompose(np.array([5 + geometry.capacity_bytes]))
        assert tuple(a[0] for a in low) == tuple(a[0] for a in high)

    def test_bank_xor_hash_is_involution(self, rng):
        geometry = DramGeometry(bank_bits=3, row_bits=6, column_bits=4, bank_xor_row_bits=2)
        addresses = rng.integers(0, geometry.capacity_bytes, size=256)
        np.testing.assert_array_equal(
            geometry.recompose(geometry.decompose(addresses)), addresses
        )

    def test_row_ids_unique_per_bank_row(self):
        geometry = DramGeometry(bank_bits=1, row_bits=2, column_bits=3)
        # Walk every byte: number of distinct row ids == banks * rows.
        addresses = np.arange(geometry.capacity_bytes)
        assert np.unique(geometry.row_ids(addresses)).size == 2 * 4

    def test_aggressors_shared_between_adjacent_victims(self):
        geometry = DramGeometry(bank_bits=0, row_bits=6, column_bits=3)
        assert sorted(geometry.aggressor_row_ids([10]).tolist()) == [9, 11]
        assert sorted(geometry.aggressor_row_ids([10, 11]).tolist()) == [9, 12]
        assert sorted(geometry.aggressor_row_ids([10, 12]).tolist()) == [9, 11, 13]

    def test_aggressors_clamped_at_bank_edges(self):
        geometry = DramGeometry(bank_bits=1, row_bits=2, column_bits=3)
        # Local row 0 of bank 0 -> only row 1; local row 3 -> only row 2.
        assert geometry.aggressor_row_ids([0]).tolist() == [1]
        assert geometry.aggressor_row_ids([3]).tolist() == [2]
        # Row ids 3 and 4 are adjacent numbers in different banks: no sharing.
        assert sorted(geometry.aggressor_row_ids([3, 4]).tolist()) == [2, 5]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"row_bits": 0},
            {"column_bits": 2},
            {"mapping": ("column", "bank", "row", "rank")},
            {"bank_xor_row_bits": 5, "bank_bits": 3},
        ],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DramGeometry(**kwargs)


class TestFlipTemplate:
    def test_generation_deterministic_byte_identical(self, rng):
        # Satellite requirement: template generation is byte-identical for
        # equal seeds, across independently constructed templates.
        addresses = rng.integers(0, 1 << 30, size=4096)
        bits = rng.integers(0, 8, size=4096)
        a = FlipTemplate(seed=1234, flip_probability=0.4)
        b = FlipTemplate(seed=1234, flip_probability=0.4)
        assert a.cell_states(addresses, bits).tobytes() == b.cell_states(
            addresses, bits
        ).tobytes()
        c = FlipTemplate(seed=1235, flip_probability=0.4)
        assert a.cell_states(addresses, bits).tobytes() != c.cell_states(
            addresses, bits
        ).tobytes()

    def test_matches_reference_loop(self, rng):
        template = FlipTemplate(seed=7, flip_probability=0.6, polarity_bias=0.3)
        addresses = rng.integers(0, 1 << 20, size=512)
        bits = rng.integers(0, 32, size=512)
        np.testing.assert_array_equal(
            template.cell_states(addresses, bits),
            template.cell_states_reference(addresses, bits),
        )
        frames = rng.integers(0, 1 << 16, size=512)
        np.testing.assert_array_equal(
            template.cell_states(addresses, bits, frames),
            template.cell_states_reference(addresses, bits, frames),
        )

    def test_probability_extremes(self, rng):
        addresses = rng.integers(0, 1 << 20, size=2000)
        bits = np.zeros(2000, dtype=np.int64)
        stuck = FlipTemplate(seed=3, flip_probability=0.0)
        assert (stuck.cell_states(addresses, bits) == CELL_STUCK).all()
        anti = FlipTemplate(seed=3, flip_probability=1.0, polarity_bias=1.0)
        assert (anti.cell_states(addresses, bits) == CELL_ZERO_TO_ONE).all()
        true_cells = FlipTemplate(seed=3, flip_probability=1.0, polarity_bias=0.0)
        assert (true_cells.cell_states(addresses, bits) == CELL_ONE_TO_ZERO).all()

    def test_feasible_mask_direction_logic(self):
        template = FlipTemplate(seed=5, flip_probability=1.0, polarity_bias=1.0)
        # All cells are anti-cells (0 -> 1): flips of bits stored as 1 are
        # infeasible, flips of bits stored as 0 are feasible.
        plan = BitFlipPlan(
            [BitFlip(0, 0, 0, 0), BitFlip(0, 1, 0, 0)], num_words_total=4
        )
        original_words = np.array([0b01], dtype=np.uint8)  # bit0=1, bit1=0
        mask = template.feasible_mask(plan, original_words)
        assert mask.tolist() == [False, True]

    def test_feasible_mask_matches_reference(self, rng):
        template = FlipTemplate(seed=11, flip_probability=0.5)
        words = rng.integers(0, 64, size=200)
        bits = rng.integers(0, 8, size=200)
        plan = BitFlipPlan.from_arrays(
            words, bits, words * 1, words // 16, num_words_total=64
        )
        original_words = rng.integers(0, 256, size=64).astype(np.uint8)
        np.testing.assert_array_equal(
            template.feasible_mask(plan, original_words),
            template.feasible_mask_reference(plan, original_words),
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"flip_probability": 1.5}, {"polarity_bias": -0.1}, {"seed": -1}],
    )
    def test_invalid_template_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FlipTemplate(**{"seed": 0, **kwargs})


class TestSecdedCode:
    def test_positions_are_distinct_non_powers(self):
        code = SecdedCode(data_bits=64)
        positions = code.positions
        assert np.unique(positions).size == 64
        assert all(p & (p - 1) for p in positions.tolist())
        assert code.check_bits == 8
        assert code.code_bits == 72
        assert code.describe() == "secded(72,64)"

    def test_words_per_codeword(self):
        code = SecdedCode()
        assert code.words_per_codeword(8) == 8
        assert code.words_per_codeword(16) == 4
        assert code.words_per_codeword(32) == 2
        with pytest.raises(ConfigurationError):
            code.words_per_codeword(24)

    def test_syndromes_match_reference(self, rng):
        code = SecdedCode()
        codewords = rng.integers(0, 50, size=400)
        offsets = rng.integers(0, 64, size=400)
        for vec, ref in zip(
            code.syndromes(codewords, offsets),
            code.syndromes_reference(codewords, offsets),
        ):
            np.testing.assert_array_equal(vec, ref)

    def _memory(self, tiny_model):
        view = ParameterView(tiny_model.copy(), ParameterSelector(layers=None))
        return ParameterMemoryMap(
            view, spec=storage_spec("int8"), layout=MemoryLayout(base_address=0)
        )

    def test_single_flip_corrected_away(self, tiny_model):
        code = SecdedCode()
        memory = self._memory(tiny_model)
        plan = BitFlipPlan([BitFlip(0, 3, 0, 0)], num_words_total=memory.num_words)
        effective, summary = code.apply_to_plan(plan, memory)
        assert effective.num_flips == 0
        assert summary.corrected == 1
        assert summary.alarms == 0

    def test_double_flip_detected(self, tiny_model):
        code = SecdedCode()
        memory = self._memory(tiny_model)
        plan = BitFlipPlan(
            [BitFlip(0, 3, 0, 0), BitFlip(1, 2, 1, 0)],
            num_words_total=memory.num_words,
        )
        effective, summary = code.apply_to_plan(plan, memory)
        assert summary.detected == 1
        assert summary.corrected == 0
        # Detected-uncorrectable flips are delivered (flagged, not repaired).
        assert effective.num_flips == 2

    def test_triple_flip_survives(self, tiny_model):
        code = SecdedCode()
        memory = self._memory(tiny_model)
        plan = BitFlipPlan(
            [BitFlip(0, 3, 0, 0), BitFlip(1, 2, 1, 0), BitFlip(2, 7, 2, 0)],
            num_words_total=memory.num_words,
        )
        effective, summary = code.apply_to_plan(plan, memory)
        assert summary.miscorrected == 1
        assert summary.alarms == 0
        # The attacker's three flips survive; at most one collateral flip.
        assert effective.num_flips in (3, 4)

    def test_invalid_syndrome_raises_alarm(self, tiny_model):
        # Regression: an odd flip group whose syndrome lies beyond the last
        # codeword position (e.g. 3 ^ 9 ^ 66 = 72 > 71) is a provable
        # multi-bit error — it must alarm, not pass as a "check-bit"
        # miscorrection.
        code = SecdedCode()
        memory = self._memory(tiny_model)
        offsets = [int(np.searchsorted(code.positions, p)) for p in (3, 9, 66)]
        assert (3 ^ 9 ^ 66) > int(code.positions[-1])
        flips = [BitFlip(off // 8, off % 8, off // 8, 0) for off in offsets]
        plan = BitFlipPlan(flips, num_words_total=memory.num_words)
        effective, summary = code.apply_to_plan(plan, memory)
        assert summary.alarms == 1
        assert summary.miscorrected == 0
        # Detected-uncorrectable flips are delivered (flagged, not repaired).
        assert effective.num_flips == 3

    def test_nulled_syndrome_passes_clean(self, tiny_model):
        code = SecdedCode()
        memory = self._memory(tiny_model)
        # Three offsets whose Hamming positions XOR to zero: 3 ^ 5 ^ 6 == 0.
        offsets = [int(np.searchsorted(code.positions, p)) for p in (3, 5, 6)]
        flips = [
            BitFlip(off // 8, off % 8, off // 8, 0) for off in offsets
        ]
        plan = BitFlipPlan(flips, num_words_total=memory.num_words)
        unique, syndrome, counts = code.syndromes(
            code.codewords_of(plan.as_arrays()[0], 8),
            code.data_offsets(plan.as_arrays()[0], plan.as_arrays()[1], 8),
        )
        assert syndrome.tolist() == [0]
        effective, summary = code.apply_to_plan(plan, memory)
        # Parity-odd, zero syndrome: decoder blames the parity bit; all three
        # data flips land with no collateral.
        assert effective.num_flips == 3
        assert summary.flips_added == 0

    def test_empty_plan(self, tiny_model):
        code = SecdedCode()
        memory = self._memory(tiny_model)
        effective, summary = code.apply_to_plan(
            BitFlipPlan(num_words_total=memory.num_words), memory
        )
        assert effective.num_flips == 0
        assert summary.codewords_touched == 0


class TestProfiles:
    def test_shipped_profiles_registered(self):
        assert set(list_profiles()) >= {
            "ddr3-noecc",
            "ddr4-trr",
            "server-ecc",
            "hbm2-gpu",
        }

    def test_get_profile_roundtrip(self):
        profile = get_profile("server-ecc")
        assert profile.name == "server-ecc"
        assert get_profile(profile) is profile
        assert profile.ecc is not None

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            get_profile("sram-1985")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_profile(DEVICE_PROFILES["ddr3-noecc"])

    def test_profiles_derive_budgets(self):
        for name in list_profiles():
            profile = get_profile(name)
            budget = profile.budget()
            assert isinstance(budget, HardwareBudget)
            assert budget.constrained
            assert budget.max_flips_per_word == profile.max_flips_per_word
            assert budget.max_rows == profile.max_rows

    def test_template_derivation_stable_and_distinct(self):
        a = get_profile("ddr3-noecc").template()
        b = get_profile("ddr3-noecc").template()
        assert a == b
        assert a != get_profile("server-ecc").template()
        assert a != get_profile("ddr3-noecc").template(seed=1)

    def test_layout_uses_geometry(self):
        profile = get_profile("hbm2-gpu")
        layout = profile.layout()
        assert layout.geometry is profile.geometry
        assert layout.row_bytes == profile.geometry.row_bytes

    def test_injector_uses_geometry(self):
        injector = get_profile("ddr4-trr").injector()
        assert injector.geometry is get_profile("ddr4-trr").geometry


class TestDeviceAwareRepair:
    """Template/ECC-aware plan repair on a real solved attack."""

    def _memory_and_target(self, attack_result, spec_name="int8"):
        model = attack_result.view.model.copy()
        view = ParameterView(model, attack_result.view.selector)
        memory = ParameterMemoryMap(
            view,
            spec=storage_spec(spec_name),
            layout=MemoryLayout(base_address=0, row_bytes=64),
        )
        target = view.baseline + attack_result.delta
        return memory, target

    def test_surviving_planned_flips_are_feasible(self, attack_result):
        memory, target = self._memory_and_target(attack_result)
        plan = plan_bit_flips(memory, target)
        template = FlipTemplate(seed=42, flip_probability=0.5)
        repair = repair_plan(plan, memory, target, template=template)
        assert repair.flips_infeasible > 0, "fixture template must bite"
        feasible = template.feasible_mask(
            repair.plan, memory.read_words(), repair.frames
        )
        assert feasible.all()

    def test_ecc_repair_leaves_no_correctable_codeword(self, attack_result):
        memory, target = self._memory_and_target(attack_result)
        plan = plan_bit_flips(memory, target)
        ecc = SecdedCode()
        repair = repair_plan(plan, memory, target, ecc=ecc)
        word_index, bit, _, _ = repair.plan.as_arrays()
        _, _, counts = ecc.syndromes(
            ecc.codewords_of(word_index, 8), ecc.data_offsets(word_index, bit, 8)
        )
        assert (counts != 1).all(), "no codeword may decode as a single error"

    def test_ecc_single_flip_rerouted_not_lost(self, tiny_model, tiny_split):
        """Acceptance scenario, deterministic: a one-bit word delta is undone
        by ECC unless the repair re-routes it through >= 3 flips."""
        selector = ParameterSelector(
            layers=["fc_logits"], include_weights=False, include_biases=True
        )
        model = tiny_model.copy()
        view = ParameterView(model, selector)
        spec = storage_spec("int8")
        memory = ParameterMemoryMap(view, spec=spec, layout=MemoryLayout(base_address=0))
        # Target: flip exactly bit 6 of word 0 (a one-LSB<<6 bias change).
        words = memory.read_words().copy()
        words[0] ^= 1 << 6
        target = ParameterMemoryMap(view, spec=spec, layout=MemoryLayout(base_address=0))
        target.write_words(words)
        target_values = target.decoded_values()

        plan = plan_bit_flips(memory, target_values)
        assert plan.num_flips == 1

        ecc = SecdedCode()
        # Without repair, the controller corrects the lone flip away.
        effective, summary = ecc.apply_to_plan(plan, memory)
        assert effective.num_flips == 0 and summary.corrected == 1

        # With repair, the word is re-encoded through an odd >= 3 flip set
        # that decodes cleanly and lands within an LSB or two of the target.
        repair = repair_plan(plan, memory, target_values, ecc=ecc)
        assert repair.codewords_padded == 1
        executed, summary = ecc.apply_to_plan(repair.plan, memory)
        assert summary.corrected == 0 and summary.alarms == 0
        memory.apply_plan(executed)
        achieved = memory.decoded_values()
        assert abs(float(achieved[0] - target_values[0])) <= 3 / spec.scale

    def test_lower_attack_with_profile_end_to_end(self, attack_result, tiny_split):
        report = lower_attack(
            attack_result,
            storage="int8",
            profile="server-ecc",
            context=EvaluationContext(attack_result.view.model, tiny_split.test),
        )
        assert report.device.name == "server-ecc"
        assert report.executed is not None
        assert report.ecc_summary is not None
        record = report.as_dict()
        for key in (
            "flips_infeasible",
            "flips_rerouted",
            "ecc_corrected",
            "ecc_alarms",
            "unrepaired_success",
        ):
            assert key in record
        assert np.isfinite(record["unrepaired_success"])
        assert 0.0 <= record["bit_true_success"] <= 1.0

    def test_profile_roundtrip_reproduces_reported_rates(
        self, attack_result, tiny_model
    ):
        """Acceptance: the executed (post-ECC) plan applied flip by flip to a
        fresh memory reproduces exactly the reported success/keep rates."""
        report = lower_attack(attack_result, storage="int8", profile="server-ecc")

        model = tiny_model.copy()
        view = ParameterView(model, attack_result.view.selector)
        memory = ParameterMemoryMap(
            view, spec=storage_spec("int8"), layout=get_profile("server-ecc").layout()
        )
        for flip in report.executed.flips:
            memory.flip_bit(flip.word_index, flip.bit)
        memory.flush_to_model()

        np.testing.assert_array_equal(
            view.gather(),
            ParameterView(report.attacked_model, attack_result.view.selector).gather(),
        )
        attack_plan = attack_result.plan
        predictions = model.predict(attack_plan.images)
        desired = attack_plan.desired_labels
        s = attack_plan.num_targets
        assert float((predictions[:s] == desired[:s]).mean()) == pytest.approx(
            report.success_rate
        )
        assert float((predictions[s:] == desired[s:]).mean()) == pytest.approx(
            report.keep_rate
        )
