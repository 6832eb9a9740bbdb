"""Tests for repro.hardware.bitflip."""

import numpy as np
import pytest

from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.hardware.bitflip import (
    BitFlip,
    BitFlipPlan,
    plan_bit_flips,
    plan_bit_flips_reference,
)
from repro.hardware.memory import MemoryLayout, ParameterMemoryMap
from repro.nn.quantization import QuantizationSpec
from repro.utils.errors import ShapeError
from repro.zoo.architectures import mlp


@pytest.fixture()
def memory():
    model = mlp((6, 6, 1), 4, seed=0, hidden=(10, 8))
    view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
    return ParameterMemoryMap(view, layout=MemoryLayout(base_address=0, row_bytes=32))


class TestPlanBitFlips:
    def test_identity_plan_is_empty(self, memory):
        plan = plan_bit_flips(memory, memory.view.gather())
        assert plan.num_flips == 0
        assert plan.num_words_touched == 0
        assert plan.rows_touched == []

    def test_single_word_change(self, memory):
        target = memory.view.gather()
        target[0] += 1.0
        plan = plan_bit_flips(memory, target)
        assert plan.num_words_touched == 1
        assert all(flip.word_index == 0 for flip in plan.flips)
        assert plan.num_flips >= 1

    def test_flip_count_matches_xor_popcount(self, memory):
        target = memory.view.gather()
        target[:5] += np.linspace(0.1, 0.5, 5)
        plan = plan_bit_flips(memory, target)
        original = memory.read_words()
        encoded = memory.encode(target)
        expected = int(sum(bin(int(a) ^ int(b)).count("1") for a, b in zip(original, encoded)))
        assert plan.num_flips == expected

    def test_executing_plan_reaches_target(self, memory):
        target = memory.view.gather()
        target[3] -= 0.25
        target[17] += 0.75
        plan = plan_bit_flips(memory, target)
        for flip in plan.flips:
            memory.flip_bit(flip.word_index, flip.bit)
        achieved = memory.decoded_values()
        np.testing.assert_allclose(achieved, memory.representable(target), atol=1e-7)

    def test_rows_touched(self, memory):
        target = memory.view.gather()
        # words 0 and 20 are 80 bytes apart -> different 32-byte rows
        target[0] += 1.0
        target[20] += 1.0
        plan = plan_bit_flips(memory, target)
        assert plan.num_rows_touched == 2

    def test_histograms(self, memory):
        target = memory.view.gather()
        target[0] += 1.0
        plan = plan_bit_flips(memory, target)
        per_word = plan.flips_per_word()
        assert list(per_word) == [0]
        assert per_word[0] == plan.num_flips
        assert sum(plan.flips_per_row().values()) == plan.num_flips

    def test_summary_keys(self, memory):
        plan = plan_bit_flips(memory, memory.view.gather())
        summary = plan.summary()
        assert summary["bit_flips"] == 0
        assert summary["words_total"] == memory.num_words
        assert summary["mean_flips_per_touched_word"] == 0.0

    def test_shape_mismatch(self, memory):
        with pytest.raises(ShapeError):
            plan_bit_flips(memory, np.zeros(3))

    def test_float16_plan_differs(self):
        model = mlp((6, 6, 1), 4, seed=0, hidden=(10, 8))
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        target = view.gather()
        target[:10] += 0.3
        plan32 = plan_bit_flips(ParameterMemoryMap(view, spec=QuantizationSpec("float32")), target)
        plan16 = plan_bit_flips(ParameterMemoryMap(view, spec=QuantizationSpec("float16")), target)
        assert plan32.num_words_touched == plan16.num_words_touched == 10
        assert plan16.num_flips < plan32.num_flips

    @pytest.mark.parametrize(
        "spec",
        [
            None,
            QuantizationSpec("float16"),
            QuantizationSpec("fixed", total_bits=8, frac_bits=6),
        ],
    )
    def test_vectorised_matches_reference_loop(self, spec):
        model = mlp((6, 6, 1), 4, seed=0, hidden=(10, 8))
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        memory = ParameterMemoryMap(
            view, spec=spec, layout=MemoryLayout(base_address=64, row_bytes=32)
        )
        rng = np.random.default_rng(5)
        target = view.gather() + rng.standard_normal(view.size) * 0.4
        fast = plan_bit_flips(memory, target)
        reference = plan_bit_flips_reference(memory, target)
        assert fast == reference
        assert fast.flips == reference.flips


class TestBitFlipPlanMutation:
    def test_num_words_touched_is_derived(self):
        # Regression: the count used to be frozen at construction and went
        # stale as soon as the flip list changed (e.g. during plan repair).
        plan = BitFlipPlan(
            [BitFlip(word_index=0, bit=1, address=0, row=0)], num_words_total=8
        )
        assert plan.num_words_touched == 1
        plan.append(BitFlip(word_index=3, bit=0, address=12, row=0))
        assert plan.num_words_touched == 2
        assert plan.num_flips == 2
        plan.append(BitFlip(word_index=3, bit=2, address=12, row=0))
        assert plan.num_words_touched == 2  # same word: count must not grow
        assert plan.summary()["words_touched"] == 2

    def test_select_subset(self):
        plan = BitFlipPlan(
            [
                BitFlip(word_index=0, bit=0, address=0, row=0),
                BitFlip(word_index=1, bit=3, address=4, row=0),
                BitFlip(word_index=2, bit=7, address=8, row=1),
            ],
            num_words_total=4,
        )
        subset = plan.select([True, False, True])
        assert subset.num_flips == 2
        assert subset.num_words_touched == 2
        assert subset.num_words_total == 4
        assert [f.word_index for f in subset.flips] == [0, 2]
        # the original plan is untouched
        assert plan.num_flips == 3

    def test_select_shape_mismatch(self):
        plan = BitFlipPlan([BitFlip(0, 0, 0, 0)], num_words_total=1)
        with pytest.raises(ShapeError):
            plan.select([True, False])

    def test_select_drops_every_flip_of_a_word(self):
        plan = BitFlipPlan(
            [BitFlip(0, 0, 0, 0), BitFlip(0, 5, 0, 0), BitFlip(2, 1, 8, 1)],
            num_words_total=4,
        )
        word_index = plan.as_arrays()[0]
        remaining = plan.select(word_index != 0)
        assert remaining.num_flips == 1
        assert remaining.flips[0].word_index == 2
        assert remaining.num_words_touched == 1

    def test_word_masks_aggregates_bits(self):
        plan = BitFlipPlan(
            [BitFlip(5, 0, 20, 0), BitFlip(5, 3, 20, 0), BitFlip(1, 7, 4, 0)],
            num_words_total=8,
        )
        words, masks = plan.word_masks()
        assert words.tolist() == [1, 5]
        assert masks.tolist() == [1 << 7, (1 << 0) | (1 << 3)]

    def test_duplicate_flips_cancel_like_sequential_flip_bit(self, memory):
        # Applying the same flip twice is a no-op when executed bit by bit;
        # the aggregated apply_plan must agree (XOR, not OR, aggregation).
        duplicated = BitFlipPlan(
            [BitFlip(0, 3, 0, 0), BitFlip(0, 3, 0, 0), BitFlip(0, 5, 0, 0)],
            num_words_total=memory.num_words,
        )
        words, masks = duplicated.word_masks()
        assert masks.tolist() == [1 << 5]
        before = memory.read_words()
        memory.apply_plan(duplicated)
        after = memory.read_words()
        assert after[0] == before[0] ^ (1 << 5)

    def test_apply_plan_equals_per_flip_execution(self, memory):
        target = memory.view.gather()
        target[2] += 0.4
        target[9] -= 0.7
        plan = plan_bit_flips(memory, target)
        model2 = mlp((6, 6, 1), 4, seed=0, hidden=(10, 8))
        view2 = ParameterView(model2, ParameterSelector(layers=("fc_logits",)))
        other = ParameterMemoryMap(view2, layout=MemoryLayout(base_address=0, row_bytes=32))
        for flip in plan.flips:
            other.flip_bit(flip.word_index, flip.bit)
        memory.apply_plan(plan)
        np.testing.assert_array_equal(memory.read_words(), other.read_words())

    def test_apply_plan_rejects_out_of_range(self, memory):
        bad = BitFlipPlan(
            [BitFlip(memory.num_words, 0, 0, 0)], num_words_total=memory.num_words
        )
        with pytest.raises(IndexError):
            memory.apply_plan(bad)
        bad_bit = BitFlipPlan(
            [BitFlip(0, memory.spec.bits_per_value, 0, 0)],
            num_words_total=memory.num_words,
        )
        with pytest.raises(ValueError):
            memory.apply_plan(bad_bit)
