"""Tests for repro.hardware.memory."""

import numpy as np
import pytest

from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.hardware.memory import MemoryLayout, ParameterMemoryMap
from repro.nn.quantization import QuantizationSpec
from repro.utils.errors import ConfigurationError
from repro.zoo.architectures import mlp


@pytest.fixture()
def view():
    model = mlp((6, 6, 1), 4, seed=0, hidden=(10, 8))
    return ParameterView(model, ParameterSelector(layers=("fc_logits",)))


class TestMemoryLayout:
    def test_defaults(self):
        layout = MemoryLayout()
        assert layout.row_bytes == 8192

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            MemoryLayout(row_bytes=0)
        with pytest.raises(ConfigurationError):
            MemoryLayout(base_address=-1)

    def test_row_of(self):
        layout = MemoryLayout(base_address=0, row_bytes=64)
        assert layout.row_of(0) == 0
        assert layout.row_of(63) == 0
        assert layout.row_of(64) == 1


class TestParameterMemoryMap:
    def test_word_count_and_bytes(self, view):
        memory = ParameterMemoryMap(view)
        assert memory.num_words == view.size
        assert memory.total_bytes == view.size * 4

    def test_float16_bytes(self, view):
        memory = ParameterMemoryMap(view, spec=QuantizationSpec("float16"))
        assert memory.bytes_per_word == 2

    def test_address_of(self, view):
        memory = ParameterMemoryMap(view)
        for index in (0, 5, memory.num_words - 1):
            assert memory.address_of(index) == memory.layout.base_address + 4 * index

    def test_address_out_of_range(self, view):
        memory = ParameterMemoryMap(view)
        with pytest.raises(IndexError):
            memory.address_of(memory.num_words)
        with pytest.raises(IndexError):
            memory.address_of(-1)

    def test_decoded_values_match_model(self, view):
        memory = ParameterMemoryMap(view)
        np.testing.assert_allclose(memory.decoded_values(), view.gather(), atol=1e-6)

    def test_read_write_words(self, view):
        memory = ParameterMemoryMap(view)
        words = memory.read_words()
        words[3] = 0xDEADBEEF
        memory.write_words(words)
        assert memory.read_words()[3] == 0xDEADBEEF
        # read_words hands out a copy: editing it leaves the memory alone.
        memory.read_words()[3] = 0
        assert memory.read_words()[3] == 0xDEADBEEF

    def test_write_words_shape_check(self, view):
        memory = ParameterMemoryMap(view)
        with pytest.raises(ConfigurationError):
            memory.write_words(np.zeros(3, dtype=np.uint32))

    def test_flip_bit_involution(self, view):
        memory = ParameterMemoryMap(view)
        original = memory.read_words()[7]
        memory.flip_bit(7, 31)
        assert memory.read_words()[7] == original ^ (1 << 31)
        memory.flip_bit(7, 31)
        assert memory.read_words()[7] == original

    def test_flip_bit_out_of_range(self, view):
        memory = ParameterMemoryMap(view)
        with pytest.raises(ValueError):
            memory.flip_bit(0, 32)

    def test_flush_to_model(self, view):
        memory = ParameterMemoryMap(view)
        target = view.gather() + 0.5
        memory.write_words(memory.encode(target))
        memory.flush_to_model()
        np.testing.assert_allclose(view.gather(), target, atol=1e-6)
        view.restore()

    def test_representable_is_idempotent(self, view):
        memory = ParameterMemoryMap(view, spec=QuantizationSpec("float16"))
        values = view.gather()
        once = memory.representable(values)
        twice = memory.representable(once)
        np.testing.assert_array_equal(once, twice)
