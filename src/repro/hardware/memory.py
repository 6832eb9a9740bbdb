"""Simulated memory layout of DNN parameters.

:class:`ParameterMemoryMap` assigns every attackable parameter (as selected by
a :class:`~repro.attacks.parameter_view.ParameterView`) a byte address in a
simulated memory, encodes values with a :class:`~repro.nn.quantization.QuantizationSpec`
and supports reading/writing raw words.  This is the substrate on which bit
flips are planned and executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.parameter_view import ParameterView
from repro.nn.quantization import QuantizationSpec, dequantize, quantize
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # annotation-only: device imports memory, not vice versa
    from repro.hardware.device.dram import DramGeometry

__all__ = ["MemoryLayout", "ParameterMemoryMap"]


@dataclass(frozen=True)
class MemoryLayout:
    """Geometry of the simulated memory.

    Parameters
    ----------
    base_address:
        Byte address of the first parameter word.
    row_bytes:
        Bytes per DRAM row (row hammer flips bits within a victim row, so the
        row size determines how flips group into hammering targets).  When a
        ``geometry`` is attached this is derived from it and the passed value
        is ignored.
    geometry:
        Optional :class:`~repro.hardware.device.dram.DramGeometry`.  With a
        geometry, rows are *global row ids* — unique per (channel, rank,
        bank, row), bank-interleaved — instead of flat ``address // row_bytes``
        windows, so adjacency and row budgets follow the device's real
        address mapping.
    """

    base_address: int = 0x1000_0000
    row_bytes: int = 8192
    geometry: "DramGeometry | None" = None

    def __post_init__(self):
        if self.base_address < 0:
            raise ConfigurationError("base_address must be non-negative")
        if self.geometry is not None:
            object.__setattr__(self, "row_bytes", self.geometry.row_bytes)
        if self.row_bytes <= 0:
            raise ConfigurationError("row_bytes must be positive")

    def rows_of(self, addresses) -> np.ndarray:
        """DRAM row of each byte address (vectorised).

        Flat layouts slice addresses into consecutive ``row_bytes`` windows;
        layouts with a geometry return the geometry's global row ids.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if self.geometry is not None:
            return self.geometry.row_ids(addresses)
        return addresses // self.row_bytes

    def row_of(self, address: int) -> int:
        """Return the DRAM row index containing a byte address."""
        return int(self.rows_of(address))


class ParameterMemoryMap:
    """Maps attacked parameters to addresses in a simulated memory.

    Parameters
    ----------
    view:
        Parameter view defining which parameters live in this memory and in
        what order.
    spec:
        Storage format of each parameter word.
    layout:
        Memory geometry (base address, row size).
    """

    def __init__(
        self,
        view: ParameterView,
        *,
        spec: QuantizationSpec | None = None,
        layout: MemoryLayout | None = None,
    ):
        self.view = view
        self.spec = spec or QuantizationSpec("float32")
        self.layout = layout or MemoryLayout()
        self.bytes_per_word = self.spec.bits_per_value // 8
        self._words = quantize(view.gather(), self.spec)

    # -- geometry -------------------------------------------------------------------
    @property
    def num_words(self) -> int:
        """Number of parameter words stored in this memory."""
        return int(self._words.size)

    @property
    def total_bytes(self) -> int:
        """Total simulated memory footprint of the attacked parameters."""
        return self.num_words * self.bytes_per_word

    def address_of(self, index: int) -> int:
        """Byte address of the ``index``-th parameter word."""
        if not 0 <= index < self.num_words:
            raise IndexError(f"parameter index {index} out of range [0, {self.num_words})")
        return self.layout.base_address + index * self.bytes_per_word

    # -- raw word access ---------------------------------------------------------------
    def read_words(self) -> np.ndarray:
        """Return a copy of all raw parameter words."""
        return self._words.copy()

    def write_words(self, words: np.ndarray) -> None:
        """Overwrite all raw parameter words (shape must match)."""
        words = np.asarray(words, dtype=self._words.dtype)
        if words.shape != self._words.shape:
            raise ConfigurationError(
                f"expected {self._words.shape} words, got {words.shape}"
            )
        self._words = words.copy()

    def flip_bit(self, index: int, bit: int) -> None:
        """Flip a single bit of the ``index``-th word."""
        bits = self.spec.bits_per_value
        if not 0 <= bit < bits:
            raise ValueError(f"bit must be in [0, {bits}), got {bit}")
        self._words[index] = self._words[index] ^ self._words.dtype.type(1 << bit)

    def apply_plan(self, plan) -> None:
        """Execute a :class:`~repro.hardware.bitflip.BitFlipPlan` in one shot.

        Equivalent to calling :meth:`flip_bit` for every flip of the plan, but
        vectorised: the plan is aggregated into per-word XOR masks which are
        applied with a single fancy-indexed XOR.
        """
        words, masks = plan.word_masks()
        if not words.size:
            return
        if words.min() < 0 or words.max() >= self.num_words:
            raise IndexError(
                f"plan touches word indices outside [0, {self.num_words})"
            )
        if masks.max() >= 2 ** self.spec.bits_per_value:
            raise ValueError(
                f"plan flips bits outside the {self.spec.bits_per_value}-bit word"
            )
        self._words[words] ^= masks.astype(self._words.dtype)

    # -- value-level access ----------------------------------------------------------------
    def decoded_values(self) -> np.ndarray:
        """Return the float values currently represented by the memory."""
        return dequantize(self._words, self.spec)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode float parameter values into raw words for this memory's format."""
        return quantize(values, self.spec)

    def representable(self, values: np.ndarray) -> np.ndarray:
        """Return the values actually representable in the storage format."""
        return dequantize(self.encode(values), self.spec)

    def flush_to_model(self) -> None:
        """Write the memory's current values back into the live model parameters."""
        self.view.scatter(self.decoded_values())
