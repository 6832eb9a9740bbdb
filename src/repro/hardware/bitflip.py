"""Bit-flip planning.

Given the original parameter words and the words encoding the attacked
parameters, the *bit-flip plan* is the exact set of (word index, bit position)
pairs whose logic value must change.  Its size is the hardware-level cost that
the paper's ℓ0 objective is a proxy for; the injector models in
:mod:`repro.hardware.injectors` consume the plan to estimate attack effort and
the lowering pipeline in :mod:`repro.attacks.lowering` repairs it under
hardware budgets.

The plan is stored as four parallel integer arrays (word index, bit, byte
address, DRAM row) rather than a list of flip objects: planning, histogramming
and applying a plan are then pure NumPy operations, and :class:`BitFlip`
objects are only materialised when a caller iterates :attr:`BitFlipPlan.flips`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from repro.utils.errors import ShapeError

if TYPE_CHECKING:  # import only for annotations: avoids a memory<->bitflip cycle
    from repro.hardware.memory import ParameterMemoryMap

__all__ = ["BitFlip", "BitFlipPlan", "plan_bit_flips", "plan_bit_flips_reference"]


class BitFlip(NamedTuple):
    """A single bit flip in the simulated parameter memory."""

    word_index: int
    bit: int
    address: int
    row: int


def _as_flip_arrays(flips: Iterable[BitFlip]) -> tuple[np.ndarray, ...]:
    columns = list(zip(*flips))
    if not columns:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(4))
    return tuple(np.asarray(column, dtype=np.int64) for column in columns)


class BitFlipPlan:
    """The full set of bit flips realising a parameter modification.

    Every statistic (:attr:`num_flips`, :attr:`num_words_touched`,
    :attr:`rows_touched`, the per-word/per-row histograms) is derived from the
    current flip set, so mutating the plan — appending flips, or the budget
    repair in :func:`repro.attacks.lowering.repair_plan` selecting a subset —
    can never leave a stale precomputed count behind.
    """

    def __init__(self, flips: Iterable[BitFlip] = (), *, num_words_total: int = 0):
        word_index, bit, address, row = _as_flip_arrays(flips)
        self._word_index = word_index
        self._bit = bit
        self._address = address
        self._row = row
        self.num_words_total = int(num_words_total)

    @classmethod
    def from_arrays(
        cls,
        word_index: np.ndarray,
        bit: np.ndarray,
        address: np.ndarray,
        row: np.ndarray,
        *,
        num_words_total: int = 0,
    ) -> "BitFlipPlan":
        """Build a plan directly from parallel flip arrays (no per-flip objects)."""
        arrays = [np.asarray(a, dtype=np.int64) for a in (word_index, bit, address, row)]
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ShapeError("flip arrays must be 1-D and of equal length")
        plan = cls(num_words_total=num_words_total)
        plan._word_index, plan._bit, plan._address, plan._row = arrays
        return plan

    # -- derived statistics ----------------------------------------------------------
    @property
    def flips(self) -> list[BitFlip]:
        """The flips as :class:`BitFlip` objects (materialised on access)."""
        return [
            BitFlip(w, b, a, r)
            for w, b, a, r in zip(
                self._word_index.tolist(),
                self._bit.tolist(),
                self._address.tolist(),
                self._row.tolist(),
            )
        ]

    @property
    def num_flips(self) -> int:
        """Total number of individual bit flips."""
        return int(self._word_index.size)

    @property
    def num_words_touched(self) -> int:
        """Number of distinct words with at least one flip (always up to date)."""
        return int(np.unique(self._word_index).size)

    @property
    def rows_touched(self) -> list[int]:
        """Sorted list of distinct DRAM rows containing at least one flip."""
        return np.unique(self._row).tolist()

    @property
    def num_rows_touched(self) -> int:
        return int(np.unique(self._row).size)

    def flips_per_word(self) -> dict[int, int]:
        """Histogram of flips per touched word."""
        words, counts = np.unique(self._word_index, return_counts=True)
        return dict(zip(words.tolist(), counts.tolist()))

    def flips_per_row(self) -> dict[int, int]:
        """Histogram of flips per touched DRAM row."""
        rows, counts = np.unique(self._row, return_counts=True)
        return dict(zip(rows.tolist(), counts.tolist()))

    def summary(self) -> dict:
        """Headline statistics used by reports and benchmarks."""
        words_touched = self.num_words_touched
        return {
            "bit_flips": self.num_flips,
            "words_touched": words_touched,
            "words_total": self.num_words_total,
            "rows_touched": self.num_rows_touched,
            "mean_flips_per_touched_word": (
                self.num_flips / words_touched if words_touched else 0.0
            ),
        }

    # -- array views -----------------------------------------------------------------
    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return copies of the ``(word_index, bit, address, row)`` arrays."""
        return (
            self._word_index.copy(),
            self._bit.copy(),
            self._address.copy(),
            self._row.copy(),
        )

    def word_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate the plan into per-word XOR masks.

        Returns ``(words, masks)`` where ``words`` holds the distinct touched
        word indices (ascending) and ``masks[i]`` is the XOR of ``1 << bit``
        over all flips of ``words[i]`` — exactly the value to XOR into the raw
        word to execute the plan.  XOR (not OR) aggregation keeps the result
        identical to executing the flips one by one: a duplicated (word, bit)
        pair cancels out, just as two sequential ``flip_bit`` calls would.
        """
        if not self._word_index.size:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        order = np.argsort(self._word_index, kind="stable")
        words = self._word_index[order]
        masks = np.left_shift(np.int64(1), self._bit[order])
        unique, starts = np.unique(words, return_index=True)
        return unique, np.bitwise_xor.reduceat(masks, starts)

    # -- mutation --------------------------------------------------------------------
    def freeze(self) -> "BitFlipPlan":
        """Make the flip arrays read-only and return the plan.

        For plans shared between callers: an in-place write into one of
        them raises instead of reaching every other holder.
        """
        for array in (self._word_index, self._bit, self._address, self._row):
            array.flags.writeable = False
        return self

    def append(self, flip: BitFlip) -> None:
        """Add one flip to the plan (derived statistics update automatically)."""
        self.extend([flip])

    def extend(self, flips: Iterable[BitFlip]) -> None:
        """Add several flips to the plan."""
        word_index, bit, address, row = _as_flip_arrays(flips)
        self._word_index = np.concatenate([self._word_index, word_index])
        self._bit = np.concatenate([self._bit, bit])
        self._address = np.concatenate([self._address, address])
        self._row = np.concatenate([self._row, row])

    def select(self, mask: np.ndarray) -> "BitFlipPlan":
        """Return a new plan keeping only the flips where ``mask`` is true.

        ``mask`` is aligned with the plan's flip order (and therefore with
        :meth:`as_arrays`); the new plan shares ``num_words_total``.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._word_index.shape:
            raise ShapeError(
                f"mask must have shape {self._word_index.shape}, got {mask.shape}"
            )
        return BitFlipPlan.from_arrays(
            self._word_index[mask],
            self._bit[mask],
            self._address[mask],
            self._row[mask],
            num_words_total=self.num_words_total,
        )

    def with_flips(self, words, bits, memory) -> "BitFlipPlan":
        """Return a new plan with extra ``(word, bit)`` flips appended.

        Addresses and DRAM rows of the new flips are derived from
        ``memory``'s layout, so every producer of companion flips (template
        re-routing, ECC padding, decoder miscorrection) stays consistent
        with the plan's own address/row bookkeeping.
        """
        words = np.asarray(words, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        if not words.size:
            return self
        addresses = memory.layout.base_address + words * memory.bytes_per_word
        return BitFlipPlan.from_arrays(
            np.concatenate([self._word_index, words]),
            np.concatenate([self._bit, bits]),
            np.concatenate([self._address, addresses]),
            np.concatenate([self._row, memory.layout.rows_of(addresses)]),
            num_words_total=self.num_words_total,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitFlipPlan):
            return NotImplemented
        return self.num_words_total == other.num_words_total and all(
            np.array_equal(a, b) for a, b in zip(self.as_arrays(), other.as_arrays())
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BitFlipPlan(num_flips={self.num_flips}, "
            f"words_touched={self.num_words_touched}/{self.num_words_total}, "
            f"rows_touched={self.num_rows_touched})"
        )


def plan_bit_flips(memory: ParameterMemoryMap, target_values: np.ndarray) -> BitFlipPlan:
    """Plan the bit flips that turn the memory's current words into ``target_values``.

    The plan is computed fully vectorised: the XOR of the original and target
    words is expanded to a bit matrix with :func:`numpy.unpackbits` and the
    flip arrays fall out of one ``nonzero`` call.  Flips are ordered by word
    index, then ascending bit position.

    Parameters
    ----------
    memory:
        The parameter memory holding the *current* (original) words.
    target_values:
        Desired float parameter values (``θ + δ``), flat vector aligned with
        the memory's parameter view.  Values are first encoded in the memory's
        storage format; the plan realises exactly that encoded value.
    """
    target_values = np.asarray(target_values, dtype=np.float64)
    if target_values.shape != (memory.num_words,):
        raise ShapeError(
            f"target_values must have shape ({memory.num_words},), got {target_values.shape}"
        )
    original_words = memory.read_words()
    target_words = memory.encode(target_values)
    xor = np.bitwise_xor(original_words, target_words)
    touched = np.flatnonzero(xor)

    bytes_per_word = memory.bytes_per_word
    # Little-endian byte expansion: byte k of a word holds bits [8k, 8k+8), so
    # unpacking the bytes with bitorder="little" puts overall bit position b of
    # the word at column b of the bit matrix.
    little_endian = xor[touched].astype(xor.dtype.newbyteorder("<"), copy=False)
    xor_bytes = little_endian.view(np.uint8).reshape(touched.size, bytes_per_word)
    bit_matrix = np.unpackbits(xor_bytes, axis=1, bitorder="little")
    which_word, bit = np.nonzero(bit_matrix)

    word_index = touched[which_word].astype(np.int64)
    address = memory.layout.base_address + word_index * bytes_per_word
    row = memory.layout.rows_of(address)
    return BitFlipPlan.from_arrays(
        word_index,
        bit.astype(np.int64),
        address,
        row,
        num_words_total=memory.num_words,
    )


def plan_bit_flips_reference(
    memory: ParameterMemoryMap, target_values: np.ndarray
) -> BitFlipPlan:
    """Pure-Python planner: per touched word, per bit.

    This is the pre-vectorisation implementation, kept as the single
    behavioural reference that both the unit tests and the
    ``benchmarks/bench_bitflip_plan.py`` speedup gate compare
    :func:`plan_bit_flips` against.  Do not use it on real workloads.
    """
    target_values = np.asarray(target_values, dtype=np.float64)
    if target_values.shape != (memory.num_words,):
        raise ShapeError(
            f"target_values must have shape ({memory.num_words},), got {target_values.shape}"
        )
    original_words = memory.read_words()
    target_words = memory.encode(target_values)
    xor = np.bitwise_xor(original_words, target_words)
    touched = np.flatnonzero(xor)
    bits_per_value = memory.spec.bits_per_value
    flips = []
    for word_index in touched:
        word_xor = int(xor[word_index])
        address = memory.address_of(int(word_index))
        row = memory.layout.row_of(address)
        for bit in range(bits_per_value):
            if word_xor & (1 << bit):
                flips.append(
                    BitFlip(word_index=int(word_index), bit=bit, address=address, row=row)
                )
    return BitFlipPlan(flips, num_words_total=memory.num_words)
