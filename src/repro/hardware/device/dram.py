"""DRAM geometry: address bit-slicing and aggressor/victim row adjacency.

A physical byte address is not a flat offset inside one long row: the memory
controller slices it into channel / rank / bank / row / column fields (the
*address mapping*), so consecutive addresses interleave across banks and two
addresses one byte apart can live in different rows of different banks.
:class:`DramGeometry` models that slicing with a configurable field order and
an optional bank-XOR hash (controllers XOR low row bits into the bank index to
spread row-buffer conflicts), and derives the quantities the rest of the
hardware layer consumes:

* vectorised :meth:`DramGeometry.decompose` / :meth:`DramGeometry.recompose`
  between byte addresses and :class:`DramCoordinates`;
* a *global row id* per address (:meth:`DramGeometry.row_ids`) that uniquely
  names ``(channel, rank, bank, row)`` — this is what
  :class:`~repro.hardware.memory.MemoryLayout` reports as the DRAM row of a
  bit flip when a geometry is attached;
* the aggressor/victim adjacency model (:meth:`DramGeometry.aggressor_row_ids`)
  replacing the old flat ``row_bytes`` window: a victim row is hammered from
  its physically adjacent rows *within the same bank*, rows at a bank edge
  have a single aggressor, and adjacent victims share aggressors (which is
  what makes multi-row Rowhammer cheaper than one row at a time).

Beyond the simple low-row-bit bank hash, real controllers select banks with
*arbitrary XOR-of-address-bits functions* — the DRAMA side channel (Pessl et
al.) recovered them for shipping Intel/AMD parts.  ``bank_xor_masks`` models
exactly that: one row-bit mask per bank bit, bank bit *i* is XORed with the
parity of ``row & mask[i]``.  :data:`VENDOR_ADDRESS_MAPS` is a small registry
of such recovered functions (scaled down to the modelled row widths, like
every geometry here) and :func:`vendor_geometry` instantiates them.

``cacheline_bytes`` is the write-back granularity of the memory hierarchy in
front of the device: massaging and repair in :mod:`repro.attacks.lowering`
steer placement per cacheline-sized block, because an attacker cannot place
two halves of one cacheline on different physical frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.utils.errors import ConfigurationError, ShapeError

__all__ = [
    "DRAM_FIELDS",
    "DramCoordinates",
    "DramGeometry",
    "VENDOR_ADDRESS_MAPS",
    "list_vendor_maps",
    "vendor_geometry",
]

# Address fields a mapping must order, one entry per field.
DRAM_FIELDS = ("channel", "rank", "bank", "row", "column")


class DramCoordinates(NamedTuple):
    """Decomposed DRAM coordinates (parallel integer arrays)."""

    channel: np.ndarray
    rank: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray


@dataclass(frozen=True)
class DramGeometry:
    """Bit-sliced DRAM address mapping.

    Parameters
    ----------
    channel_bits, rank_bits, bank_bits, row_bits, column_bits:
        Field widths in bits; a field with 0 bits is absent (always 0).
        ``column_bits`` addresses bytes within a row, so a row holds
        ``2**column_bits`` bytes.
    mapping:
        LSB-to-MSB order in which the fields are sliced out of an address;
        must be a permutation of :data:`DRAM_FIELDS`.  The default interleaves
        channels below banks (column / channel / bank / rank / row), the
        common open-page mapping.
    bank_xor_row_bits:
        Number of low row bits XOR-folded into the bank index (controller
        bank hashing).  0 disables the hash.  Shorthand for
        ``bank_xor_masks = (1, 2, 4, ...)``; mutually exclusive with it.
    bank_xor_masks:
        Vendor-style bank hash: one row-bit mask per bank bit, LSB first.
        Bank bit ``i`` is XORed with the parity of ``row & bank_xor_masks[i]``
        (a DRAMA-recovered XOR-of-address-bits function expressed over the
        row field).  Masks beyond ``bank_bits`` are rejected; an empty tuple
        disables the hash.
    cacheline_bytes:
        Write-back granularity of the cache hierarchy in front of the
        device: memory massaging places data per cacheline-sized block.
        Must be a power of two and at least 8 (one ECC codeword).
    """

    channel_bits: int = 0
    rank_bits: int = 0
    bank_bits: int = 3
    row_bits: int = 12
    column_bits: int = 10
    mapping: tuple[str, ...] = ("column", "channel", "bank", "rank", "row")
    bank_xor_row_bits: int = 0
    bank_xor_masks: tuple[int, ...] = ()
    cacheline_bytes: int = 8

    def __post_init__(self):
        for name in DRAM_FIELDS:
            if self.field_bits(name) < 0:
                raise ConfigurationError(f"{name}_bits must be non-negative")
        if self.row_bits < 1:
            raise ConfigurationError("row_bits must be >= 1")
        if self.column_bits < 3:
            raise ConfigurationError(
                "column_bits must be >= 3 (rows must hold at least one ECC codeword)"
            )
        if sorted(self.mapping) != sorted(DRAM_FIELDS):
            raise ConfigurationError(
                f"mapping must be a permutation of {DRAM_FIELDS}, got {self.mapping}"
            )
        if not 0 <= self.bank_xor_row_bits <= min(self.bank_bits, self.row_bits):
            raise ConfigurationError(
                "bank_xor_row_bits must be in [0, min(bank_bits, row_bits)]"
            )
        if self.bank_xor_row_bits and self.bank_xor_masks:
            raise ConfigurationError(
                "bank_xor_row_bits and bank_xor_masks are mutually exclusive"
            )
        if len(self.bank_xor_masks) > self.bank_bits:
            raise ConfigurationError(
                f"at most {self.bank_bits} bank_xor_masks (one per bank bit)"
            )
        for mask in self.bank_xor_masks:
            if not 0 <= mask < (1 << self.row_bits):
                raise ConfigurationError(
                    f"bank_xor_masks must address row bits only, got {mask:#x}"
                )
        if self.cacheline_bytes < 8 or self.cacheline_bytes & (self.cacheline_bytes - 1):
            raise ConfigurationError(
                "cacheline_bytes must be a power of two >= 8 (one ECC codeword)"
            )

    # -- derived sizes ---------------------------------------------------------------
    def field_bits(self, name: str) -> int:
        """Width of one address field in bits."""
        return int(getattr(self, f"{name}_bits"))

    @property
    def address_bits(self) -> int:
        """Total mapped address width."""
        return sum(self.field_bits(name) for name in DRAM_FIELDS)

    @property
    def capacity_bytes(self) -> int:
        """Bytes addressed by the mapping (higher address bits are ignored)."""
        return 1 << self.address_bits

    @property
    def row_bytes(self) -> int:
        """Bytes per DRAM row."""
        return 1 << self.column_bits

    @property
    def rows_per_bank(self) -> int:
        return 1 << self.row_bits

    @property
    def num_banks(self) -> int:
        """Total banks across all channels and ranks."""
        return 1 << (self.channel_bits + self.rank_bits + self.bank_bits)

    @property
    def hash_masks(self) -> tuple[int, ...]:
        """Effective per-bank-bit row masks of the bank hash (may be empty).

        ``bank_xor_row_bits = k`` is the special case ``(1, 2, 4, ..., 2**(k-1))``:
        bank bit *i* XORed with row bit *i*.
        """
        if self.bank_xor_masks:
            return self.bank_xor_masks
        return tuple(1 << i for i in range(self.bank_xor_row_bits))

    def describe(self) -> str:
        """Compact human-readable geometry summary."""
        return (
            f"{1 << self.channel_bits}ch x {1 << self.rank_bits}rk x "
            f"{1 << self.bank_bits}bk x {self.rows_per_bank} rows x "
            f"{self.row_bytes} B/row"
        )

    def _hash_bank(self, bank: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Apply the bank hash (an involution: applying it twice undoes it)."""
        for i, mask in enumerate(self.hash_masks):
            parity = np.zeros_like(row)
            bit = 0
            remaining = mask
            while remaining:
                if remaining & 1:
                    parity ^= (row >> bit) & 1
                remaining >>= 1
                bit += 1
            bank = bank ^ (parity << i)
        return bank

    # -- address slicing -------------------------------------------------------------
    def decompose(self, addresses) -> DramCoordinates:
        """Slice byte addresses into DRAM coordinates (vectorised).

        Address bits above :attr:`address_bits` are ignored (they would select
        a DIMM or physical region outside the modelled device), so any
        non-negative address is accepted.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and addresses.min() < 0:
            raise ConfigurationError("addresses must be non-negative")
        offset = addresses & (self.capacity_bytes - 1)
        fields: dict[str, np.ndarray] = {}
        shift = 0
        for name in self.mapping:
            bits = self.field_bits(name)
            fields[name] = (offset >> shift) & ((1 << bits) - 1)
            shift += bits
        if self.hash_masks:
            fields["bank"] = self._hash_bank(fields["bank"], fields["row"])
        return DramCoordinates(**fields)

    def recompose(self, coords: DramCoordinates) -> np.ndarray:
        """Inverse of :meth:`decompose`: coordinates back to byte offsets."""
        arrays = {
            name: np.asarray(value, dtype=np.int64)
            for name, value in zip(DRAM_FIELDS, coords)
        }
        for name, values in arrays.items():
            bits = self.field_bits(name)
            if values.size and (values.min() < 0 or values.max() >= (1 << bits)):
                raise ShapeError(
                    f"{name} coordinates out of range for a {bits}-bit field"
                )
        if self.hash_masks:
            # The bank hash is an involution, so undoing it is re-applying it.
            arrays = dict(arrays, bank=self._hash_bank(arrays["bank"], arrays["row"]))
        address = np.zeros_like(arrays["row"])
        shift = 0
        for name in self.mapping:
            bits = self.field_bits(name)
            address = address | (arrays[name] << shift)
            shift += bits
        return address

    # -- rows and adjacency ----------------------------------------------------------
    def row_ids(self, addresses) -> np.ndarray:
        """Global row id of each address: unique per (channel, rank, bank, row).

        Ids are laid out as ``bank_linear * rows_per_bank + row``, so two ids
        differing by 1 are physically adjacent rows of the same bank (except
        across a bank boundary, which :meth:`aggressor_row_ids` respects).
        """
        coords = self.decompose(addresses)
        bank_linear = (
            ((coords.channel << self.rank_bits) | coords.rank) << self.bank_bits
        ) | coords.bank
        return (bank_linear << self.row_bits) | coords.row

    def local_rows(self, row_ids) -> np.ndarray:
        """In-bank row index of each global row id."""
        return np.asarray(row_ids, dtype=np.int64) & (self.rows_per_bank - 1)

    def aggressor_row_ids(self, victim_row_ids) -> np.ndarray:
        """Distinct aggressor rows needed to hammer the given victim rows.

        A victim is hammered from the physically adjacent rows of its own
        bank.  Victim rows cannot serve as aggressors (their cells are the
        ones being attacked), rows at a bank edge have a single neighbour,
        and neighbours shared between adjacent victims are counted once —
        the amortisation that makes clustered victim rows cheap.
        """
        victims = np.unique(np.asarray(victim_row_ids, dtype=np.int64))
        if not victims.size:
            return np.empty(0, dtype=np.int64)
        local = self.local_rows(victims)
        below = victims[local > 0] - 1
        above = victims[local < self.rows_per_bank - 1] + 1
        candidates = np.unique(np.concatenate([below, above]))
        return np.setdiff1d(candidates, victims, assume_unique=True)


# -- vendor address maps --------------------------------------------------------------
#
# Bank-address functions recovered with the DRAMA timing side channel (Pessl
# et al., USENIX Security 2016), expressed over the *row* field of the scaled
# geometries used here.  The published functions XOR pairs (or small groups)
# of physical address bits into each bank bit — e.g. Haswell dual-channel
# DDR3 uses BA_i = a_{14+i} ^ a_{18+i} — so the scaled masks preserve the
# structure (pairwise XOR at a fixed stride, or wider fold-ins) rather than
# the absolute bit indices.
VENDOR_ADDRESS_MAPS: dict[str, dict] = {
    # Sandy Bridge: bank bits XOR one higher row bit each (stride 3).
    "drama-sandybridge": dict(
        rank_bits=1,
        bank_bits=3,
        row_bits=12,
        column_bits=10,
        bank_xor_masks=(0b000001001, 0b000010010, 0b000100100),
    ),
    # Haswell: pairwise XOR at stride 4 (BA_i = r_i ^ r_{i+4}).
    "drama-haswell": dict(
        rank_bits=1,
        bank_bits=3,
        row_bits=13,
        column_bits=10,
        bank_xor_masks=(0b000010001, 0b000100010, 0b001000100),
    ),
    # Skylake DDR4: 4 bank bits, wider 3-bit folds per bank bit.
    "drama-skylake": dict(
        bank_bits=4,
        row_bits=13,
        column_bits=10,
        bank_xor_masks=(0b001000101, 0b010001010, 0b100010100, 0b000101001),
    ),
}


def list_vendor_maps() -> tuple[str, ...]:
    """Names of the registered DRAMA-recovered vendor address maps, sorted."""
    return tuple(sorted(VENDOR_ADDRESS_MAPS))


def vendor_geometry(name: str, **overrides) -> DramGeometry:
    """Instantiate the geometry of a published vendor address map.

    ``overrides`` replace individual geometry fields (e.g. a different
    ``cacheline_bytes``) on top of the registered map.
    """
    try:
        params = VENDOR_ADDRESS_MAPS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown vendor address map {name!r}; registered: {list_vendor_maps()}"
        ) from exc
    return DramGeometry(**{**params, **overrides})
