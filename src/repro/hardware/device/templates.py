"""Per-cell flip templates from a seeded templating simulation.

Rowhammer does not flip arbitrary bits: each DRAM cell either never flips, or
flips in exactly one direction determined by its physical true-cell /
anti-cell orientation (Kim et al.).  Attackers therefore *template* a module
first — hammer every row with known patterns and record which cells flipped
which way — and then massage the victim's data onto compatible cells.

:class:`FlipTemplate` models the outcome of that templating pass.  Every cell
(byte address, bit) of the device gets one of three states — stuck,
0→1-flippable, or 1→0-flippable — drawn from a counter-based hash of the
template seed and the cell's physical position, so the full map never needs
materialising: :meth:`FlipTemplate.cell_states` evaluates any set of cells
vectorised, is byte-identical for equal seeds across processes, and two
profiles (or two templated modules) with different seeds disagree almost
everywhere.

A planned bit flip is *feasible* only where its direction (taken from the
original stored bit) matches the cell state; :meth:`FlipTemplate.feasible_mask`
computes that per flip of a :class:`~repro.hardware.bitflip.BitFlipPlan`.

Feasibility is the *deterministic* half of the model.  Real hammering is
probabilistic on top of it: a feasible cell flips in any one hammer burst
with some per-cell probability (charge retention varies cell to cell, and
patterns that split their activation budget land fewer flips).
:meth:`FlipTemplate.cell_flip_probabilities` derives that per-cell landing
probability from the same counter-based hash — ``landing_probability``
(scaled by a pattern's ``flip_yield``) sets the base rate and a hashed
per-cell exponent spreads cells around it — and
:meth:`FlipTemplate.sample_flips` draws one Monte-Carlo outcome per planned
flip from a caller-supplied :class:`numpy.random.Generator`.  A base
probability of exactly 1.0 makes every per-cell probability exactly 1.0, so
``sample_flips`` then reproduces ``feasible_mask`` bit for bit and the
deterministic pipeline is the probability-1.0 special case.

Every lookup accepts an optional ``frames`` array modelling *memory
massaging*: attackers do not accept wherever the OS happens to place the
victim's rows — they steer each row onto one of many templated physical rows
(frames) whose cell map suits the flips that row needs.  A frame id is folded
into the cell hash, so ``frame = row * K + k`` gives every row ``K``
independent candidate templates; the repair pass in
:mod:`repro.attacks.lowering` picks the best ``k`` per row.  ``frames=None``
is the un-massaged default placement (frame 0 of each row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # annotation-only: keeps this module import-light
    from repro.hardware.bitflip import BitFlipPlan

__all__ = [
    "CELL_STUCK",
    "CELL_ZERO_TO_ONE",
    "CELL_ONE_TO_ZERO",
    "FlipTemplate",
]

# Cell states produced by the templating simulation.
CELL_STUCK = 0  # cell never flips under hammering
CELL_ZERO_TO_ONE = 1  # anti-cell: a stored 0 can be hammered to 1
CELL_ONE_TO_ZERO = 2  # true cell: a stored 1 can be hammered to 0

# splitmix64 finalizer constants (Steele et al.) — a stateless, invertible
# 64-bit mix whose outputs pass statistical tests; evaluating it per cell is
# what makes the template both lazy and reproducible.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U24 = float(1 << 24)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    z = values + _GOLDEN  # a fresh array: the steps below run in place
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _u24_threshold(probability: float) -> np.uint64:
    # For an integer draw u, u / 2**24 >= p exactly when u >= ceil(p * 2**24):
    # scaling by a power of two is exact, so the draws need no float cast.
    return np.uint64(math.ceil(probability * _U24))


@dataclass(frozen=True)
class FlipTemplate:
    """Deterministic per-cell flip-polarity map of one templated module.

    Parameters
    ----------
    seed:
        Template seed; derive it with :func:`repro.utils.rng.derive_seed`
        from the profile name (as :meth:`DeviceProfile.template` does) so
        serial and parallel campaign runs see the identical module.
    flip_probability:
        Fraction of cells that flip at all under hammering.  Real modules
        are far sparser; the simulation uses denser maps so the benchmark
        models' small memories contain usable cells.
    polarity_bias:
        Probability that a flippable cell is an anti-cell (0→1) rather than
        a true cell (1→0).
    landing_probability:
        Base probability that a *feasible* cell actually flips in one hammer
        burst.  1.0 (the default) is the deterministic model: every feasible
        flip lands, and :meth:`sample_flips` equals :meth:`feasible_mask`.
    """

    seed: int
    flip_probability: float = 0.5
    polarity_bias: float = 0.5
    landing_probability: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ConfigurationError("flip_probability must be in [0, 1]")
        if not 0.0 <= self.polarity_bias <= 1.0:
            raise ConfigurationError("polarity_bias must be in [0, 1]")
        if not 0.0 < self.landing_probability <= 1.0:
            raise ConfigurationError("landing_probability must be in (0, 1]")

    @property
    def _seed_mix(self) -> np.uint64:
        # Pre-folded (seed * GOLDEN) mod 2**64, computed in Python ints so
        # numpy scalar-overflow warnings never fire.
        return np.uint64((self.seed * int(_GOLDEN)) & ((1 << 64) - 1))

    # -- cell states -----------------------------------------------------------------
    def _mixed(self, addresses, bits, frames) -> np.ndarray:
        """splitmix64 draw of every cell of the broadcast inputs.  Frame ids
        are hashed at their own shape, e.g. once per (frame, word)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        cell = (addresses.astype(np.uint64) << np.uint64(3)) + bits.astype(np.uint64)
        key = self._seed_mix
        if frames is not None:
            # XOR is associative: fold the seed into the frame hashes first.
            key = _splitmix64(np.asarray(frames, dtype=np.int64).astype(np.uint64)) ^ key
        return _splitmix64(cell ^ key)

    def _draws(self, addresses, bits, frames) -> tuple[np.ndarray, np.ndarray]:
        """``(flippable, anti_cell)`` masks of every cell, from integer draws."""
        mixed = self._mixed(addresses, bits, frames)
        flippable = (mixed >> np.uint64(40)) < _u24_threshold(self.flip_probability)
        # The polarity draw is bits 16..39; compare it in place, unshifted.
        mixed &= np.uint64(0xFFFFFF << 16)
        anti_cell = mixed < (_u24_threshold(self.polarity_bias) << np.uint64(16))
        return flippable, anti_cell

    def cell_states(self, addresses, bits, frames=None) -> np.ndarray:
        """Vectorised template lookup: one cell state per (byte address, bit).

        ``addresses`` are word byte addresses and ``bits`` bit positions
        within the word (little-endian), so ``address * 8 + bit`` is the
        cell's global bit index; equal seeds give byte-identical results.
        ``frames`` (optional) selects the massaged physical frame of each
        cell's row — different frame ids give independent templates.  The
        three inputs broadcast against each other, and the result takes
        their broadcast shape.
        """
        flippable, anti_cell = self._draws(addresses, bits, frames)
        states = np.where(anti_cell, np.uint8(CELL_ZERO_TO_ONE), np.uint8(CELL_ONE_TO_ZERO))
        return np.where(flippable, states, np.uint8(CELL_STUCK))

    def cell_states_reference(self, addresses, bits, frames=None) -> np.ndarray:
        """Pure-Python cell lookup (behavioural reference for tests/benches)."""
        mask = (1 << 64) - 1

        def mix(z: int) -> int:
            z = (z + int(_GOLDEN)) & mask
            z = ((z ^ (z >> 30)) * int(_MIX1)) & mask
            z = ((z ^ (z >> 27)) * int(_MIX2)) & mask
            return z ^ (z >> 31)

        frame_list = (
            np.asarray(frames).tolist()
            if frames is not None
            else [None] * np.asarray(addresses).size
        )
        states = []
        for address, bit, frame in zip(
            np.asarray(addresses).tolist(), np.asarray(bits).tolist(), frame_list
        ):
            cell = (address * 8 + bit) & mask
            if frame is not None:
                cell ^= mix(frame & mask)
            z = mix(cell ^ int(self._seed_mix))
            if (z >> 40) / _U24 >= self.flip_probability:
                states.append(CELL_STUCK)
            elif ((z >> 16) & 0xFFFFFF) / _U24 < self.polarity_bias:
                states.append(CELL_ZERO_TO_ONE)
            else:
                states.append(CELL_ONE_TO_ZERO)
        return np.asarray(states, dtype=np.uint8)

    # -- plan feasibility ------------------------------------------------------------
    def feasible_cells(
        self, addresses, bits, original_bit_values, frames=None
    ) -> np.ndarray:
        """Whether flipping each cell away from its original value is possible.

        A stored 1 needs a true cell (1→0) and a stored 0 an anti-cell
        (0→1); all four inputs broadcast as in :meth:`cell_states`.
        """
        flippable, anti_cell = self._draws(addresses, bits, frames)
        stored_one = np.asarray(original_bit_values, dtype=np.int64) == 1
        return flippable & (anti_cell != stored_one)

    def feasible_mask(
        self, plan: BitFlipPlan, original_words: np.ndarray, frames=None
    ) -> np.ndarray:
        """Vectorised per-flip feasibility of a plan against this template.

        A flip's direction is taken from the original stored word (all flips
        of a plan are applied to the original data), so a requested 0→1 flip
        is feasible only on an anti-cell and 1→0 only on a true cell.
        Returns a boolean array aligned with the plan's flip order.
        """
        word_index, bit, address, _ = plan.as_arrays()
        original_bits = (np.asarray(original_words)[word_index].astype(np.int64) >> bit) & 1
        return self.feasible_cells(address, bit, original_bits, frames)

    # -- stochastic sampling ---------------------------------------------------------
    def cell_flip_probabilities(self, addresses, bits, frames=None, *, scale=1.0):
        """Per-cell probability that a feasible flip lands in one hammer burst.

        The base rate is ``landing_probability * scale`` (``scale`` is how a
        :class:`~repro.hardware.device.mitigations.HammerPattern` feeds its
        ``flip_yield`` in: splitting or throttling the activation budget costs
        landing probability, not just per-row flip count).  Cells vary around
        the base through a hashed exponent in ``[0.5, 2)`` — weak cells land
        more reliably, marginal cells less — drawn from the same splitmix64
        stream as the polarity map, so the probability map is as lazy,
        deterministic and process-stable as the template itself.  A base of
        exactly 1.0 yields exactly 1.0 everywhere (``1**e == 1``), which is
        what makes the deterministic pipeline the probability-1.0 special
        case of the sampled one.
        """
        base = min(max(float(self.landing_probability) * float(scale), 0.0), 1.0)
        if base >= 1.0:
            inputs = (addresses, bits) if frames is None else (addresses, bits, frames)
            return np.ones(np.broadcast(*inputs).shape, dtype=np.float64)
        mixed = self._mixed(addresses, bits, frames)
        # The low 16 bits are the only slice not already spent on the flip /
        # polarity draws; map them to an exponent in [0.5, 2).
        u = (mixed & np.uint64(0xFFFF)).astype(np.float64) / float(1 << 16)
        return np.power(base, np.exp2(2.0 * u - 1.0))

    def sample_flips(
        self,
        plan: BitFlipPlan,
        original_words: np.ndarray,
        rng: np.random.Generator,
        frames=None,
        *,
        scale=1.0,
    ) -> np.ndarray:
        """One Monte-Carlo outcome of hammering a plan: which flips land.

        A flip lands when its cell is feasible (:meth:`feasible_mask`) *and*
        its Bernoulli draw from ``rng`` clears the cell's landing probability.
        Exactly ``plan.num_flips`` uniforms are consumed from ``rng``
        regardless of feasibility, so equal generator states give identical
        samples — the same-seed determinism contract the Monte-Carlo trials
        in :func:`repro.attacks.lowering.lower_attack` rely on.  With a base
        probability of 1.0 every draw clears (uniforms live in ``[0, 1)``)
        and the sample equals ``feasible_mask`` bit for bit.
        """
        feasible = self.feasible_mask(plan, original_words, frames)
        _, bit, address, _ = plan.as_arrays()
        probabilities = self.cell_flip_probabilities(address, bit, frames, scale=scale)
        return feasible & (rng.random(probabilities.shape) < probabilities)

    def feasible_mask_reference(
        self, plan: BitFlipPlan, original_words: np.ndarray, frames=None
    ) -> np.ndarray:
        """Pure-Python feasibility loop (reference for the micro-bench gate)."""
        original_words = np.asarray(original_words)
        frame_list = (
            np.asarray(frames).tolist() if frames is not None else [None] * plan.num_flips
        )
        mask = []
        for flip, frame in zip(plan.flips, frame_list):
            original_bit = (int(original_words[flip.word_index]) >> flip.bit) & 1
            needed = CELL_ONE_TO_ZERO if original_bit else CELL_ZERO_TO_ONE
            state = int(
                self.cell_states_reference(
                    [flip.address], [flip.bit], None if frame is None else [frame]
                )[0]
            )
            mask.append(state == needed)
        return np.asarray(mask, dtype=bool)
