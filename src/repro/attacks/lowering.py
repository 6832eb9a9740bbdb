"""Bit-true lowering of a solved attack onto the hardware bit-flip layer.

The ADMM solve in :mod:`repro.attacks.fault_sneaking` produces a continuous
parameter modification ``δ`` whose ℓ0 norm is the paper's *proxy* for hardware
cost.  This module computes the quantity the paper actually cares about: the
exact set of memory bit flips that realises ``θ + δ`` in a deployed storage
format, repaired to respect hardware injection budgets, and the attack's
success/keep rates re-measured on the *bit-true* model (the network whose
parameters are literally the flipped memory words).

The pipeline is::

    FaultSneakingResult ──encode──▶ BitFlipPlan ──repair──▶ repaired plan
         (δ over ℝ)        θ+δ as     (word, bit)    budgets   ──apply──▶
                           words                               bit-true model
                                                               ──▶ LoweringReport

Repair drops or rounds low-impact flips until the plan fits a
:class:`HardwareBudget` (per-word flip limit, row count limit, row-locality
window — the constraints a Rowhammer-style attacker actually faces), then the
margin check and all attack metrics are re-run on the modified model.

Lowering onto a named :class:`~repro.hardware.device.DeviceProfile` adds
device-physics stages on top of the budgets:

* **template feasibility** — each flip must land on a cell whose templated
  polarity matches the requested direction.  Memory massaging first steers
  each page onto the templated frame that serves it best; a word that still
  needs an infeasible flip is re-routed to the closest value its feasible
  cells reach (one batched subset search over all such words,
  :func:`_closest_masks`), and reverts when nothing beats its original
  value;
* **ECC-aware repair** — on an ECC device a lone surviving flip would be
  silently corrected away (and, scheme depending, a pair would raise an
  alarm or silently miscorrect), so vulnerable codewords are *re-routed* by
  one padding driver: companion flips are added on feasible cells of the
  codeword's low-impact words (words the solver left ~unchanged).  Only the
  choice of companions dispatches on the scheme's
  :class:`~repro.hardware.device.ecc.EccScheme` protocol — Hamming schemes
  (SECDED, DDR5 on-die SEC) first re-encode a lone flip's own word through
  a flip set the decoder lets through (the same subset search), then prefer
  companions whose positions null the syndrome so the decoder sees a clean
  codeword; symbol schemes (chipkill) spread flips across a second symbol
  so the codeword alarms but *lands* instead of being corrected away.
  Codewords with no feasible companions are dropped as a last resort;
* **TRR-aware repair** — on devices with a sampler-based target-row-refresh
  tracker, which victim rows can flip at all depends on the hammer pattern
  (:mod:`repro.hardware.device.mitigations`): flips in rows the tracker
  saves are removed, replacing the flat hammerable-row cap with
  pattern-dependent effective budgets.

The template is looked up once per repair stage, never per word or
codeword: once for the touched words' cells on every candidate frame, and
once more for the companion cells of all vulnerable codewords.

On a *stochastic* device (``landing_probability < 1`` templates, or a
:class:`~repro.hardware.device.mitigations.ProbabilisticTrr` tracker) the
repaired plan is only the attack the adversary *runs*; what actually lands
varies burst to burst.  ``lower_attack(..., trials=N, rng=seed)`` therefore
re-executes the repaired plan through ``N`` seeded Monte-Carlo trials — each
trial samples which flips land (:meth:`FlipTemplate.sample_flips`, scaled by
the hammer pattern's ``flip_yield``), re-rolls a probabilistic tracker, pushes
the surviving flips through the ECC decoder, and re-measures the bit-true
rates — and reports mean ± 95 % CI success/keep/accuracy plus the expected
landed-flip count in :class:`TrialStatistics`.  The trials are a pure
function of the seed (``fork_rng`` per trial), so serial and parallel
campaign runs agree byte for byte, and with probability-1.0 templates under
a full-yield pattern (the default ``double-sided``) every trial reproduces
the deterministic plan exactly; reduced-yield patterns scale the landing
probability by their ``flip_yield``, so their trials sample even on
otherwise-deterministic devices.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.attacks.objective import mask_rate
from repro.attacks.parameter_view import ParameterView
from repro.data.dataset import Dataset
from repro.hardware.bitflip import BitFlipPlan, plan_bit_flips
from repro.hardware.device.ecc import EccScheme, EccSummary
from repro.hardware.device.mitigations import (
    HammerPattern,
    ProbabilisticTrr,
    TrrSampler,
    get_pattern,
    plan_hammer,
)
from repro.hardware.device.profiles import DeviceProfile, get_profile
from repro.hardware.device.templates import FlipTemplate
from repro.hardware.memory import MemoryLayout, ParameterMemoryMap
from repro.nn.model import Sequential
from repro.nn.quantization import QuantizationSpec, dequantize, storage_spec
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, fork_rng

if TYPE_CHECKING:  # repro.analysis imports repro.defenses, which imports this module
    from repro.analysis.evaluation import EvaluationContext

__all__ = [
    "HardwareBudget",
    "PlanRepair",
    "TrialOutcome",
    "TrialStatistics",
    "trial_mean",
    "trial_ci",
    "LoweringReport",
    "BitTrueMeasurement",
    "BitTrueScorer",
    "check_env_drift",
    "repair_plan",
    "shared_repairs",
    "lower_attack",
]

def check_env_drift(env_drift: float) -> None:
    """Reject an environmental drift lower_attack cannot run."""
    if not -1.0 < env_drift < 1.0:
        raise ConfigurationError(f"env_drift must lie in (-1, 1), got {env_drift}")


@dataclass(frozen=True)
class HardwareBudget:
    """Injection budgets a bit-flip plan must fit after repair.

    Parameters
    ----------
    max_flips_per_word:
        Most controlled flips realisable within one memory word.  Words whose
        plan exceeds it are *rounded* — only the most significant required
        flips are kept, and the partial write survives only if it lands closer
        to the target value than the original word — or reverted entirely.
    max_rows:
        Most DRAM rows the attacker can hammer; lowest-impact rows are dropped
        first.
    row_window:
        Row-locality constraint: every surviving flip must fall inside a
        window of this many *consecutive* rows (an attacker massaging physical
        memory can typically only control placement within a small contiguous
        region).  The window maximising retained modification impact is kept.

    ``None`` disables a constraint; the default budget is unconstrained.
    """

    max_flips_per_word: int | None = None
    max_rows: int | None = None
    row_window: int | None = None

    def __post_init__(self):
        for name in ("max_flips_per_word", "max_rows", "row_window"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be None or >= 1, got {value}")

    @property
    def constrained(self) -> bool:
        """Whether any budget limit is active."""
        return any(
            value is not None
            for value in (self.max_flips_per_word, self.max_rows, self.row_window)
        )

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        if not self.constrained:
            return "unlimited"
        parts = []
        if self.max_flips_per_word is not None:
            parts.append(f"<= {self.max_flips_per_word} flips/word")
        if self.max_rows is not None:
            parts.append(f"<= {self.max_rows} rows")
        if self.row_window is not None:
            parts.append(f"{self.row_window}-row window")
        return ", ".join(parts)


@dataclass(frozen=True)
class PlanRepair:
    """Outcome of repairing a plan under budgets and device physics.

    ``flips_dropped`` counts planned flips removed (budget violations,
    template-infeasible cells, unrepairable ECC codewords); ``flips_added``
    counts ECC companion flips the repair *routed in* on top of the plan, so
    ``plan.num_flips == planned - flips_dropped + flips_added``.
    """

    plan: BitFlipPlan
    flips_dropped: int
    words_reverted: int
    words_rounded: int
    flips_infeasible: int = 0
    flips_added: int = 0
    codewords_padded: int = 0
    codewords_dropped: int = 0
    # Frame id of each flip of ``plan`` under the page placement the
    # massaging stage chose (None without massaging).
    frames: np.ndarray | None = None
    # The repaired plan as of just before the ECC stage (None without ECC) —
    # the decoder-corrected baseline is measured on this.
    pre_ecc_plan: BitFlipPlan | None = None
    # Hammer pattern the repair planned against (None when no pattern/TRR
    # modelling was requested), rows the TRR tracker saved from flipping,
    # rows the pattern's flip_yield throttled below their planned flips,
    # and the total rows the pattern hammers (aggressors + decoys).
    hammer_pattern: str | None = None
    rows_refreshed: int = 0
    rows_throttled: int = 0
    hammer_rows: int = 0

    @property
    def modified(self) -> bool:
        return self.flips_dropped > 0 or self.flips_added > 0


def _decode_word(word, spec: QuantizationSpec) -> float:
    return float(dequantize(np.array([word], dtype=spec.storage_dtype()), spec)[0])


def _round_overfull_words(
    plan_arrays, keep, memory, original_values, target_repr, limit
) -> int:
    """Round words needing more than ``limit`` flips; returns #words rounded.

    A rounded word keeps its ``limit`` most significant flips only when the
    partial write moves the stored value *closer* to the target than the
    original word; otherwise all of the word's flips are dropped (reverting
    the word costs nothing and never degrades the margin check, while a
    half-written float exponent can be catastrophic).
    """
    word_index, bit = plan_arrays[0], plan_arrays[1]
    original_words = memory.read_words()
    dtype = original_words.dtype
    words, counts = np.unique(word_index[keep], return_counts=True)
    rounded = 0
    for word in words[counts > limit].tolist():
        positions = np.flatnonzero((word_index == word) & keep)
        # Most significant bits first: they dominate the value change.
        best = positions[np.argsort(bit[positions])[::-1][:limit]]
        partial_mask = np.bitwise_or.reduce(np.left_shift(np.int64(1), bit[best]))
        achieved = _decode_word(
            np.bitwise_xor(original_words[word], dtype.type(partial_mask)), memory.spec
        )
        target = float(target_repr[word])
        original = float(original_values[word])
        if abs(achieved - target) < abs(original - target):
            dropped = np.setdiff1d(positions, best)
            keep[dropped] = False
            rounded += 1
        else:
            keep[positions] = False
    return rounded


# Width of the closest-value subset search: the 2**_MASSAGE_BITS value
# candidates per word keep the search exact for int8 words and cover the
# significant bits of wider formats.
_MASSAGE_BITS = 12

# Words searched together: bounds the (words x subsets) grids at ~1M cells.
_SEARCH_CHUNK = 256


def _subset_xors(values: np.ndarray) -> np.ndarray:
    """XOR over every subset of each row of ``values`` (rows × 2**columns):
    subset ``i`` takes column ``j`` when bit ``j`` of ``i`` is set."""
    xors = np.zeros((values.shape[0], 1), dtype=np.int64)
    for column in values.T:
        xors = np.concatenate([xors, xors ^ column[:, None]], axis=1)
    return xors


def _closest_masks(original_words, original_values, targets, usable, spec, allowed):
    """Per word, the XOR mask over its usable cells landing closest to its target.

    This is the word-level *memory massaging* a templating attacker performs:
    the exact target encoding may need flips on stuck or wrong-polarity
    cells, but some other nearby value is usually reachable through the cells
    that do flip.  ``usable`` (words × bits) marks each word's flippable
    cells; all subsets of a word's ``_MASSAGE_BITS`` most significant usable
    cells are evaluated (exhaustive for 8-bit words), and words searching the
    same number of cells share one subset enumeration.
    ``allowed(rows, search, flips)`` says which subsets a stage may use:
    ``rows`` index the words, ``search`` holds their searched bits (most
    significant first; subset ``i`` flips ``search[:, j]`` where bit ``j`` of
    ``i`` is set) and ``flips`` is each subset's size.  The allowed subset
    landing closest to the target wins, ties going to fewer flips, then to
    the lower subset index; a word gets mask 0 (no flips) when nothing beats
    leaving its original value in place.
    """
    bits = spec.bits_per_value
    masks = np.zeros(len(original_words), dtype=np.int64)
    # Each word's usable bits, most significant first (unusable ones last).
    ranked = np.sort(np.where(usable, np.arange(bits), -1), axis=1)[:, ::-1]
    widths = np.minimum(usable.sum(axis=1), _MASSAGE_BITS)
    for width in np.unique(widths[widths > 0]).tolist():
        group = np.flatnonzero(widths == width)
        index = np.arange(1 << width)
        flips = sum((index >> j) & 1 for j in range(width))
        for rows in np.array_split(group, -(-group.size // _SEARCH_CHUNK)):
            search = ranked[rows, :width]
            subsets = _subset_xors(np.left_shift(1, search))
            candidates = np.bitwise_xor(
                original_words[rows, None], subsets.astype(spec.storage_dtype())
            )
            target = targets[rows]
            with np.errstate(invalid="ignore"):  # NaN decodes: ranked last below
                distance = np.abs(dequantize(candidates, spec) - target[:, None])
                original = np.abs(original_values[rows] - target)
            distance[~(np.isfinite(distance) & allowed(rows, search, flips))] = np.inf
            closest = distance.min(axis=1)
            ties = distance == closest[:, None]
            fewest = np.where(ties, flips, bits + 1).min(axis=1)
            best = np.argmax(ties & (flips == fewest[:, None]), axis=1)
            wins = closest < original
            masks[rows[wins]] = subsets[wins, best[wins]]
    return masks


# Granularity of memory massaging: the attacker's virtual-to-physical control
# is page-level, so each page-sized block of the parameter region is steered
# onto a templated physical frame independently.  Like the profiles' DRAM
# geometries, the unit is scaled down so the benchmark models' small
# parameter regions span as many placeable units as a real model's megabytes
# span 4 KiB pages; one ECC codeword (8 bytes) keeps codewords physically
# contiguous within a single frame.  Devices behind a wider write-back path
# (GPU cachelines) raise the unit to their geometry's `cacheline_bytes`.
_MASSAGE_PAGE_BYTES = 8


def _massage_page_bytes(memory, ecc=None) -> int:
    """Placement granularity: cacheline, ECC codeword, or the scaled page.

    Data reaches the device through the cache hierarchy in cacheline-sized
    write-backs, so massaging can never split one cacheline across two
    physical frames — the placement unit is at least the cacheline.  An
    attached ECC scheme raises it to its codeword span too: the decoder
    reads each codeword from one physical location, so its words must land
    on the same frame (DDR5 on-die codewords span 16 bytes).
    """
    page_bytes = _MASSAGE_PAGE_BYTES
    geometry = memory.layout.geometry
    if geometry is not None:
        page_bytes = max(page_bytes, int(geometry.cacheline_bytes))
    if ecc is not None:
        page_bytes = max(page_bytes, ecc.data_bits // 8)
    return page_bytes


def _frames_for(addresses: np.ndarray, placement, k_total: int, page_bytes: int):
    """Frame ids of cells under a page placement (None = default placement)."""
    if placement is None:
        return None
    pages = np.asarray(addresses, dtype=np.int64) // page_bytes
    choices = np.zeros(pages.shape, dtype=np.int64)
    if placement:
        keys = np.fromiter(placement, dtype=np.int64, count=len(placement))
        values = np.fromiter(placement.values(), dtype=np.int64, count=len(placement))
        order = np.argsort(keys)
        keys, values = keys[order], values[order]
        slot = np.minimum(np.searchsorted(keys, pages), keys.size - 1)
        hit = keys[slot] == pages
        choices[hit] = values[slot[hit]]
    return pages * k_total + choices


def _placed_feasibility(memory, template, placement, k_total, page_bytes):
    """``feasible(words, cell_bits, stored_bits)``: template feasibility of
    cells on their placed frames (all feasible without a template)."""

    def feasible(words, cell_bits, stored_bits):
        if template is None:
            return np.ones(np.broadcast(words, cell_bits).shape, dtype=bool)
        addresses = memory.layout.base_address + words * memory.bytes_per_word
        frames = _frames_for(addresses, placement, k_total, page_bytes)
        return template.feasible_cells(addresses, cell_bits, stored_bits, frames)

    return feasible


def _choose_frames(
    words, stored, memory, target_repr, template, k_total, page_bytes,
    yield_scale: float = 1.0, optimize_expected: bool = False,
) -> tuple[dict[int, int], np.ndarray]:
    """Page-granular memory massaging: pick the best templated frame per page.

    Each page-sized block of the parameter region can be steered onto one of
    ``k_total`` independently-templated physical frames.  A frame is scored
    by how close the block's touched words can get to their target values
    using only the frame's feasible cells (a vectorised greedy MSB-to-LSB
    descent, evaluated for every frame at once); the frame minimising the
    summed residual error wins, ties going to the lowest frame index.  This
    mirrors what templating attackers actually do: they do not accept the
    OS's placement, they steer victim pages onto physical frames whose flip
    map realises the patch they need.

    With ``optimize_expected`` the descent maximises *expected* progress
    instead: each feasible flip only closes its error gap with the cell's
    landing probability (scaled by the pattern's ``yield_scale``), so frames
    whose feasible cells land reliably outscore frames that merely have the
    right polarities.  With probability-1.0 templates the two modes are
    identical.

    ``words`` are the plan's touched words (ascending) and ``stored`` their
    stored bits (words × bits).  Also returns the touched words' feasibility
    on their chosen frames (words × bits), which the later stages read.
    """
    spec = memory.spec
    bits = spec.bits_per_value
    word_addresses = memory.layout.base_address + words * memory.bytes_per_word
    pages = word_addresses // page_bytes
    num_words = words.size

    # Broadcast grid (frame, word, bit): the template hashes each frame id
    # once per (frame, word) and each cell once per frame.
    addresses = word_addresses[:, None]
    cell_bits = np.arange(bits, dtype=np.int64)
    frames = pages[None, :, None] * k_total + np.arange(k_total, dtype=np.int64)[:, None, None]
    feasible = template.feasible_cells(addresses, cell_bits, stored, frames)
    probabilities = None
    if optimize_expected:
        probabilities = template.cell_flip_probabilities(
            addresses, cell_bits, frames, scale=yield_scale
        )

    # Greedy descent: walk bits most-significant first, taking any feasible
    # flip that moves the stored value closer to the target.  In expected
    # mode the error only shrinks by the flip's landing probability, so a
    # frame accumulates score in proportion to how reliably its cells land.
    dtype = spec.storage_dtype()
    original_grid = memory.read_words()[words]
    current = np.broadcast_to(original_grid[None, :], (k_total, num_words)).copy()
    target = target_repr[words]
    error = np.abs(dequantize(current, spec) - target[None, :])
    for b in range(bits - 1, -1, -1):
        candidate = np.bitwise_xor(current, dtype.type(1 << b))
        candidate_error = np.abs(dequantize(candidate, spec) - target[None, :])
        if probabilities is not None:
            p = probabilities[:, :, b]
            candidate_error = p * candidate_error + (1.0 - p) * error
        better = feasible[:, :, b] & (candidate_error < error)
        current = np.where(better, candidate, current)
        error = np.where(better, candidate_error, error)

    placement: dict[int, int] = {}
    chosen = np.empty(num_words, dtype=np.int64)
    for page in np.unique(pages).tolist():
        in_page = pages == page
        totals = error[:, in_page].sum(axis=1)
        placement[int(page)] = int(np.argmin(totals))
        chosen[in_page] = placement[int(page)]
    return placement, feasible[chosen, np.arange(num_words)]


def _apply_template(
    plan, memory, original_values, target_repr, limit, words, table
) -> tuple[BitFlipPlan, int]:
    """Re-route template-infeasible flips; returns (plan, #infeasible flips).

    ``table`` is the feasibility of the plan's touched ``words`` (words ×
    bits, ascending word order) on their placed frames.  A flip whose
    direction does not match the cell's templated polarity can never be
    realised, so it is always removed.  Every word that loses flips this way
    is then *re-routed*: the closest value reachable through the word's
    feasible cells within the per-word flip limit replaces the exact target
    encoding (:func:`_closest_masks`, one search for all such words), and
    only words where no reachable value improves on the original revert
    entirely.
    """
    word_index, bit, _, _ = plan.as_arrays()
    feasible = table[np.searchsorted(words, word_index), bit]
    infeasible = int((~feasible).sum())
    if not infeasible:
        return plan, 0

    bad_words = np.unique(word_index[~feasible])
    cap = np.inf if limit is None else limit
    masks = _closest_masks(
        memory.read_words()[bad_words],
        original_values[bad_words],
        target_repr[bad_words],
        table[np.searchsorted(words, bad_words)],
        memory.spec,
        lambda rows, search, flips: flips <= cap,
    )
    entry, new_bits = np.nonzero((masks[:, None] >> np.arange(memory.spec.bits_per_value)) & 1)
    keep = ~np.isin(word_index, bad_words)
    return plan.select(keep).with_flips(bad_words[entry], new_bits, memory), infeasible


# Companion flips are confined to each word's least significant bits so the
# collateral value perturbation stays negligible (fixed-point LSBs, float
# mantissa tails).
_PAD_BITS = {8: 2, 16: 6, 32: 14}

# Companion pairs searched for a harmless miscorrection alias per codeword.
_PAIR_SEARCH = 24


def _self_pad_masks(
    lone_words, memory, original_values, target_repr, usable, ecc, wpc, low_bits, limit
):
    """Re-encode each word so its codeword decodes cleanly on its own.

    A codeword whose only flip sits in its word would be corrected away.
    Instead of borrowing companion flips from neighbouring words, first try
    to realise a *nearby* value of the same word through a feasible flip set
    the scheme's decoder lets through (odd >= 3 with a harmless syndrome for
    SECDED, any pair with a harmless alias for on-die SEC) — the attack then
    pays a fraction of an LSB on its own target word and nothing anywhere
    else.  Returns one XOR mask per word, 0 where no such set helps.
    """
    bits = memory.spec.bits_per_value
    syndrome_span = 1 << int(ecc.positions[-1]).bit_length()
    safe_alias = np.array(
        [ecc.alias_is_safe(alias, bits, low_bits, wpc) for alias in range(syndrome_span)]
    )
    cap = np.inf if limit is None else limit

    def decodes_harmlessly(rows, search, flips):
        offsets = ((lone_words[rows] % wpc) * bits)[:, None] + search
        syndromes = _subset_xors(ecc.positions[offsets])
        return ecc.self_pad_mask(flips, safe_alias[syndromes]) & (flips <= cap)

    return _closest_masks(
        memory.read_words()[lone_words],
        original_values[lone_words],
        target_repr[lone_words],
        usable,
        memory.spec,
        decodes_harmlessly,
    )


def _hamming_companions(ecc, candidates, count, syndrome, headroom, bits, low_bits, span):
    """One or two companions after which a Hamming codeword decodes harmlessly.

    Landing one companion exactly on the syndrome position nulls the
    syndrome (the decoder sees a clean codeword: no alarm *and* no collateral
    miscorrection); failing that, any companion whose residual group the
    decoder lets through.  With room for two flips, a pair whose positions
    XOR to the syndrome nulls it, and failing that a bounded search looks
    for a pair whose miscorrection aliases somewhere harmless.  ``span`` is
    the number of words in the codeword.  Returns ``None`` when nothing fits.
    """

    def passes(flips, *companions):
        alias = syndrome
        for companion in companions:
            alias ^= int(ecc.positions[companion[2]])
        return ecc.group_passes(
            count + flips, alias, ecc.alias_is_safe(alias, bits, low_bits, span)
        )

    by_position = {}
    for candidate in candidates:
        by_position.setdefault(int(ecc.positions[candidate[2]]), candidate)
    if headroom is None or headroom >= 1:
        exact = by_position.get(syndrome)
        if exact is not None and ecc.group_passes(count + 1, 0, True):
            return (exact,)
        for candidate in candidates:
            if passes(1, candidate):
                return (candidate,)
    if headroom is None or headroom >= 2:
        if ecc.group_passes(count + 2, 0, True):
            for candidate in candidates:
                partner = by_position.get(syndrome ^ int(ecc.positions[candidate[2]]))
                if partner is not None and partner is not candidate:
                    return (candidate, partner)
        for i, first in enumerate(candidates[:_PAIR_SEARCH]):
            for second in candidates[i + 1 : _PAIR_SEARCH]:
                if passes(2, first, second):
                    return (first, second)
    return None


def _apply_ecc_padding(
    plan_arrays, keep, memory, original_values, target_repr, impact, words, table,
    feasible_of, ecc, limit, row_cap,
):
    """Re-route ECC-vulnerable codewords by padding them with companion flips.

    A codeword is vulnerable when the scheme's decoder would correct it
    away, flag it, or dangerously miscorrect it: for Hamming schemes when
    :meth:`HammingScheme.group_passes` rejects its flip group, for chipkill
    when all its flips sit in one symbol (the decoder then undoes them).
    Each vulnerable codeword is repaired with companion flips on feasible
    low-significance cells of its own span, cheapest first: the solver's
    low-impact words (those it left essentially unchanged), then word, then
    bit.  Only the choice differs by scheme:

    * Hamming: a lone flip is first re-encoded inside its own word
      (:func:`_self_pad_masks`); otherwise syndrome-nulling companions, then
      a safe-alias search (:func:`_hamming_companions`).
    * chipkill: the first companion on a second symbol — the codeword then
      alarms but *lands* instead of being corrected away.

    Companions land in their codeword's own DRAM row (codewords are aligned
    within a row), so padding respects the pattern-scaled per-row flip cap
    ``row_cap`` the throttle stage enforced, and the per-word flip
    ``limit``.  A codeword nothing repairs is dropped where the scheme says
    keeping it is worse (always for chipkill, which would correct it anyway;
    :meth:`HammingScheme.drop_unrepairable` otherwise).  ``table`` is the
    feasibility of the plan's touched ``words`` on their placed frames; the
    companion cells of every vulnerable codeword are looked up in one
    ``feasible_of`` call.

    Returns ``(pad_words, pad_bits, codewords_padded, codewords_dropped)``.
    """
    word_index, bit, row = plan_arrays[0], plan_arrays[1], plan_arrays[3]
    spec = memory.spec
    bits = spec.bits_per_value
    low_bits = _PAD_BITS.get(bits, max(2, bits // 2))
    wpc = ecc.words_per_codeword(bits)
    surviving = np.flatnonzero(keep)
    cw = word_index[surviving] // wpc
    offsets = (word_index[surviving] % wpc) * bits + bit[surviving]
    codewords, first, group, counts = np.unique(
        cw, return_index=True, return_inverse=True, return_counts=True
    )
    symbolic = ecc.repair_kind == "symbol"
    if symbolic:
        # Vulnerable: every flip in one symbol; ``state`` is that symbol.
        symbols = ecc.symbols_of(offsets)
        state = np.full(codewords.size, np.iinfo(np.int64).max)
        highest = np.full(codewords.size, -1)
        np.minimum.at(state, group, symbols)
        np.maximum.at(highest, group, symbols)
        vulnerable = state == highest
    else:
        state = ecc.syndromes(cw, offsets)[1]
        vulnerable = np.array(
            [
                not ecc.group_passes(c, s, ecc.alias_is_safe(s, bits, low_bits, wpc))
                for c, s in zip(counts.tolist(), state.tolist())
            ],
            dtype=bool,
        )
    if not vulnerable.any():
        return [], [], 0, 0

    # Lone flips of Hamming codewords: their self-pad masks, in one search.
    self_pads = {}
    if not symbolic:
        lone = np.flatnonzero(vulnerable & (counts == 1))
        lone_words = word_index[surviving[first[lone]]]
        masks = _self_pad_masks(
            lone_words, memory, original_values, target_repr,
            table[np.searchsorted(words, lone_words)], ecc, wpc, low_bits, limit,
        )
        self_pads = dict(zip(codewords[lone].tolist(), masks.tolist()))

    # Companion cells of every vulnerable codeword, cheapest first.  Spans
    # are disjoint, so the per-word flip counts the limit checks are the
    # surviving plan's.
    span_words = (codewords[vulnerable][:, None] * wpc + np.arange(wpc)).ravel()
    span_words = span_words[span_words < memory.num_words]
    cell_words = np.repeat(span_words, low_bits)
    cell_bits = np.tile(np.arange(low_bits, dtype=np.int64), span_words.size)
    original_bits = (memory.read_words()[cell_words].astype(np.int64) >> cell_bits) & 1
    usable = feasible_of(cell_words, cell_bits, original_bits)
    if limit is not None:
        flips_per_word = np.bincount(word_index[surviving], minlength=memory.num_words)
        usable &= flips_per_word[cell_words] + 1 <= limit
    order = np.lexsort((cell_bits, cell_words, impact[cell_words], cell_words // wpc))
    order = order[usable[order]]
    cell_cw = cell_words[order] // wpc
    cells = list(
        zip(
            cell_words[order].tolist(),
            cell_bits[order].tolist(),
            ((cell_words[order] % wpc) * bits + cell_bits[order]).tolist(),
        )
    )

    flips_per_row = dict(zip(*np.unique(row[surviving], return_counts=True)))
    pad_words: list[int] = []
    pad_bits: list[int] = []
    codewords_padded = codewords_dropped = 0
    for i in np.flatnonzero(vulnerable).tolist():
        cw_id, count = int(codewords[i]), int(counts[i])
        in_cw = surviving[group == i]
        row_id = int(row[in_cw[0]])
        used = flips_per_row.get(row_id, 0)
        headroom = None if row_cap is None else row_cap - used
        mask = self_pads.get(cw_id, 0)
        flips = bin(mask).count("1")
        if mask and (headroom is None or flips - 1 <= headroom):
            # The self-pad replaces the codeword's lone flip.
            keep[in_cw] = False
            codewords_padded += 1
            pad_words += [int(word_index[in_cw[0]])] * flips
            pad_bits += [b for b in range(bits) if mask >> b & 1]
            flips_per_row[row_id] = used - 1 + flips
            continue
        taken = set(zip(word_index[in_cw].tolist(), bit[in_cw].tolist()))
        lo, hi = np.searchsorted(cell_cw, [cw_id, cw_id + 1])
        candidates = [c for c in cells[lo:hi] if c[:2] not in taken]
        if symbolic:
            fits = headroom is None or headroom >= 1
            chosen = next(
                ((c,) for c in candidates if fits and ecc.symbols_of(c[2]) != state[i]),
                None,
            )
        else:
            span = min((cw_id + 1) * wpc, memory.num_words) - cw_id * wpc
            chosen = _hamming_companions(
                ecc, candidates, count, int(state[i]), headroom, bits, low_bits, span
            )
        if chosen is None:
            if symbolic or ecc.drop_unrepairable(count, spec.kind):
                keep[in_cw] = False
                codewords_dropped += 1
                flips_per_row[row_id] = used - count
            continue
        codewords_padded += 1
        for word, cell_bit, _ in chosen:
            pad_words.append(word)
            pad_bits.append(cell_bit)
        flips_per_row[row_id] = used + len(chosen)
    return pad_words, pad_bits, codewords_padded, codewords_dropped


def _row_impacts(plan_arrays, keep, impact):
    """Per-row modification impact of the surviving flips.

    ``impact`` is each word's ``|representable target − original value|``;
    a row's impact is the sum over its surviving words.  Returns
    ``(rows, impacts)`` with rows ascending.
    """
    word_index, row = plan_arrays[0][keep], plan_arrays[3][keep]
    words, first = np.unique(word_index, return_index=True)
    word_rows = row[first]
    rows = np.unique(word_rows)
    row_impact = np.zeros(rows.size)
    np.add.at(row_impact, np.searchsorted(rows, word_rows), impact[words])
    return rows, row_impact


def repair_plan(
    plan: BitFlipPlan,
    memory: ParameterMemoryMap,
    target_values: np.ndarray,
    budget: HardwareBudget | None = None,
    *,
    template: FlipTemplate | None = None,
    ecc: EccScheme | None = None,
    massage_frames: int = 64,
    trr: "TrrSampler | ProbabilisticTrr | None" = None,
    hammer_pattern: "str | HammerPattern | None" = None,
    max_flips_per_row: int | None = None,
    optimize_expected: bool = False,
    env_scale: float = 1.0,
) -> PlanRepair:
    """Repair ``plan`` to fit ``budget`` and the device physics.

    Stages run in order: page-granular memory massaging (pick the templated
    frame each cacheline/page of the region is steered onto), template
    feasibility (flips on stuck or wrong-polarity cells can never execute,
    and are re-routed to the closest reachable value), per-word rounding,
    row-window and row-count budgets, per-row flip throttling (the device's
    ``max_flips_per_row`` scaled by the hammer pattern's ``flip_yield`` —
    lowest-impact words of an overfull row revert first), TRR feasibility
    (victim rows the sampler saves under the chosen hammer pattern can
    never flip), then ECC padding.  The budget stages only ever *remove*
    flips; template re-routing and ECC repair may additionally *add* flips
    inside already-touched words/codewords (same rows, so the row budgets
    stay satisfied).  Per-repair inputs are computed once and shared by the
    stages: each word's impact ``|representable target − original value|``
    (every stage that ranks words uses it), the pattern-scaled per-row cap
    (throttle and ECC padding), and the touched words' feasibility on their
    placed frames (re-routing and ECC self-padding).  Callers re-run the
    margin check on the bit-true model to see what the repair cost
    (:func:`lower_attack` does); the returned
    :attr:`PlanRepair.frames` places every repaired flip for the
    Monte-Carlo trials.

    ``massage_frames`` is the number of templated physical frames the
    attacker can choose between per page (1 disables massaging); the page
    unit is the geometry's ``cacheline_bytes`` when a geometry is attached.
    ``trr`` and ``hammer_pattern`` activate the mitigation model of
    :mod:`repro.hardware.device.mitigations`; ``max_flips_per_row`` is the
    device's per-row controlled-flip yield the pattern scales (enforced
    only when a pattern is planned against).  ``optimize_expected`` makes
    the massaging stage maximise *expected* progress under the template's
    per-cell landing probabilities instead of assuming every feasible flip
    lands (identical on probability-1.0 templates).  ``env_scale``
    multiplies the landing probabilities the expected-mode scoring sees
    (temperature/voltage drift); 1.0 is the nominal environment.
    """
    budget = budget or HardwareBudget()
    untouched = (
        not budget.constrained
        and template is None
        and ecc is None
        and trr is None
        and hammer_pattern is None
    )
    if untouched or not plan.num_flips:
        return PlanRepair(
            plan=plan,
            flips_dropped=0,
            words_reverted=0,
            words_rounded=0,
            pre_ecc_plan=plan if ecc is not None else None,
        )

    original_values = memory.decoded_values()
    target_repr = memory.representable(target_values)
    # Every stage that ranks words ranks them by this modification impact.
    impact = np.abs(target_repr - original_values)
    page_bytes = _massage_page_bytes(memory, ecc)
    # Resolve the hammer pattern up front: its flip_yield scales both the
    # per-row cap the throttle and ECC stages enforce and (in expected mode)
    # the landing probabilities the massaging stage optimises against.
    pattern = row_cap = None
    if hammer_pattern is not None or trr is not None:
        pattern = get_pattern(
            hammer_pattern if hammer_pattern is not None else "double-sided"
        )
        if max_flips_per_row is not None:
            row_cap = pattern.effective_flips_per_row(max_flips_per_row)

    # One template lookup for the touched words: the feasibility of their
    # cells on the frames the massaging stage chose (or on the default
    # placement), which re-routing and ECC self-padding read.
    words = np.unique(plan.as_arrays()[0])
    cell_bits = np.arange(memory.spec.bits_per_value, dtype=np.int64)
    table = np.ones((words.size, cell_bits.size), dtype=bool)  # no template
    placement = None
    if template is not None:
        stored = (memory.read_words()[words].astype(np.int64)[:, None] >> cell_bits) & 1
        if massage_frames > 1:
            placement, table = _choose_frames(
                words, stored, memory, target_repr, template, massage_frames,
                page_bytes,
                yield_scale=(pattern.flip_yield if pattern is not None else 1.0)
                * env_scale,
                optimize_expected=optimize_expected,
            )
    feasible_of = _placed_feasibility(memory, template, placement, massage_frames, page_bytes)

    working = plan
    flips_infeasible = 0
    if template is not None:
        if placement is None:
            table = feasible_of(words[:, None], cell_bits, stored)
        working, flips_infeasible = _apply_template(
            plan, memory, original_values, target_repr, budget.max_flips_per_word,
            words, table,
        )

    arrays = working.as_arrays()
    word_index, _, _, row = arrays
    keep = np.ones(word_index.size, dtype=bool)

    words_rounded = 0
    if budget.max_flips_per_word is not None and keep.any():
        words_rounded = _round_overfull_words(
            arrays, keep, memory, original_values, target_repr, budget.max_flips_per_word
        )

    if budget.row_window is not None and keep.any():
        rows, impacts = _row_impacts(arrays, keep, impact)
        prefix = np.concatenate([[0.0], np.cumsum(impacts)])
        ends = np.searchsorted(rows, rows + budget.row_window)
        scores = prefix[ends] - prefix[np.arange(rows.size)]
        start = int(np.argmax(scores))  # ties: lowest start row wins
        window_rows = rows[start : ends[start]]
        keep &= np.isin(row, window_rows)

    if budget.max_rows is not None and keep.any():
        rows, impacts = _row_impacts(arrays, keep, impact)
        if rows.size > budget.max_rows:
            # Highest-impact rows first; ties broken by lower row index.
            order = np.lexsort((rows, -impacts))
            kept_rows = rows[order[: budget.max_rows]]
            keep &= np.isin(row, kept_rows)

    rows_refreshed = 0
    rows_throttled = 0
    hammer_rows = 0
    if pattern is not None:
        if row_cap is not None and keep.any():
            # The pattern's flip_yield scales the device's per-row
            # controlled-flip cap: splitting (or throttling) the activation
            # budget costs flips per row.  Overfull rows revert their
            # lowest-impact words until they fit.
            row_ids, counts = np.unique(row[keep], return_counts=True)
            for row_id in row_ids[counts > row_cap].tolist():
                rows_throttled += 1
                in_row = keep & (row == row_id)
                words_in_row = np.unique(word_index[in_row])
                order = np.lexsort((words_in_row, impact[words_in_row]))
                remaining = int(np.count_nonzero(in_row))
                for word in words_in_row[order].tolist():
                    if remaining <= row_cap:
                        break
                    word_mask = in_row & (word_index == word)
                    remaining -= int(np.count_nonzero(word_mask))
                    keep &= ~word_mask
        victims = np.unique(row[keep])
        hammer = plan_hammer(
            victims,
            geometry=memory.layout.geometry,
            pattern=pattern,
            sampler=trr,
        )
        hammer_rows = int(hammer.hammered_rows.size)
        if trr is not None and victims.size:
            # Victim rows the tracker saves can never flip under this
            # pattern — the pattern-dependent replacement for a flat row cap.
            keep &= np.isin(row, hammer.feasible_victims)
            rows_refreshed = int(hammer.refreshed_victims.size)

    pad_words: list[int] = []
    pad_bits: list[int] = []
    codewords_padded = codewords_dropped = 0
    pre_ecc_plan = None
    if ecc is not None:
        # What the repair would have produced without an ECC stage — the
        # baseline lower_attack measures the raw (decoder-corrected) success
        # on, captured here so it is not recomputed with a second repair.
        pre_ecc_plan = working.select(keep)
    if ecc is not None and keep.any():
        pad_words, pad_bits, codewords_padded, codewords_dropped = _apply_ecc_padding(
            arrays, keep, memory, original_values, target_repr, impact, words, table,
            feasible_of, ecc, budget.max_flips_per_word, row_cap,
        )

    repaired = working.select(keep).with_flips(pad_words, pad_bits, memory)

    # Set-wise accounting against the *planned* flips: template re-routing
    # and ECC padding may add cells the solver never asked for, so dropped /
    # added are both measured as set differences on (word, bit).
    planned_keys = plan.as_arrays()[0] * 64 + plan.as_arrays()[1]
    final_keys = repaired.as_arrays()[0] * 64 + repaired.as_arrays()[1]
    flips_dropped = int(np.count_nonzero(~np.isin(planned_keys, final_keys)))
    flips_added = int(np.count_nonzero(~np.isin(final_keys, planned_keys)))
    words_reverted = int(
        np.setdiff1d(plan.as_arrays()[0], repaired.as_arrays()[0]).size
    )
    return PlanRepair(
        plan=repaired,
        flips_dropped=flips_dropped,
        words_reverted=words_reverted,
        words_rounded=words_rounded,
        flips_infeasible=flips_infeasible,
        flips_added=flips_added,
        codewords_padded=codewords_padded,
        codewords_dropped=codewords_dropped,
        frames=_frames_for(
            repaired.as_arrays()[2], placement, massage_frames, page_bytes
        ),
        pre_ecc_plan=pre_ecc_plan,
        hammer_pattern=pattern.name if pattern is not None else None,
        rows_refreshed=rows_refreshed,
        rows_throttled=rows_throttled,
        hammer_rows=hammer_rows,
    )


@dataclass(frozen=True)
class TrialOutcome:
    """One Monte-Carlo execution of a repaired plan, in full.

    ``landed`` is the boolean landing mask over the repaired plan's flips
    (template Bernoulli draws and any probabilistic-TRR re-roll already
    applied); the rates are measured on the model carrying exactly those
    flips after ECC decoding.  :mod:`repro.defenses` replays these outcomes
    to score a defender against the very executions the Monte-Carlo columns
    aggregate — the "none" defense therefore reproduces them bit for bit.
    """

    landed: np.ndarray
    success_rate: float
    keep_rate: float
    accuracy: float
    ecc_alarms: int

    @property
    def flips_landed(self) -> int:
        return int(np.count_nonzero(self.landed))


def trial_mean(values: np.ndarray) -> float:
    """Mean of the finite entries of per-trial ``values`` (NaN when none)."""
    values = values[np.isfinite(values)]
    return float(values.mean()) if values.size else float("nan")


def trial_ci(values: np.ndarray) -> float:
    """95 % normal-approximation half-width of :func:`trial_mean`.

    0.0 with a single finite entry (a single trial has no spread to
    estimate) or identical entries, NaN with none.
    """
    values = values[np.isfinite(values)]
    if values.size < 2:
        return 0.0 if values.size else float("nan")
    if np.all(values == values[0]):
        # Identical outcomes have no spread; np.std would return ~1e-16
        # of rounding noise, which golden tables must never pin.
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True)
class TrialStatistics:
    """Aggregate outcome of seeded Monte-Carlo lowering trials.

    ``outcomes`` holds one :class:`TrialOutcome` per trial, in trial order;
    the per-trial arrays (bit-true success/keep rate, attacked accuracy —
    NaN without an eval set — and how many of the repaired plan's flips
    landed) are read off them.  The summary properties report the mean and
    a 95 % normal-approximation confidence half-width (:func:`trial_mean`,
    :func:`trial_ci`).
    """

    outcomes: tuple[TrialOutcome, ...]

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    def _column(self, field: str, dtype: type) -> np.ndarray:
        return np.fromiter(
            (getattr(outcome, field) for outcome in self.outcomes),
            dtype=dtype,
            count=len(self.outcomes),
        )

    @property
    def success_rates(self) -> np.ndarray:
        return self._column("success_rate", np.float64)

    @property
    def keep_rates(self) -> np.ndarray:
        return self._column("keep_rate", np.float64)

    @property
    def accuracies(self) -> np.ndarray:
        return self._column("accuracy", np.float64)

    @property
    def flips_landed(self) -> np.ndarray:
        return self._column("flips_landed", np.int64)

    @property
    def success_rate(self) -> float:
        return trial_mean(self.success_rates)

    @property
    def success_ci(self) -> float:
        return trial_ci(self.success_rates)

    @property
    def keep_rate(self) -> float:
        return trial_mean(self.keep_rates)

    @property
    def keep_ci(self) -> float:
        return trial_ci(self.keep_rates)

    @property
    def accuracy(self) -> float:
        return trial_mean(self.accuracies)

    @property
    def accuracy_ci(self) -> float:
        return trial_ci(self.accuracies)

    @property
    def expected_flips_landed(self) -> float:
        """Expected kept bits: mean landed-flip count across trials."""
        return trial_mean(self.flips_landed.astype(np.float64))

    @property
    def flips_landed_ci(self) -> float:
        return trial_ci(self.flips_landed.astype(np.float64))

    def as_dict(self) -> dict:
        return {
            "mc_trials": self.trials,
            "mc_success": self.success_rate,
            "mc_success_ci": self.success_ci,
            "mc_keep": self.keep_rate,
            "mc_keep_ci": self.keep_ci,
            "mc_accuracy": self.accuracy,
            "mc_accuracy_ci": self.accuracy_ci,
            "mc_flips_landed": self.expected_flips_landed,
            "mc_flips_landed_ci": self.flips_landed_ci,
        }


# NaN-valued placeholder merged into LoweringReport.as_dict when no trials
# ran, so the metric schema (and the campaign CSV schema built on it) is
# stable.  Derived from an empty TrialStatistics rather than hand-written so
# the trials/no-trials record schemas can never drift apart.
_NO_TRIALS = TrialStatistics(outcomes=()).as_dict()


def _run_trials(
    scorer: "BitTrueScorer",
    repair: PlanRepair,
    template: FlipTemplate | None,
    ecc: EccScheme | None,
    trr,
    pattern: HammerPattern | None,
    trials: int,
    rng,
    env_scale: float = 1.0,
) -> TrialStatistics:
    """Seeded Monte-Carlo execution of a repaired plan.

    Each trial forks its own generator from the master ``rng`` (an int seed,
    a Generator, or None for fresh entropy), samples which of the repaired
    plan's flips land, re-rolls a probabilistic TRR tracker against the
    surviving victim rows, pushes the outcome through the ECC decoder, and
    re-measures the attack on the resulting bit-true model
    (:meth:`BitTrueScorer.measure`).  Everything downstream of the seed is
    deterministic, so equal seeds give equal statistics in any process or
    executor.  ``env_scale`` multiplies the landing probabilities on top of
    the pattern's ``flip_yield`` (the temperature/voltage drift axis); 1.0 is
    the nominal environment.
    """
    plan = repair.plan
    _, bit, address, row = plan.as_arrays()
    frames = repair.frames
    yield_scale = (pattern.flip_yield if pattern is not None else 1.0) * env_scale
    # Trial-invariant sampling inputs, hoisted out of the loop: feasibility
    # and per-cell probabilities depend only on the repaired plan, the
    # template and the chosen placement — every trial starts from the same
    # pristine words, so only the Bernoulli draws vary.  The draws below are
    # exactly what sample_flips would consume, in the same order.
    feasible = probabilities = None
    if template is not None and plan.num_flips:
        feasible = template.feasible_mask(plan, scorer.pristine, frames)
        probabilities = template.cell_flip_probabilities(
            address, bit, frames, scale=yield_scale
        )
    outcomes: list[TrialOutcome] = []
    for trial_rng in fork_rng(RandomState(rng), trials):
        if feasible is not None:
            mask = feasible & (trial_rng.random(probabilities.shape) < probabilities)
        else:
            mask = np.ones(plan.num_flips, dtype=bool)
        if isinstance(trr, ProbabilisticTrr) and pattern is not None and plan.num_flips:
            # The attacker planned against one expected tracker outcome; at
            # execution time the sampler re-rolls, and victims it catches
            # this trial are refreshed before their flips land.  The tracker
            # samples from everything the attacker *hammers* — the full
            # repaired plan's rows — not from the rows whose flips happened
            # to land: flips landing is an outcome of hammering, never an
            # input to it.
            hammer = plan_hammer(
                np.unique(row),
                geometry=scorer.memory.layout.geometry,
                pattern=pattern,
                sampler=trr,
                rng=trial_rng,
            )
            mask &= np.isin(row, hammer.feasible_victims)
        measured = scorer.measure(plan.select(mask), ecc, accuracy=True)
        outcomes.append(
            TrialOutcome(
                landed=mask,
                success_rate=float(measured.success_rate),
                keep_rate=float(measured.keep_rate),
                accuracy=float(measured.accuracy),
                ecc_alarms=int(measured.ecc_summary.alarms) if ecc is not None else 0,
            )
        )
    return TrialStatistics(outcomes=tuple(outcomes))


@dataclass
class LoweringReport:
    """Bit-true outcome of lowering one attack result into memory.

    ``success_rate`` / ``keep_rate`` here are measured on the *modified* model
    rebuilt from the flipped memory words — the numbers the solver reports are
    only upper bounds once quantisation and budget repair have had their say.
    """

    spec: QuantizationSpec
    budget: HardwareBudget
    planned: BitFlipPlan
    plan: BitFlipPlan
    repair: PlanRepair
    quantization_error: float
    success_rate: float
    keep_rate: float
    target_margins: np.ndarray
    clean_accuracy: float
    attacked_accuracy: float
    attacked_model: Sequential
    # Device-model fields (defaults preserve the profile-less pipeline).
    device: DeviceProfile | None = None
    env_drift: float = 0.0  # drift the repair and trials ran under
    hammer_pattern: str | None = None  # pattern the repair planned against
    executed: BitFlipPlan | None = None  # post-ECC effective plan (== plan w/o ECC)
    ecc_summary: "EccSummary | None" = None  # decoder outcome of the repaired plan
    ecc_raw_summary: "EccSummary | None" = None  # decoder outcome w/o ECC repair
    unrepaired_success_rate: float = float("nan")
    unrepaired_keep_rate: float = float("nan")
    # Monte-Carlo statistics of lower_attack(..., trials=N) (None when the
    # lowering ran deterministically).
    trial_stats: "TrialStatistics | None" = None
    # Re-measures other plans on ``attacked_model`` (defenses remap trials).
    scorer: "BitTrueScorer | None" = None

    @property
    def storage(self) -> str:
        """Human-readable storage-format name."""
        return self.spec.describe()

    @property
    def flips_dropped(self) -> int:
        """Flips removed by the budget repair."""
        return self.repair.flips_dropped

    @property
    def min_target_margin(self) -> float:
        """Smallest logit margin over the S target images (NaN when S = 0)."""
        return float(self.target_margins.min()) if self.target_margins.size else float("nan")

    @property
    def accuracy_drop_percent(self) -> float:
        """Bit-true test-accuracy degradation in percentage points."""
        return 100.0 * (self.clean_accuracy - self.attacked_accuracy)

    def as_dict(self) -> dict:
        """Flat numeric metrics (campaign-job and reporting form)."""
        raw = self.ecc_raw_summary
        final = self.ecc_summary
        return {
            "bit_flips_planned": self.planned.num_flips,
            "bit_flips": self.plan.num_flips,
            "flips_dropped": self.flips_dropped,
            "words_touched": self.plan.num_words_touched,
            "words_reverted": self.repair.words_reverted,
            "words_rounded": self.repair.words_rounded,
            "rows_touched": self.plan.num_rows_touched,
            "quantization_error": self.quantization_error,
            "bit_true_success": self.success_rate,
            "bit_true_keep": self.keep_rate,
            "min_target_margin": self.min_target_margin,
            "clean_accuracy": self.clean_accuracy,
            "attacked_accuracy": self.attacked_accuracy,
            "accuracy_drop_percent": self.accuracy_drop_percent,
            # Device-model metrics (zeros / NaN when lowered without a device).
            "flips_infeasible": self.repair.flips_infeasible,
            "flips_rerouted": self.repair.flips_added,
            "ecc_codewords_padded": self.repair.codewords_padded,
            "ecc_codewords_dropped": self.repair.codewords_dropped,
            "ecc_corrected": raw.corrected if raw is not None else 0,
            "ecc_alarms": final.alarms if final is not None else 0,
            "ecc_miscorrected": final.miscorrected if final is not None else 0,
            "unrepaired_success": self.unrepaired_success_rate,
            "unrepaired_keep": self.unrepaired_keep_rate,
            # Mitigation metrics (zeros when lowered without a hammer pattern).
            "rows_refreshed": self.repair.rows_refreshed,
            "rows_throttled": self.repair.rows_throttled,
            "hammer_rows": self.repair.hammer_rows,
            # Monte-Carlo metrics (NaN when lowered deterministically).
            **(
                self.trial_stats.as_dict()
                if self.trial_stats is not None
                else _NO_TRIALS
            ),
        }


def _target_margins(logits: np.ndarray, desired: np.ndarray) -> np.ndarray:
    """Logit margin of each target image: desired-class logit minus runner-up."""
    if not len(logits):
        return np.empty(0)
    rows = np.arange(len(logits))
    desired_scores = logits[rows, desired]
    masked = logits.copy()
    masked[rows, desired] = -np.inf
    return desired_scores - masked.max(axis=1)


@dataclass(frozen=True)
class BitTrueMeasurement:
    """One plan's outcome on the bit-true model (:meth:`BitTrueScorer.measure`):
    the plan the ECC decoder let through, the attack rates and the eval-set
    accuracy (NaN unless requested from a scorer with a context)."""

    executed: BitFlipPlan
    ecc_summary: "EccSummary | None"
    success_mask: np.ndarray
    keep_mask: np.ndarray
    target_logits: np.ndarray
    accuracy: float

    @property
    def success_rate(self) -> float:
        return mask_rate(self.success_mask)

    @property
    def keep_rate(self) -> float:
        return mask_rate(self.keep_mask)


class BitTrueScorer:
    """Applies flip plans to one scratch copy of a victim and scores them.

    Every bit-true measurement of a lowering (the repaired plan, the
    decoder-corrected baseline, each Monte-Carlo trial, each remapped
    defense trial) goes through :meth:`measure`; the victim is never
    written.  Only layers from the first attacked one onward differ from
    the victim, so the clean activations entering it are computed once, by
    one :class:`~repro.analysis.evaluation.EvaluationContext` for the
    attack-plan images and by ``context`` (the victim's) for the eval set.  Every
    rate, logit and accuracy is bit-identical to a full forward of a fresh
    victim copy carrying the same flips.
    """

    def __init__(
        self,
        victim: Sequential,
        selector,
        *,
        spec: QuantizationSpec,
        layout: MemoryLayout | None,
        attack_plan,
        context=None,
    ):
        self.victim = victim
        self.model = victim.copy()
        self.memory = ParameterMemoryMap(
            ParameterView(self.model, selector), spec=spec, layout=layout
        )
        self.pristine = self.memory.read_words()
        self.start = self.memory.view.first_layer_index
        self.attack_plan = attack_plan
        self.context = context

    @cached_property
    def _plan_context(self):
        """The attack-plan images, labelled with their desired classes, as an
        evaluation set: it holds their clean prefix activations."""
        # Imported here: repro.analysis imports the defenses, which import this module.
        from repro.analysis.evaluation import EvaluationContext

        plan = self.attack_plan
        images = Dataset(plan.images, plan.desired_labels, num_classes=self.victim.num_classes)
        return EvaluationContext(self.victim, images)

    def rates(self, model: Sequential) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Success/keep masks and target logits of ``model`` (the scratch
        model or the victim) on the attack plan."""
        logits = self._plan_context.logits([model], self.start)[0]
        num_targets = self.attack_plan.num_targets
        hits = np.argmax(logits, axis=1) == self._plan_context.test_set.labels
        return hits[:num_targets], hits[num_targets:], logits[:num_targets]

    def measure(
        self, plan: BitFlipPlan, ecc: EccScheme | None = None, *, accuracy: bool = False
    ) -> BitTrueMeasurement:
        """Apply ``plan`` (through ``ecc``'s decoder) to the pristine words and score it.

        The scratch model keeps the flips until the next call.  ``accuracy``
        adds the eval-set accuracy when the scorer has a context.
        """
        executed, summary = (plan, None) if ecc is None else ecc.apply_to_plan(plan, self.memory)
        self.memory.write_words(self.pristine)
        self.memory.apply_plan(executed)
        self.memory.flush_to_model()
        attacked_accuracy = float("nan")
        if accuracy and self.context is not None:
            attacked_accuracy = self.context.accuracies([self.model], self.start)[0]
        return BitTrueMeasurement(
            executed, summary, *self.rates(self.model), accuracy=float(attacked_accuracy)
        )


# The planned and repaired plans of the lowerings run inside the current
# shared_repairs() block, keyed by every input the two stages read; None
# outside a block.  A context variable, so a block covers only the thread
# (or task) that opened it.
_shared_repairs: ContextVar[dict[tuple, tuple[BitFlipPlan, PlanRepair]] | None] = ContextVar(
    "shared_repairs", default=None
)


@contextmanager
def shared_repairs() -> Iterator[None]:
    """Plan and repair each distinct lowering once while the block runs.

    :func:`~repro.experiments.campaign.run_campaign` runs every campaign
    inside one block, and each process-pool worker holds one open for its
    lifetime (a pool lives for one campaign).  The memo is emptied when the
    block exits; a nested block starts its own and restores the outer one.
    """
    memo: dict[tuple, tuple[BitFlipPlan, PlanRepair]] = {}
    token = _shared_repairs.set(memo)
    try:
        yield
    finally:
        memo.clear()
        _shared_repairs.reset(token)


def _read_only(planned: BitFlipPlan, repair: PlanRepair) -> tuple[BitFlipPlan, PlanRepair]:
    """Freeze every array of a shared plan and repair, so no holder can
    write through to the others."""
    for plan in (planned, repair.plan, repair.pre_ecc_plan):
        if plan is not None:
            plan.freeze()
    if repair.frames is not None:
        repair.frames.flags.writeable = False
    return planned, repair


def lower_attack(
    result,
    *,
    storage: str | QuantizationSpec = "float32",
    layout: MemoryLayout | None = None,
    budget: HardwareBudget | None = None,
    profile: "str | DeviceProfile | None" = None,
    hammer_pattern: "str | HammerPattern | None" = None,
    trials: int = 0,
    rng: "int | np.random.Generator | None" = None,
    expected_repair: bool = False,
    env_drift: float = 0.0,
    context: "EvaluationContext | None" = None,
) -> LoweringReport:
    """Lower a solved attack into bit flips and re-verify it bit-true.

    Inside a :func:`shared_repairs` block (every
    :func:`~repro.experiments.campaign.run_campaign` opens one) the planned
    and repaired plans are reused: calls with equal pristine memory,
    selection, storage, layout, targets, budget, device profile, hammer
    pattern, ``expected_repair`` and ``env_drift`` plan and repair once and
    share the result, read-only.  Everything after the repair — the
    scorer, the trials, the report — is still built per call, so the six
    ``defense_matrix`` cells of one lowering share one repair but no
    measurement.  Outside a block every call plans and repairs afresh.

    Parameters
    ----------
    result:
        A :class:`~repro.attacks.fault_sneaking.FaultSneakingResult` (or any
        result exposing ``view``, ``delta`` and ``plan``).
    storage:
        Deployment storage format: a name from
        :data:`repro.nn.quantization.STORAGE_FORMATS` or an explicit spec.
    layout:
        Simulated memory geometry (base address, DRAM row size or device
        geometry).
    budget:
        Hardware budgets the plan must fit; the plan is repaired by
        :func:`repair_plan` before being applied.
    profile:
        Optional device profile (a name from
        :func:`repro.hardware.device.list_profiles` or a
        :class:`~repro.hardware.device.DeviceProfile`), the only source of
        device physics: its flip template, ECC code, TRR tracker, per-row
        flip yield and memory-massaging frames always apply.  It also
        supplies the memory layout (its DRAM geometry), the derived hardware
        budget and the hammer pattern when the caller leaves those unset.
        The report records it as ``device``.
    hammer_pattern:
        Hammer pattern to plan against (a name from
        :func:`repro.hardware.device.list_patterns` or a
        :class:`~repro.hardware.device.HammerPattern`); defaults to the
        profile's pattern.  With a TRR-sampler profile, the pattern decides
        which victim rows can flip at all.
    trials:
        Monte-Carlo executions of the repaired plan (0 = deterministic
        lowering only).  Each trial samples which flips land from the
        template's per-cell landing probabilities and re-rolls any
        :class:`~repro.hardware.device.mitigations.ProbabilisticTrr`
        tracker; the report's ``trial_stats`` then carries success/keep/
        accuracy rates with 95 % confidence intervals and the expected
        landed-flip count.
    rng:
        Seed (or Generator) of the trials.  Each trial forks its own
        independent generator from it (:func:`~repro.utils.rng.fork_rng`),
        so equal seeds reproduce identical statistics in any process.
        ``None`` draws fresh entropy — fine interactively, never for
        campaign cells.
    expected_repair:
        Make the massaging stage maximise *expected* success under the
        per-cell landing probabilities (no-op on probability-1.0 templates).
    env_drift:
        Temperature/voltage drift of the deployment environment, in
        ``(-1, 1)``.  Landing probabilities are scaled by ``1 - env_drift``
        during the Monte-Carlo trials and the expected-success massaging:
        positive drift (hot/undervolted victim refreshing more aggressively)
        suppresses landings, negative drift boosts them.  ``0.0`` (default)
        reproduces the nominal model bit-for-bit.
    context:
        The victim's shared :class:`~repro.analysis.evaluation.EvaluationContext`
        (for campaign cells, ``victim_context(trained).evaluation``).  Its
        eval set, batch size, clean accuracy and cached prefix activations
        give the bit-true accuracy numbers, so a campaign evaluates the clean
        model once per victim and every re-measurement runs only the attacked
        suffix layers.  The context must belong to ``result.view.model``;
        without one the accuracy fields are NaN.
    """
    if trials < 0:
        raise ConfigurationError(f"trials must be >= 0, got {trials}")
    check_env_drift(env_drift)
    env_scale = 1.0 - env_drift
    spec = storage_spec(storage)
    device = get_profile(profile) if profile is not None else None
    template = ecc = trr = max_flips_per_row = None
    massage_frames = 64
    if device is not None:
        layout = layout if layout is not None else device.layout()
        budget = budget if budget is not None else device.budget()
        template, ecc, trr = device.template(), device.ecc, device.trr
        max_flips_per_row = device.max_flips_per_row
        massage_frames = device.massage_frames
        if hammer_pattern is None:
            hammer_pattern = device.hammer_pattern
    budget = budget or HardwareBudget()

    victim: Sequential = result.view.model
    if context is not None and context.model is not victim:
        raise ConfigurationError("the evaluation context must belong to the attacked victim")
    scorer = BitTrueScorer(
        victim,
        result.view.selector,
        spec=spec,
        layout=layout,
        attack_plan=result.plan,
        context=context,
    )
    memory = scorer.memory
    view = memory.view
    if view.size != result.delta.shape[0]:
        raise ConfigurationError(
            "attack result delta does not match the victim's attacked parameters"
        )

    target_values = view.baseline + result.delta

    def plan_and_repair() -> tuple[BitFlipPlan, PlanRepair]:
        planned = plan_bit_flips(memory, target_values)
        return planned, repair_plan(
            planned, memory, target_values, budget,
            template=template, ecc=ecc, massage_frames=massage_frames,
            trr=trr, hammer_pattern=hammer_pattern, max_flips_per_row=max_flips_per_row,
            optimize_expected=expected_repair,
            env_scale=env_scale,
        )

    memo = _shared_repairs.get()
    if memo is None:
        planned, repair = plan_and_repair()
    else:
        # Everything the two stages read: the memory (pristine words,
        # selection, format, geometry), the targets and the device inputs.
        key = (
            scorer.pristine.tobytes(),
            target_values.tobytes(),
            view.selector,
            spec,
            memory.layout,
            budget,
            device,
            hammer_pattern,
            expected_repair,
            env_drift,
        )
        if key not in memo:
            memo[key] = _read_only(*plan_and_repair())
        planned, repair = memo[key]

    trial_stats = None
    if trials > 0:
        # The trials simulate exactly the pattern the plan was repaired
        # against, as recorded by the repair itself.
        trial_pattern = (
            get_pattern(repair.hammer_pattern)
            if repair.hammer_pattern is not None
            else None
        )
        trial_stats = _run_trials(
            scorer,
            repair,
            template,
            ecc,
            trr,
            trial_pattern,
            trials,
            rng,
            env_scale=env_scale,
        )
    ecc_raw_summary = None
    unrepaired_success = unrepaired_keep = float("nan")
    if ecc is not None:
        # What would the ECC controller have done to the *unrepaired* plan?
        # This is the baseline showing why re-routing is necessary: isolated
        # flips get corrected away and the bit-true success rate collapses.
        raw = scorer.measure(repair.pre_ecc_plan, ecc)
        ecc_raw_summary = raw.ecc_summary
        unrepaired_success, unrepaired_keep = raw.success_rate, raw.keep_rate

    # Measured last, so the scratch model is left carrying the attack.
    final = scorer.measure(repair.plan, ecc, accuracy=True)
    achieved = view.gather()
    quantization_error = (
        float(np.max(np.abs(achieved - target_values))) if achieved.size else 0.0
    )
    num_targets = result.plan.num_targets
    margins = _target_margins(
        final.target_logits, result.plan.desired_labels[:num_targets]
    )
    clean_accuracy = context.clean_accuracy if context is not None else float("nan")

    return LoweringReport(
        spec=spec,
        budget=budget,
        planned=planned,
        plan=repair.plan,
        repair=repair,
        quantization_error=quantization_error,
        success_rate=final.success_rate,
        keep_rate=final.keep_rate,
        target_margins=margins,
        clean_accuracy=float(clean_accuracy),
        attacked_accuracy=final.accuracy,
        attacked_model=scorer.model,
        device=device,
        env_drift=env_drift,
        hammer_pattern=repair.hammer_pattern,
        executed=final.executed,
        ecc_summary=final.ecc_summary,
        ecc_raw_summary=ecc_raw_summary,
        unrepaired_success_rate=unrepaired_success,
        unrepaired_keep_rate=unrepaired_keep,
        trial_stats=trial_stats,
        scorer=scorer,
    )
