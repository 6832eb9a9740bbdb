"""Target-row-refresh mitigation modelling and hammer-pattern planning.

DDR4-era DRAM defends against Rowhammer with *target row refresh* (TRR): the
device keeps a small per-bank tracker of frequently-activated rows and, on the
next refresh opportunity, refreshes the neighbours of every tracked row — a
tracked aggressor's victims never accumulate enough charge loss to flip.  The
tracker is tiny (a handful of entries per bank), which is exactly what
TRRespass (Frigo et al., S&P 2020) exploits: hammer *more* aggressor rows than
the tracker can follow and some of them always escape.

:class:`TrrSampler` models that tracker deterministically: per bank it tracks
the ``tracker_size`` hammered rows with the highest activation weight (ties
broken towards lower row ids), and rows hammered below its activation
``threshold`` are never sampled at all.  A victim row flips only when *none*
of its aggressors are tracked.

Real in-DRAM trackers are *samplers*, not priority queues: each row
activation has a small probability of being latched into the tracker, so a
row's chance of being caught grows with how often it is activated but never
reaches certainty — the attack's outcome is a success *rate*, not a boolean.
:class:`ProbabilisticTrr` models that: per activation it samples with
``sample_probability``, a row is a candidate when at least one of its
activations was sampled, and per bank the ``tracker_size`` earliest-sampled
candidates win.  Draws come from a caller-supplied
:class:`numpy.random.Generator` (Monte-Carlo trials pass a per-trial one) or,
when none is given, from a generator derived from the sampler's own ``seed``
and the exact row/weight/bank inputs — so the single-shot repair path is
deterministic and byte-identical across processes.

:class:`HammerPattern` describes one access pattern the attacker can run —
how hard the true aggressors are hammered, how many decoy rows per bank are
hammered alongside them to soak up tracker entries, and the fraction of the
per-row flip yield that survives splitting the activation budget across more
rows.  :func:`plan_hammer` combines a victim-row set, a geometry, a pattern
and a sampler into a :class:`HammerPlan`: which rows get hammered (true
aggressors amortised across adjacent victims, plus decoys), which rows the
tracker catches, and which victims therefore actually flip.  This replaces
the flat ``max_rows`` cap of the ``ddr4-trr`` profile with *pattern-dependent*
effective budgets: double-sided hammering dies against a sampler, many-sided
TRRespass-style patterns recover most victims, and throttled patterns sneak
under the sampling threshold at a steep yield cost.

Shipped patterns (:data:`HAMMER_PATTERNS`):

* ``double-sided`` — the classic pattern: only the true aggressor pairs,
  hammered at full rate.  Maximum yield, fully visible to a tracker.
* ``many-sided`` — TRRespass: decoy rows hammered *harder* than the true
  aggressors flood the tracker, so the aggressors escape; the activation
  budget is split, halving the per-row flip yield.
* ``decoy-throttled`` — a few loud decoys plus aggressors throttled *below*
  the sampler's activation threshold: invisible to the tracker at a quarter
  of the yield.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # annotation-only: keeps this module import-light
    from repro.hardware.device.dram import DramGeometry

__all__ = [
    "TrrSampler",
    "ProbabilisticTrr",
    "HammerPattern",
    "HammerPlan",
    "HAMMER_PATTERNS",
    "register_pattern",
    "get_pattern",
    "list_patterns",
    "flat_aggressor_rows",
    "plan_hammer",
]


def _top_k_per_bank(
    rows: np.ndarray, key: np.ndarray, banks: np.ndarray, k: int
) -> np.ndarray:
    """Rows winning the per-bank top-``k`` tracker contention.

    Candidates are ranked within their bank by ascending ``key`` (ties
    towards lower row ids) and the first ``k`` per bank win; the winners are
    returned sorted.  Both tracker models share this selection — only the
    ranking key differs (descending weight vs first-sample time).
    """
    if not rows.size:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((rows, key, banks))
    sorted_banks = banks[order]
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_banks[1:] != sorted_banks[:-1]])
    )
    rank_in_bank = np.arange(sorted_banks.size) - np.repeat(
        starts, np.diff(np.append(starts, sorted_banks.size))
    )
    return np.sort(rows[order][rank_in_bank < k])


@dataclass(frozen=True)
class TrrSampler:
    """Deterministic model of a per-bank TRR aggressor tracker.

    Parameters
    ----------
    tracker_size:
        Tracked rows per bank.  The sampler follows the ``tracker_size``
        hammered rows with the highest activation weight; ties are broken
        towards lower row ids (a deterministic stand-in for "whichever the
        sampler happened to latch first").
    threshold:
        Minimum activation weight a row needs before the sampler considers
        it at all.  Rows hammered below the threshold — a throttled pattern —
        never enter the tracker.
    """

    tracker_size: int = 4
    threshold: int = 2

    def __post_init__(self):
        if self.tracker_size < 1:
            raise ConfigurationError("tracker_size must be >= 1")
        if self.threshold < 1:
            raise ConfigurationError("threshold must be >= 1")

    def describe(self) -> str:
        return f"trr({self.tracker_size}/bank, threshold {self.threshold})"

    def tracked_rows(
        self,
        rows: np.ndarray,
        weights: np.ndarray,
        banks: np.ndarray,
        rng: "np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Rows the tracker catches, given per-row activation weights.

        Per bank: among the rows with ``weight >= threshold``, the
        ``tracker_size`` highest-weight rows (ties towards lower row id).
        ``rng`` is accepted (and ignored) so :func:`plan_hammer` can dispatch
        deterministic and probabilistic samplers through one call.
        """
        rows = np.asarray(rows, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        banks = np.asarray(banks, dtype=np.int64)
        eligible = weights >= self.threshold
        rows, weights, banks = rows[eligible], weights[eligible], banks[eligible]
        # Highest weight wins: rank by descending weight within each bank.
        return _top_k_per_bank(rows, -weights, banks, self.tracker_size)


@dataclass(frozen=True)
class ProbabilisticTrr:
    """Sampling model of a per-bank TRR aggressor tracker.

    Hardware trackers latch a row on a randomly *sampled* activation rather
    than maintaining exact counts, so a row activated ``a`` times is caught
    with probability ``1 - (1 - p)**a`` — heavily-hammered rows are caught
    almost surely, throttled rows mostly slip through, and nothing is certain.

    Parameters
    ----------
    tracker_size:
        Tracked rows per bank.  When more rows are sampled than fit, the
        earliest-sampled candidates hold their entries — first-sample times
        are exponential with rate proportional to each row's activation
        count, so heavily hammered rows win the contention.
    sample_probability:
        Probability that any single activation is sampled into the tracker.
    activations_per_weight:
        Activations one unit of :class:`HammerPattern` weight represents;
        converts the pattern's relative weights into activation counts.
    seed:
        Seed of the derived generator used when no ``rng`` is passed to
        :meth:`tracked_rows`; the single-shot (non-Monte-Carlo) repair path
        is then a pure function of ``(seed, rows, weights, banks)`` and is
        byte-identical across processes and campaign executors.
    """

    tracker_size: int = 4
    sample_probability: float = 0.02
    activations_per_weight: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.tracker_size < 1:
            raise ConfigurationError("tracker_size must be >= 1")
        if not 0.0 < self.sample_probability <= 1.0:
            raise ConfigurationError("sample_probability must be in (0, 1]")
        if self.activations_per_weight < 1:
            raise ConfigurationError("activations_per_weight must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")

    def describe(self) -> str:
        return (
            f"trr-sampling({self.tracker_size}/bank, "
            f"p={self.sample_probability:g}/act)"
        )

    def catch_probabilities(self, weights: np.ndarray) -> np.ndarray:
        """Probability each row is sampled at least once, given its weight."""
        activations = np.asarray(weights, dtype=np.float64) * self.activations_per_weight
        return 1.0 - np.power(1.0 - self.sample_probability, activations)

    def tracked_rows(
        self,
        rows: np.ndarray,
        weights: np.ndarray,
        banks: np.ndarray,
        rng: "np.random.Generator | None" = None,
    ) -> np.ndarray:
        """One sampled tracker outcome: which hammered rows get caught.

        Each row is a candidate with its catch probability; per bank the
        ``tracker_size`` candidates with the earliest first-sample time
        occupy the tracker.  The first-sample time is an independent
        exponential draw with rate proportional to the row's activation
        count — heavily hammered rows are sampled earlier and hold their
        entries against lightly hammered ones, which is exactly the
        contention TRRespass decoys exploit.  Exactly ``2 * len(rows)``
        uniforms are consumed from ``rng`` whatever the outcome, so equal
        generator states give identical trackers.  Without an ``rng`` the
        draws come from a generator derived from ``seed`` and the inputs via
        :func:`repro.utils.rng.derive_seed` — deterministic, but independent
        across distinct hammer plans.
        """
        from repro.utils.rng import derive_seed

        rows = np.asarray(rows, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        banks = np.asarray(banks, dtype=np.int64)
        if rng is None:
            rng = np.random.default_rng(
                derive_seed(
                    "probabilistic-trr",
                    self.seed,
                    rows.tolist(),
                    weights.tolist(),
                    banks.tolist(),
                )
            )
        draws = rng.random((2, rows.size))
        caught = draws[0] < self.catch_probabilities(weights)
        activations = weights.astype(np.float64) * self.activations_per_weight
        times = -np.log1p(-draws[1]) / np.maximum(activations, 1.0)
        rows, times, banks = rows[caught], times[caught], banks[caught]
        # Earliest first-sample time wins its bank's tracker entries.
        return _top_k_per_bank(rows, times, banks, self.tracker_size)


@dataclass(frozen=True)
class HammerPattern:
    """One Rowhammer access pattern: weights, decoys and yield.

    Parameters
    ----------
    name, description:
        Registry name and one-line summary.
    aggressor_weight:
        Activation weight of the true aggressor rows, as seen by a
        :class:`TrrSampler` (relative units; the sampler's ``threshold``
        is in the same scale).
    decoys_per_bank:
        Decoy rows hammered per touched bank purely to occupy tracker
        entries.  Decoys are placed on otherwise-unused rows of the bank.
    decoy_weight:
        Activation weight of the decoy rows.  TRRespass-style patterns
        hammer decoys *harder* than aggressors so the tracker prefers them.
    flip_yield:
        Fraction of the device's per-row controlled-flip yield this pattern
        retains — splitting the activation budget across more rows (or
        throttling it) costs flips per row.
    """

    name: str
    description: str
    aggressor_weight: int = 4
    decoys_per_bank: int = 0
    decoy_weight: int = 0
    flip_yield: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("pattern name must be non-empty")
        if self.aggressor_weight < 1:
            raise ConfigurationError("aggressor_weight must be >= 1")
        if self.decoys_per_bank < 0 or (self.decoys_per_bank and self.decoy_weight < 1):
            raise ConfigurationError("decoy rows need a positive decoy_weight")
        if not 0.0 < self.flip_yield <= 1.0:
            raise ConfigurationError("flip_yield must be in (0, 1]")

    def effective_flips_per_row(self, max_flips_per_row: int) -> int:
        """Device per-row flip cap scaled by this pattern's yield (>= 1)."""
        return max(1, int(max_flips_per_row * self.flip_yield))

    def describe(self) -> str:
        parts = [f"aggressors x{self.aggressor_weight}"]
        if self.decoys_per_bank:
            parts.append(f"{self.decoys_per_bank} decoys x{self.decoy_weight}/bank")
        parts.append(f"yield {self.flip_yield:g}")
        return ", ".join(parts)


@dataclass(frozen=True)
class HammerPlan:
    """Outcome of planning one hammer pattern against a victim-row set.

    All rows are global row ids (see :meth:`DramGeometry.row_ids`).  The
    attacker hammers ``aggressors`` (shared neighbours counted once — the
    amortisation across adjacent victims) plus ``decoys``; the sampler
    catches ``tracked``; ``feasible_victims`` are the victims none of whose
    aggressors are tracked — the rows that actually flip.
    """

    pattern: HammerPattern
    sampler: "TrrSampler | ProbabilisticTrr | None"
    victims: np.ndarray
    aggressors: np.ndarray
    decoys: np.ndarray
    tracked: np.ndarray
    feasible_victims: np.ndarray

    @property
    def hammered_rows(self) -> np.ndarray:
        """Every row the pattern activates (aggressors and decoys, each once)."""
        return np.union1d(self.aggressors, self.decoys)

    @property
    def refreshed_victims(self) -> np.ndarray:
        """Victims the mitigation saves (refreshed before they can flip)."""
        return np.setdiff1d(self.victims, self.feasible_victims, assume_unique=True)

    def summary(self) -> dict:
        return {
            "pattern": self.pattern.name,
            "victims": int(self.victims.size),
            "feasible_victims": int(self.feasible_victims.size),
            "refreshed_victims": int(self.refreshed_victims.size),
            "hammered_rows": int(self.hammered_rows.size),
            "tracked_rows": int(self.tracked.size),
        }


# -- pattern registry -----------------------------------------------------------------

HAMMER_PATTERNS: dict[str, HammerPattern] = {}


def register_pattern(pattern: HammerPattern) -> HammerPattern:
    """Register a hammer pattern under its name (duplicates are rejected)."""
    if pattern.name in HAMMER_PATTERNS:
        raise ConfigurationError(f"hammer pattern {pattern.name!r} is already registered")
    HAMMER_PATTERNS[pattern.name] = pattern
    return pattern


def get_pattern(pattern: "str | HammerPattern") -> HammerPattern:
    """Resolve a pattern name (or pass an existing pattern through)."""
    if isinstance(pattern, HammerPattern):
        return pattern
    try:
        return HAMMER_PATTERNS[pattern]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown hammer pattern {pattern!r}; registered: {list_patterns()}"
        ) from exc


def list_patterns() -> tuple[str, ...]:
    """Names of every registered hammer pattern, sorted."""
    return tuple(sorted(HAMMER_PATTERNS))


register_pattern(
    HammerPattern(
        name="double-sided",
        description="Classic double-sided pairs at full rate (no tracker evasion)",
        aggressor_weight=4,
        flip_yield=1.0,
    )
)

register_pattern(
    HammerPattern(
        name="many-sided",
        description="TRRespass: loud decoys flood the tracker, aggressors escape",
        aggressor_weight=2,
        decoys_per_bank=8,
        decoy_weight=6,
        flip_yield=0.5,
    )
)

register_pattern(
    HammerPattern(
        name="decoy-throttled",
        description="Aggressors throttled below the sampler threshold, few loud decoys",
        aggressor_weight=1,
        decoys_per_bank=2,
        decoy_weight=6,
        flip_yield=0.25,
    )
)


# -- planning -------------------------------------------------------------------------


def flat_aggressor_rows(victim_rows) -> np.ndarray:
    """Aggressors of a flat (geometry-less) row space: row +- 1, amortised.

    The single source of the legacy flat adjacency rule — victims never
    serve as aggressors, row 0 has no row above it, and a row between two
    victims is counted once.  The hammer planner uses it when no
    :class:`~repro.hardware.device.dram.DramGeometry` is attached.
    """
    victims = np.unique(np.asarray(list(victim_rows), dtype=np.int64))
    if not victims.size:
        return np.empty(0, dtype=np.int64)
    candidates = np.unique(np.concatenate([victims - 1, victims + 1]))
    candidates = candidates[candidates >= 0]
    return np.setdiff1d(candidates, victims, assume_unique=True)


def _bank_of(rows: np.ndarray, geometry: "DramGeometry | None") -> np.ndarray:
    """Bank (linear) of each global row id; one flat bank without a geometry."""
    if geometry is None:
        return np.zeros(rows.shape, dtype=np.int64)
    return rows >> np.int64(geometry.row_bits)


def _place_decoys(
    banks: np.ndarray, per_bank: int, geometry: "DramGeometry | None", occupied: np.ndarray
) -> np.ndarray:
    """Deterministic decoy rows: top local rows of each touched bank, skipping
    rows already used as victims or aggressors (hammering those would not add
    tracker pressure — they are hammered anyway)."""
    if not per_bank or not banks.size:
        return np.empty(0, dtype=np.int64)
    occupied_set = set(occupied.tolist())
    decoys: list[int] = []
    for bank in np.unique(banks).tolist():
        if geometry is None:
            # Flat row space: count downwards from just above the occupied span.
            start = (max(occupied_set) if occupied_set else 0) + 2 + per_bank
            candidates = range(start, start - (1 << 30), -1)
        else:
            top = (bank + 1) << geometry.row_bits
            candidates = range(top - 1, (bank << geometry.row_bits) - 1, -1)
        placed = 0
        for row in candidates:
            if placed == per_bank:
                break
            if row in occupied_set:
                continue
            decoys.append(row)
            occupied_set.add(row)
            placed += 1
    return np.asarray(sorted(decoys), dtype=np.int64)


def plan_hammer(
    victim_row_ids,
    *,
    geometry: "DramGeometry | None" = None,
    pattern: "str | HammerPattern" = "double-sided",
    sampler: "TrrSampler | ProbabilisticTrr | None" = None,
    rng: "np.random.Generator | None" = None,
) -> HammerPlan:
    """Plan one hammer pattern against a victim-row set under a TRR sampler.

    Aggressors come from the geometry's adjacency model (amortised: a row
    between two victims is hammered once) or flat ``row +- 1`` adjacency
    without a geometry.  The pattern's decoy rows are placed (and paid for)
    per touched bank whether or not a tracker is present — the access
    pattern is what it is; the sampler only decides who gets *tracked*.
    Without a ``sampler`` every victim is feasible; with one, the tracker
    picks its rows from everything the pattern hammers and a victim
    survives only if none of its aggressors are tracked.  ``sampler`` may be
    the deterministic :class:`TrrSampler` or a :class:`ProbabilisticTrr`;
    ``rng`` (consumed only by the latter) selects one Monte-Carlo tracker
    outcome — omit it for the seed-derived deterministic draw.
    """
    pattern = get_pattern(pattern)
    victims = np.unique(np.asarray(victim_row_ids, dtype=np.int64))
    empty = np.empty(0, dtype=np.int64)
    if not victims.size:
        return HammerPlan(
            pattern=pattern,
            sampler=sampler,
            victims=victims,
            aggressors=empty,
            decoys=empty,
            tracked=empty,
            feasible_victims=victims,
        )
    if geometry is not None:
        aggressors = geometry.aggressor_row_ids(victims)
    else:
        aggressors = flat_aggressor_rows(victims)
    decoys = _place_decoys(
        _bank_of(aggressors, geometry),
        pattern.decoys_per_bank,
        geometry,
        np.union1d(victims, aggressors),
    )
    if sampler is None:
        return HammerPlan(
            pattern=pattern,
            sampler=None,
            victims=victims,
            aggressors=aggressors,
            decoys=decoys,
            tracked=empty,
            feasible_victims=victims,
        )

    hammered = np.concatenate([aggressors, decoys])
    weights = np.concatenate(
        [
            np.full(aggressors.size, pattern.aggressor_weight, dtype=np.int64),
            np.full(decoys.size, pattern.decoy_weight, dtype=np.int64),
        ]
    )
    tracked = sampler.tracked_rows(
        hammered, weights, _bank_of(hammered, geometry), rng=rng
    )

    # A victim flips only when no adjacent aggressor is being TRR-tracked:
    # a tracked aggressor's neighbours are refreshed before they can flip.
    # Neighbourhood stays within the victim's own bank (row ids one apart
    # across a bank boundary are not physical neighbours).
    if tracked.size:
        if geometry is not None:
            local = geometry.local_rows(victims)
            last = geometry.rows_per_bank - 1
        else:
            local = victims
            last = np.iinfo(np.int64).max
        below_tracked = (local > 0) & np.isin(victims - 1, tracked)
        above_tracked = (local < last) & np.isin(victims + 1, tracked)
        feasible = victims[~(below_tracked | above_tracked)]
    else:
        feasible = victims
    return HammerPlan(
        pattern=pattern,
        sampler=sampler,
        victims=victims,
        aggressors=aggressors,
        decoys=decoys,
        tracked=tracked,
        feasible_victims=feasible,
    )
