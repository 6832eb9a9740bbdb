"""Cost / feasibility models for executing a bit-flip plan.

Two injection techniques from the paper's related-work discussion (§2.3) are
modelled:

* **Laser beam** (Selmke et al.) — precise, can flip any single SRAM bit, but
  every flip requires re-aiming and tuning the beam, so the dominant cost is
  proportional to the number of bit flips.
* **Row hammer** (Kim et al.) — flips bits in DRAM by hammering adjacent
  aggressor rows.  The dominant cost is per *victim row* hammered (finding and
  hammering an aggressor pair), with a practical limit on how many controlled
  flips can be realised within one row.

Both models produce an :class:`InjectionCost`; they are deliberately simple —
the point is to let benchmarks compare the *hardware effort* implied by ℓ0 vs
ℓ2 attack variants, not to model any particular DRAM part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.hardware.bitflip import BitFlipPlan
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # annotation-only: avoids importing the device subsystem here
    from repro.hardware.device.dram import DramGeometry

__all__ = ["InjectionCost", "Injector", "LaserBeamInjector", "RowHammerInjector"]


@dataclass(frozen=True)
class InjectionCost:
    """Estimated effort of executing a bit-flip plan.

    ``hammer_seconds`` is the pattern-dependent hammering effort (the part of
    ``time_seconds`` that is not one-off setup); ``refresh_windows`` counts
    the tREFW-sized hammer bursts the plan needs, and ``refresh_feasible`` is
    whether every burst fits its refresh window at all — rowhammer races the
    refresh interval, and a plan whose aggressors cannot accumulate enough
    activations before the victim is refreshed can never complete.  Both stay
    at their benign defaults for techniques without refresh timing (laser).
    """

    technique: str
    feasible: bool
    time_seconds: float
    operations: int
    bit_flips: int
    notes: str = ""
    hammer_seconds: float = 0.0
    refresh_windows: int = 0
    refresh_feasible: bool = True

    def as_dict(self) -> dict:
        return {
            "technique": self.technique,
            "feasible": self.feasible,
            "time_seconds": self.time_seconds,
            "operations": self.operations,
            "bit_flips": self.bit_flips,
            "notes": self.notes,
            "hammer_seconds": self.hammer_seconds,
            "refresh_windows": self.refresh_windows,
            "refresh_feasible": self.refresh_feasible,
        }


class Injector:
    """Base class for fault-injection cost models."""

    technique = "abstract"

    def cost(self, plan: BitFlipPlan) -> InjectionCost:
        """Estimate the effort of executing ``plan``."""
        raise NotImplementedError


class LaserBeamInjector(Injector):
    """Laser-beam fault injection: per-bit aiming cost.

    Parameters
    ----------
    seconds_per_flip:
        Time to position/tune the beam and flip one bit.
    setup_seconds:
        One-off preparation time (decapsulation, profiling the die).
    max_flips:
        Practical upper bound on flips per attack session; plans above it are
        reported infeasible.
    """

    technique = "laser"

    def __init__(
        self,
        *,
        seconds_per_flip: float = 30.0,
        setup_seconds: float = 3600.0,
        max_flips: int = 100_000,
    ):
        if seconds_per_flip <= 0 or setup_seconds < 0 or max_flips <= 0:
            raise ConfigurationError("laser injector parameters must be positive")
        self.seconds_per_flip = float(seconds_per_flip)
        self.setup_seconds = float(setup_seconds)
        self.max_flips = int(max_flips)

    def cost(self, plan: BitFlipPlan) -> InjectionCost:
        feasible = plan.num_flips <= self.max_flips
        time = self.setup_seconds + plan.num_flips * self.seconds_per_flip
        return InjectionCost(
            technique=self.technique,
            feasible=feasible,
            time_seconds=time,
            operations=plan.num_flips,
            bit_flips=plan.num_flips,
            notes="" if feasible else f"exceeds {self.max_flips} flips per session",
        )


class RowHammerInjector(Injector):
    """Row-hammer fault injection: per-aggressor-row hammering cost.

    A victim row is hammered from its physically adjacent rows, so the unit
    of work is an *aggressor activation*, not a victim row: an isolated
    victim needs a double-sided pair (two aggressors), while adjacent victim
    rows share aggressors and are hammered together — two neighbouring
    victims cost one sandwiching pair, the same as a single victim.  That
    amortisation must hold for *every* hammer pattern: a many-sided pattern
    adds decoy rows on top of the shared aggressors, it never re-counts an
    aggressor once per victim.

    Parameters
    ----------
    seconds_per_row:
        Time to template, position and hammer one double-sided aggressor
        *pair* (i.e. the cost of one isolated victim row); each individual
        aggressor activation costs half of it.
    max_flips_per_row:
        Maximum number of *controlled* flips achievable within a single
        victim row; rows of the plan needing more are infeasible.  Patterns
        that split the activation budget scale this down by their
        ``flip_yield``.
    setup_seconds:
        One-off memory-templating time.
    geometry:
        Optional :class:`~repro.hardware.device.dram.DramGeometry`.  With a
        geometry, adjacency is bank-aware: the plan's rows are global row
        ids, rows at a bank edge have a single usable aggressor, and rows in
        different banks never share one.  Without it, rows are treated as a
        flat sequence (the legacy ``row_bytes``-window model).
    refresh_window_s:
        Refresh period of any one row (tREFW: 8192 refresh commands issued
        one per tREFI ≈ 7.8 µs ⇒ 64 ms).  A victim must see enough aggressor
        activations *within one window* — afterwards it is recharged and the
        accumulated disturbance is gone.
    row_cycle_s:
        Time of one row activation cycle (tRC).  ``refresh_window_s /
        row_cycle_s`` is the per-bank activation budget of one window, split
        across everything the pattern hammers in that bank in proportion to
        its weights.
    min_activations:
        Activations an aggressor needs within one refresh window for its
        victims to flip.  Banks whose per-window aggressor share falls below
        it even for a single aggressor make the plan refresh-infeasible;
        otherwise aggressors are hammered in per-window batches and the cost
        reports how many windows the slowest bank needs.
    """

    technique = "rowhammer"

    def __init__(
        self,
        *,
        seconds_per_row: float = 120.0,
        max_flips_per_row: int = 16,
        setup_seconds: float = 1800.0,
        geometry: "DramGeometry | None" = None,
        refresh_window_s: float = 0.064,
        row_cycle_s: float = 45e-9,
        min_activations: int = 50_000,
    ):
        if seconds_per_row <= 0 or max_flips_per_row <= 0 or setup_seconds < 0:
            raise ConfigurationError("rowhammer injector parameters must be positive")
        if refresh_window_s <= 0 or row_cycle_s <= 0 or min_activations < 1:
            raise ConfigurationError("rowhammer refresh parameters must be positive")
        self.seconds_per_row = float(seconds_per_row)
        self.max_flips_per_row = int(max_flips_per_row)
        self.setup_seconds = float(setup_seconds)
        self.geometry = geometry
        self.refresh_window_s = float(refresh_window_s)
        self.row_cycle_s = float(row_cycle_s)
        self.min_activations = int(min_activations)

    def refresh_schedule(self, hammer) -> tuple[int, bool]:
        """Fit a hammer plan into tREFW windows: ``(windows, feasible)``.

        One refresh window offers ``refresh_window_s / row_cycle_s``
        activations per bank, split across a batch of aggressors plus the
        pattern's decoys in proportion to their weights (decoys must run in
        the *same* window — their whole job is soaking the tracker while the
        aggressors hammer).  The largest batch whose aggressors still reach
        ``min_activations`` bounds how many aggressors a bank can serve per
        window; aggressors beyond it wait for the next window.  Returns the
        window count of the slowest bank (banks hammer in parallel) and
        whether every bank can serve even one aggressor per window — when
        not, the victims are refreshed before the disturbance accumulates
        and no number of windows helps.
        """
        from repro.hardware.device.mitigations import _bank_of

        pattern = hammer.pattern
        window_slots = self.refresh_window_s / self.row_cycle_s
        # Largest aggressor batch b s.t. window_slots * aw / (b*aw + D*dw)
        # >= min_activations, i.e. b <= window_slots/min - D*dw/aw.
        decoy_load = pattern.decoys_per_bank * pattern.decoy_weight
        batch = int(window_slots / self.min_activations - decoy_load / pattern.aggressor_weight)
        aggressor_banks = _bank_of(hammer.aggressors, self.geometry)
        if not aggressor_banks.size:
            return 0, True
        if batch < 1:
            return 0, False
        _, per_bank = np.unique(aggressor_banks, return_counts=True)
        return int(np.max(-(-per_bank // batch))), True

    def cost(self, plan: BitFlipPlan, *, pattern=None, trr=None) -> InjectionCost:
        """Estimate the effort of executing ``plan``.

        Parameters
        ----------
        pattern:
            Optional hammer pattern (a name or
            :class:`~repro.hardware.device.mitigations.HammerPattern`).  The
            pattern's decoy rows are added to the hammered-row count — each
            once per bank, never once per victim — and its ``flip_yield``
            scales the per-row controlled-flip cap.
        trr:
            Optional TRR tracker
            (:class:`~repro.hardware.device.mitigations.TrrSampler` or
            :class:`~repro.hardware.device.mitigations.ProbabilisticTrr`).
            Victim rows the tracker saves make the plan infeasible as
            planned (the flips in those rows can never land).
        """
        from repro.hardware.device.mitigations import get_pattern, plan_hammer

        per_row = plan.flips_per_row()
        resolved = get_pattern(pattern if pattern is not None else "double-sided")
        limit = resolved.effective_flips_per_row(self.max_flips_per_row)
        overloaded = [row for row, count in per_row.items() if count > limit]
        notes = []
        if overloaded:
            notes.append(f"{len(overloaded)} rows need more than {limit} controlled flips")
        hammer = plan_hammer(
            np.asarray(list(per_row), dtype=np.int64),
            geometry=self.geometry,
            pattern=resolved,
            sampler=trr,
        )
        hammered = hammer.hammered_rows
        refreshed = int(hammer.refreshed_victims.size)
        if refreshed:
            notes.append(f"TRR refreshes {refreshed} victim rows before they flip")
        windows, refresh_feasible = self.refresh_schedule(hammer)
        if not refresh_feasible:
            notes.append(
                f"aggressors cannot reach {self.min_activations} activations "
                f"within one {self.refresh_window_s * 1e3:g} ms refresh window "
                f"under pattern {resolved.name!r}"
            )
        hammer_seconds = hammered.size * self.seconds_per_row / 2.0
        return InjectionCost(
            technique=self.technique,
            feasible=not overloaded and not refreshed and refresh_feasible,
            time_seconds=self.setup_seconds + hammer_seconds,
            operations=int(hammered.size),
            bit_flips=plan.num_flips,
            notes="; ".join(notes),
            hammer_seconds=hammer_seconds,
            refresh_windows=windows,
            refresh_feasible=refresh_feasible,
        )
