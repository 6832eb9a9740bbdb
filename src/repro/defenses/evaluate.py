"""Run a defense against the Monte-Carlo trials of one lowered attack.

:func:`evaluate_defense` replays a :class:`~repro.attacks.lowering.
LoweringReport`'s per-trial outcomes under one defense and scores the race:

* **evasion rate** — fraction of trials where the attack's
  ``hammer_seconds`` elapse before the defense first flags it (undetected
  trials always evade);
* **time-to-detection** — mean defender-clock time of the first flag over
  the detected trials;
* **surviving success** — the attack success rate that remains once the
  defense has acted: the trial's own bit-true rate when the attack wins the
  race, the clean model's rate when a detection triggers restore-from-
  reference in time, and the re-measured rate of the permuted plan under
  randomized placement.

Defenses draw randomness only from a private stream derived from
``(defense_seed, defense name, trial index)``, so the attacker's landing
statistics are untouched: the ``"none"`` row of a defense matrix is
bit-identical to the corresponding undefended ``hardware_cost`` cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.attacks.lowering import LoweringReport, trial_ci, trial_mean
from repro.attacks.objective import mask_rate
from repro.defenses.base import (
    Defense,
    DefenseContext,
    attack_timeline,
    get_defense,
)
from repro.hardware.bitflip import BitFlipPlan
from repro.hardware.device import get_pattern
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, derive_seed

__all__ = ["DefenseStatistics", "evaluate_defense"]


@dataclass(frozen=True)
class DefenseStatistics:
    """Aggregate race outcome of one defense over a cell's trials."""

    defense: str
    trials: int
    hammer_seconds: float
    detection_rate: float
    evasion_rate: float
    evasion_ci: float
    time_to_detection: float
    time_to_detection_ci: float
    surviving_success: float
    surviving_success_ci: float
    restored_success: float

    def as_dict(self) -> dict:
        """Flat numeric metrics (campaign-job and reporting form)."""
        return {
            "defense_trials": self.trials,
            "hammer_seconds": self.hammer_seconds,
            "detection_rate": self.detection_rate,
            "evasion_rate": self.evasion_rate,
            "evasion_ci": self.evasion_ci,
            "time_to_detection": self.time_to_detection,
            "time_to_detection_ci": self.time_to_detection_ci,
            "surviving_success": self.surviving_success,
            "surviving_success_ci": self.surviving_success_ci,
            "restored_success": self.restored_success,
        }


def _binomial_ci(outcomes: np.ndarray) -> float:
    """95 % normal-approximation half-width of a Bernoulli rate."""
    n = outcomes.size
    if n < 2:
        return 0.0 if n else float("nan")
    p = float(outcomes.mean())
    return float(1.96 * math.sqrt(p * (1.0 - p) / n))


def evaluate_defense(
    defense: "str | Defense",
    *,
    report: LoweringReport,
    defense_seed: int,
) -> DefenseStatistics:
    """Score one defense against a lowered attack's Monte-Carlo trials.

    Parameters
    ----------
    defense:
        Registry name or configured :class:`~repro.defenses.base.Defense`.
    report:
        ``lower_attack(..., profile=..., trials=N)`` output; its
        ``trial_stats.outcomes`` are the executions being judged.  The
        report carries everything else the race needs: the device profile
        (injector, template, TRR tracker and ECC code), the hammer pattern
        the repair planned against, the environmental drift the trials ran
        under (it scales the canary landing probabilities exactly like the
        attacker's own flips) and the scorer that re-measures remapped
        trials on the victim it was lowered from.
    defense_seed:
        Root of the defense-private trial streams.
    """
    defense = get_defense(defense)
    stats = report.trial_stats
    if stats is None or not stats.outcomes:
        raise ConfigurationError(
            "defense evaluation needs Monte-Carlo trials: lower the attack "
            "with trials > 0"
        )
    device = report.device
    if device is None:
        raise ConfigurationError(
            "defense evaluation needs a device: lower the attack with a profile"
        )
    pattern = get_pattern(report.hammer_pattern) if report.hammer_pattern is not None else None
    cost = device.injector().cost(report.plan, pattern=pattern, trr=device.trr)
    timeline = attack_timeline(report.plan, cost)
    scorer = report.scorer
    layout = scorer.memory.layout
    template = device.template()
    yield_scale = (pattern.flip_yield if pattern is not None else 1.0) * (
        1.0 - report.env_drift
    )

    word_index, bit, address, row = report.plan.as_arrays()
    flip_times = timeline.flip_times(row)

    occupant, effective = defense.remap_plan(word_index, bit, scorer.pristine)
    identity_placement = occupant is word_index and bool(np.all(effective))

    clean_success_mask, _, _ = scorer.rates(scorer.victim)
    restored_success = mask_rate(clean_success_mask)

    evaded = np.empty(len(stats.outcomes), dtype=bool)
    detected = np.empty(len(stats.outcomes), dtype=bool)
    detection_times: list[float] = []
    surviving = np.empty(len(stats.outcomes), dtype=np.float64)
    for t, outcome in enumerate(stats.outcomes):
        ctx = DefenseContext(
            plan=report.plan,
            landed=outcome.landed,
            addresses=address,
            bits=bit,
            rows=row,
            flip_times=flip_times,
            timeline=timeline,
            ecc_alarms=outcome.ecc_alarms,
            region_bytes=scorer.memory.total_bytes,
            base_address=layout.base_address,
            row_bytes=layout.row_bytes,
            template=template,
            yield_scale=yield_scale,
            rng=RandomState(
                derive_seed("defense-trial", int(defense_seed), defense.name, t)
            ),
        )
        verdict = defense.judge(ctx)
        detected[t] = verdict.detected
        evaded[t] = verdict.evaded(timeline.hammer_seconds)
        if verdict.detected:
            detection_times.append(verdict.time_to_detection)
        if not identity_placement:
            # Re-measure the trial with its landed flips remapped.
            select = outcome.landed & effective
            remapped = BitFlipPlan.from_arrays(
                occupant[select], bit[select], address[select], row[select],
                num_words_total=report.plan.num_words_total,
            )
            surviving[t] = scorer.measure(remapped, device.ecc).success_rate
        elif detected[t] and not evaded[t]:
            # Detection in time triggers restore-from-reference: the trial's
            # payload is rolled back and only the clean-model rate survives.
            surviving[t] = restored_success
        else:
            surviving[t] = outcome.success_rate

    if not identity_placement:
        # Remapped trials were measured on the report's scratch model; put
        # the lowered attack back on it.
        scorer.measure(report.plan, device.ecc)
    ttd = np.asarray(detection_times, dtype=np.float64)
    return DefenseStatistics(
        defense=defense.name,
        trials=len(stats.outcomes),
        hammer_seconds=timeline.hammer_seconds,
        detection_rate=float(detected.mean()),
        evasion_rate=float(evaded.mean()),
        evasion_ci=_binomial_ci(evaded),
        time_to_detection=trial_mean(ttd),
        time_to_detection_ci=trial_ci(ttd),
        surviving_success=trial_mean(surviving),
        surviving_success_ci=trial_ci(surviving),
        restored_success=restored_success,
    )
