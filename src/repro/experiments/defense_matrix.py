"""Arms race: attacker profile × defense config × flip budget.

Every cell solves the attack once, lowers it onto the attacker's device
exactly like ``hardware_cost`` (same solve cache, same trial-seed
derivation — the ``none`` row is bit-identical to the corresponding
undefended ``hardware_cost`` cell), then judges each Monte-Carlo execution
under one configured defense (:func:`repro.defenses.evaluate_defense`):

* **evasion rate** — how often the attack's modelled ``hammer_seconds``
  elapse before the defense first flags it, with a 95 % binomial CI;
* **time-to-detection** — mean defender-clock time of the first flag over
  the detected trials;
* **surviving success** — the attack success left after the defender's
  response (restore-from-reference on timely detection, payload scramble
  under randomized placement).

Attackers are named (profile, hammer pattern) pairs — a permissive consumer
DIMM hammered double-sided, a SECDED server DIMM, and the stochastic
TRRespass device driven many-sided — so the matrix reads as *who* is
attacking, not just which DRAM generation.  Defenses come from the
:mod:`repro.defenses` registry.  Each cell is an independent campaign job:
the grid parallelises under ``--jobs N`` / every executor backend and stays
byte-identical to the serial run.

The defenses of one (attacker, budget, S) point lower the same attack, and
within one campaign run (or one pool worker) they share its plan repair
(:func:`repro.attacks.lowering.shared_repairs`): the repair, most of a
lowering's cost, runs once per lowering instead of once per defense.
Every cell still runs its own Monte-Carlo trials and defense evaluation on
its own scorer, so no metric depends on which cell repaired first.
"""

from __future__ import annotations

import functools

from repro.analysis.reporting import (
    DEFENSE_COLUMNS,
    STOCHASTIC_COST_COLUMNS,
    Table,
    defense_cells,
    stochastic_cost_cells,
)
from repro.attacks.lowering import check_trial_options
from repro.defenses import evaluate_defense, get_defense
from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    JobSpec,
    register_job,
    run_experiment,
)
from repro.experiments.common import get_setting
from repro.experiments.hardware_cost import (
    BUDGET_LEVELS,
    _num_images,
    _scheme_params,
    lowered_cell,
)
from repro.hardware.device import get_pattern, get_profile
from repro.utils.errors import ConfigurationError
from repro.utils.rng import derive_seed

__all__ = [
    "run",
    "build_campaign",
    "assemble",
    "ATTACKER_PROFILES",
    "DEFAULT_ATTACKERS",
    "DEFAULT_DEFENSES",
    "DEFAULT_BUDGETS",
    "DEFAULT_TRIALS",
]

# Named attacker profiles: a (device profile, hammer pattern) pair per
# threat actor.  The names are the campaign axis; the pairs pin the exact
# lowering parameters so a matrix cell reproduces the matching
# `hardware_cost` cell bit for bit.
ATTACKER_PROFILES: dict[str, tuple[str, str]] = {
    # Fast and loud: no ECC, full landing probability, double-sided burst.
    "ddr3-blitz": ("ddr3-noecc", "double-sided"),
    # Patient and careful: SECDED server DIMM, alarms on uncorrectables.
    "server-stealth": ("server-ecc", "double-sided"),
    # Realistic modern attacker: sampling TRR tracker evaded many-sided,
    # sub-1.0 landing probabilities — the slowest, noisiest injection.
    "trrespass-stochastic": ("stochastic-trrespass", "many-sided"),
}

DEFAULT_ATTACKERS = tuple(ATTACKER_PROFILES)

# Defense configurations swept by default (registry names; see
# repro.defenses).  "none" anchors the matrix to the undefended rates.
DEFAULT_DEFENSES = (
    "none",
    "checksum",
    "checksum-fast",
    "ecc-scrub",
    "canary",
    "aslr",
)

# Flip-budget levels swept by default: the profile-derived budget and its
# expected-success variant.  "unlimited" is available via
# ``run(budgets=...)`` but adds little to the race (the defenses act on
# landed flips either way).
DEFAULT_BUDGETS = ("derived", "expected")

# Monte-Carlo executions judged per cell.  Matches hardware_cost's default
# so the `none` rows line up with the default hardware_cost tables.
DEFAULT_TRIALS = 3

# The matrix runs on one storage format; the storage axis belongs to
# hardware_cost.  float32 is the deployment format the paper evaluates.
_STORAGE = "float32"


@register_job("defense-matrix-cell")
def _defense_matrix_cell_job(*, attacker: str, defense: str, **params) -> dict:
    """Lower one attack and judge its trials under one defense."""
    profile, pattern = ATTACKER_PROFILES[attacker]
    cell = lowered_cell(storage=_STORAGE, profile=profile, pattern=pattern, **params)
    stats = evaluate_defense(
        defense,
        report=cell.report,
        # One defense-private stream root per cell, independent of (but as
        # reproducible as) the attacker's landing streams.
        defense_seed=derive_seed(
            "defense-matrix",
            int(params.get("flip_seed", 0)),
            params["dataset"],
            params["scale"],
            int(params["seed"]),
            int(params["s"]),
            _STORAGE,
            profile,
            params["budget"],
            pattern,
            defense,
        ),
    )
    return {**cell.metrics(), **stats.as_dict()}


def build_campaign(
    scale: str = "ci",
    *,
    seed: int = 0,
    dataset: str = "mnist_like",
    attackers: tuple[str, ...] = DEFAULT_ATTACKERS,
    defenses: tuple[str, ...] = DEFAULT_DEFENSES,
    budgets: tuple[str, ...] = DEFAULT_BUDGETS,
    trials: int = DEFAULT_TRIALS,
    flip_seed: int = 0,
    variance_reduction: str = "independent",
    env_drift: float = 0.0,
) -> Campaign:
    """Declare one job per (attacker, defense, budget, S) matrix point."""
    for name in attackers:
        if name not in ATTACKER_PROFILES:
            known = ", ".join(sorted(ATTACKER_PROFILES))
            raise ConfigurationError(
                f"unknown attacker {name!r}; known attackers: {known}"
            )
        profile, pattern = ATTACKER_PROFILES[name]
        get_profile(profile)
        get_pattern(pattern)
    for name in defenses:
        get_defense(name)  # fail fast on unknown defense names
    for name in budgets:
        if name not in BUDGET_LEVELS:
            known = ", ".join(BUDGET_LEVELS)
            raise ConfigurationError(f"unknown budget {name!r}; known budgets: {known}")
    if trials <= 0:
        raise ConfigurationError(
            f"the defense race is judged per trial; trials must be > 0, got {trials}"
        )
    check_trial_options(variance_reduction, env_drift)
    setting = get_setting(scale)
    r = _num_images(setting)
    jobs = [
        JobSpec.make(
            "defense-matrix-cell",
            dataset=dataset,
            scale=scale,
            seed=int(seed),
            s=int(s),
            r=int(r),
            attacker=attacker,
            defense=defense,
            budget=budget,
            plan_seed=int(seed),
            trials=int(trials),
            flip_seed=int(flip_seed),
            **_scheme_params(variance_reduction, env_drift),
        )
        for attacker in attackers
        for defense in defenses
        for budget in budgets
        for s in setting.hardware_s_values
        if s <= r
    ]
    return Campaign(
        name="defense_matrix",
        scale=scale,
        seed=seed,
        jobs=tuple(jobs),
        metadata={
            "dataset": dataset,
            "attackers": tuple(attackers),
            "defenses": tuple(defenses),
            "env_drift": float(env_drift),
        },
    )


def assemble(campaign: Campaign, results: CampaignResult) -> Table:
    """Turn the per-cell metrics into the arms-race matrix."""
    attackers = campaign.metadata["attackers"]
    defenses = campaign.metadata["defenses"]
    env_drift = campaign.metadata["env_drift"]
    table = Table(
        title=(
            f"Arms race: attacker profile × defense × flip budget "
            f"({campaign.metadata['dataset']}, {_STORAGE}, "
            f"R={_num_images(get_setting(campaign.scale))})"
        ),
        columns=[
            "attacker",
            "profile",
            "pattern",
            "defense",
            "budget",
            "S",
            "bit-true success",
            *STOCHASTIC_COST_COLUMNS,
            *DEFENSE_COLUMNS,
        ],
    )
    for params, metrics in results.cells():
        attacker = params["attacker"]
        table.add_row(
            attacker,
            *ATTACKER_PROFILES[attacker],
            params["defense"],
            params["budget"],
            params["s"],
            metrics["bit_true_success"],
            *stochastic_cost_cells(metrics),
            *defense_cells(metrics),
        )
    table.add_note(
        "evasion rate = fraction of trials where the attack's hammer_seconds "
        "elapse before the defense first flags it (± 95% binomial CI); "
        "'ttd s' is the mean defender-clock time of the first flag over "
        "detected trials (NaN when nothing was detected); 'surviving "
        "success' is the attack success left after the defender's response "
        "(restore on timely detection, payload scramble under aslr)."
    )
    table.add_note(
        "the 'none' rows reproduce the matching hardware_cost cells bit for "
        "bit: same solve cache, same per-cell trial-seed derivation."
    )
    table.add_note(
        "attackers: " + "; ".join(
            f"{name} = {ATTACKER_PROFILES[name][0]} via "
            f"{ATTACKER_PROFILES[name][1]}"
            for name in attackers
        )
    )
    table.add_note(
        "defenses: " + "; ".join(
            f"{name} = {get_defense(name).describe()}" for name in defenses
        )
    )
    if env_drift:
        table.add_note(
            f"env drift {env_drift:+g}: landing probabilities scaled by "
            f"{1.0 - env_drift:g} for attacker flips and canary cells alike."
        )
    return table


# Run the attacker × defense × budget matrix and return its table.
run = functools.partial(run_experiment, build_campaign, assemble)
