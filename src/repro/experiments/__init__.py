"""Experiment drivers reproducing every table and figure of the paper.

Each driver module declares its experiment once, in ``build_campaign``: the
grid of independent attack jobs and every option that shapes it.  The engine
in :mod:`repro.experiments.campaign` executes the jobs serially or across
worker processes, memoizing each cell in a content-addressed artifact store,
and the module's ``assemble`` builds the paper's table from the campaign's
own cells (:meth:`~repro.experiments.campaign.CampaignResult.cells`).
``module.run(scale, registry=..., seed=..., **options)`` builds, executes and
assembles in one call and returns a :class:`repro.analysis.reporting.Table`;
the options are ``build_campaign``'s keywords.  :data:`EXPERIMENTS` maps each
experiment name to its driver module:

========================  =====================================================
Module                    Paper artefact
========================  =====================================================
``table1``                Table 1 — ℓ0 norm per attacked FC layer (MNIST)
``table2``                Table 2 — weights-only vs biases-only, last FC layer
``table3``                Table 3 — ℓ0-based vs ℓ2-based attack norms
``table4``                Table 4 — test accuracy after modification
``figure1``               Figure 1 — ℓ0 norm vs S for several R (MNIST)
``figure2``               Figure 2 — ℓ0 norm vs S for several R (CIFAR)
``figure3``               Figure 3 — attack success rate vs S (both datasets)
``baseline_comparison``   §5.4 — accuracy loss vs the Liu et al. baselines
``ablations``             extra ablations (ρ sweep, warm start, δ-step, hardware cost)
``extension_detection``   extension — detectability under probing / auditing defenders
``hardware_cost``         extension — bit-true lowering: storage format × flip budget × S
``defense_matrix``        extension — arms race: attacker profile × defense × flip budget
========================  =====================================================

The ``scale`` argument selects the grid size: ``"ci"`` (minutes, used by the
benchmark suite), ``"paper"`` (the paper's S/R grids on the compact CNN) and
``"full"`` (the paper's grids on the paper's CNN architecture).
"""

from repro.experiments.campaign import (
    ArtifactStore,
    Campaign,
    CampaignResult,
    ExecutorConfig,
    JobSpec,
    make_executor,
    run_campaign,
)
from repro.experiments.common import (
    ExperimentSetting,
    attack_config_for,
    get_setting,
    get_trained_model,
)
from repro.experiments import (
    ablations,
    baseline_comparison,
    defense_matrix,
    extension_detection,
    figure1,
    figure2,
    figure3,
    hardware_cost,
    table1,
    table2,
    table3,
    table4,
)

# The campaign service (typed wire protocol, dispatcher, worker fleet).  The
# import also registers the built-in "service-selftest" job kind, which
# worker *subprocesses* need to find through _ensure_registrations().
from repro.experiments import service  # noqa: E402

EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "baseline_comparison": baseline_comparison,
    "ablations": ablations,
    "extension_detection": extension_detection,
    "hardware_cost": hardware_cost,
    "defense_matrix": defense_matrix,
}

__all__ = [
    "EXPERIMENTS",
    "ArtifactStore",
    "Campaign",
    "CampaignResult",
    "JobSpec",
    "run_campaign",
    "ExperimentSetting",
    "get_setting",
    "get_trained_model",
    "attack_config_for",
    "table1",
    "table2",
    "table3",
    "table4",
    "figure1",
    "figure2",
    "figure3",
    "baseline_comparison",
    "ablations",
    "extension_detection",
    "hardware_cost",
    "defense_matrix",
]
