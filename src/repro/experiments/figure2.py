"""Figure 2 — ℓ0 norm of the last-FC-layer modification vs S (CIFAR).

Identical protocol to Figure 1, run on the CIFAR-like dataset/model.
"""

from __future__ import annotations

import functools

from repro.experiments.campaign import Campaign, run_experiment
from repro.experiments.figure1 import assemble, build_campaign_for_dataset

__all__ = ["run", "build_campaign", "assemble"]


def build_campaign(scale: str = "ci", *, seed: int = 0) -> Campaign:
    """Declare the Figure 2 (CIFAR-like) campaign."""
    return build_campaign_for_dataset("cifar_like", "Figure 2", scale, seed=seed)


# Reproduce Figure 2 (CIFAR-like dataset).
run = functools.partial(run_experiment, build_campaign, assemble)
