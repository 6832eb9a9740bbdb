"""Guard for the benchmark's span tracer (``perfbench/tracer.py``).

The tracer patches the pipeline's entry points by name.  If one of those
names is deleted or moved, ``perfbench/run.py --trace 1`` breaks; these
tests make the same change fail the unit suite instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.attacks.batched import BatchedFaultSneakingAttack
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.targets import make_attack_plan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def _lookup(layer: str, owner: str | None, attribute: str):
    module = importlib.import_module(f"repro.{layer}")
    if owner is None:
        return getattr(module, attribute)
    return getattr(module, owner).__dict__[attribute]


@pytest.fixture()
def installed(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()


def test_every_target_is_wrapped_then_restored(tracer_module):
    targets = tracer_module.TARGETS
    originals = {target: _lookup(*target[:3]) for target in targets}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for target in targets:
            wrapped = _lookup(*target[:3])
            assert wrapped is not originals[target], target
            assert wrapped.__wrapped__ is originals[target], target
        assert all(sites >= 1 for sites in tracer.binding_sites.values()), tracer.binding_sites
    finally:
        tracer.uninstall()
    for target in targets:
        assert _lookup(*target[:3]) is originals[target], target


def test_attack_entry_points_count_separately(installed, tiny_model, tiny_split):
    """A single-plan attack is traced as ``attack`` and never as ``attack_batch``,
    which is what the benchmark's sweep self-check counts on."""
    config = FaultSneakingConfig(iterations=5, warmup_iterations=10, refine_support_steps=2)
    plans = [
        make_attack_plan(tiny_split.test, num_targets=1, num_images=8, seed=seed)
        for seed in (0, 1)
    ]
    installed.recording = True
    FaultSneakingAttack(tiny_model, config).attack(plans[0])
    snapshot = installed.snapshot()
    assert snapshot["attacks.fault_sneaking.attack_calls"] == 1
    assert snapshot["attacks.batched.attack_batch_calls"] == 0
    assert snapshot["attacks.admm.iterations"] > 0

    installed.reset()
    BatchedFaultSneakingAttack(tiny_model, config).attack_batch(plans)
    snapshot = installed.snapshot()
    assert snapshot["attacks.fault_sneaking.attack_calls"] == 0
    assert snapshot["attacks.batched.attack_batch_calls"] == 1
    assert snapshot["attacks.batched.lanes"] == 2
