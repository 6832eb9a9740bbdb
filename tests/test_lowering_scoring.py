"""How lowering scores its plans: one scratch model, clean prefixes reused.

``lower_attack`` measures the repaired plan, the decoder-corrected baseline
and every Monte-Carlo trial through one :class:`BitTrueScorer`; defenses
re-measure remapped trials through the same scorer.  These tests pin that
the reuse never shows in a number (each measurement equals a full forward of
a fresh victim copy carrying the same flips), that the victim is never
written, and that the work stays bounded: no full-model forwards and one
model copy per warm campaign cell, and one template lookup per repair
stage however many words are re-routed or codewords padded.  A defense
reads the device and the environmental drift from the report it judges.
"""

from unittest import mock

import numpy as np
import pytest

from repro.analysis.evaluation import EvaluationContext
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.lowering import lower_attack, repair_plan
from repro.attacks.parameter_view import ParameterView
from repro.attacks.targets import make_attack_plan
from repro.defenses import evaluate_defense
from repro.defenses.canary import CanaryField
from repro.experiments.campaign import JobSpec, execute_job
from repro.hardware.bitflip import plan_bit_flips
from repro.hardware.device import FlipTemplate, get_pattern, get_profile
from repro.hardware.memory import ParameterMemoryMap
from repro.nn.model import Sequential
from repro.nn.quantization import storage_spec
from repro.utils.errors import ConfigurationError

FAST_CONFIG = FaultSneakingConfig(
    norm="l0", iterations=50, warmup_iterations=200, refine_support_steps=20
)
PROFILES = ("ddr3-noecc", "server-ecc")


@pytest.fixture(scope="module")
def attack_result(tiny_model, tiny_split):
    plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=20, seed=0)
    return FaultSneakingAttack(tiny_model, FAST_CONFIG).attack(plan)


def _parameter_bytes(model) -> dict[str, bytes]:
    return {key: value.tobytes() for key, value in model.snapshot().items()}


def _lower(attack_result, profile, **kwargs):
    return lower_attack(
        attack_result, storage="int8", profile=profile, trials=3, rng=11, **kwargs
    )


def test_context_must_belong_to_the_victim(attack_result, tiny_model, tiny_split):
    with pytest.raises(ConfigurationError):
        lower_attack(attack_result, context=EvaluationContext(tiny_model.copy(), tiny_split.test))


@pytest.mark.parametrize("profile", PROFILES)
def test_every_trial_equals_a_full_forward_of_a_fresh_copy(
    attack_result, tiny_model, tiny_split, profile
):
    report = _lower(attack_result, profile, context=EvaluationContext(tiny_model, tiny_split.test))
    device = get_profile(profile)
    attack_plan = attack_result.plan
    s = attack_plan.num_targets
    for outcome in report.trial_stats.outcomes:
        model = tiny_model.copy()
        memory = ParameterMemoryMap(
            ParameterView(model, attack_result.view.selector),
            spec=storage_spec("int8"),
            layout=device.layout(),
        )
        executed = report.plan.select(outcome.landed)
        if device.ecc is not None:
            executed, _ = device.ecc.apply_to_plan(executed, memory)
        memory.apply_plan(executed)
        memory.flush_to_model()
        predictions = model.predict(attack_plan.images)
        desired = attack_plan.desired_labels
        assert outcome.success_rate == float((predictions[:s] == desired[:s]).mean())
        assert outcome.keep_rate == float((predictions[s:] == desired[s:]).mean())
        assert outcome.accuracy == model.evaluate(tiny_split.test.images, tiny_split.test.labels)


def test_lowering_and_defenses_leave_the_victim_unchanged(attack_result, tiny_model):
    before = _parameter_bytes(tiny_model)
    report = _lower(attack_result, "ddr3-noecc")
    assert _parameter_bytes(tiny_model) == before
    attacked = _parameter_bytes(report.attacked_model)
    stats = evaluate_defense("aslr", report=report, defense_seed=5)
    assert stats.trials == 3
    assert _parameter_bytes(tiny_model) == before
    # The remapped trials ran on the report's scratch model, which carries
    # the lowered attack again afterwards.
    assert _parameter_bytes(report.attacked_model) == attacked


def test_defenses_need_a_device(attack_result):
    report = lower_attack(attack_result, storage="int8", trials=2, rng=11)
    with pytest.raises(ConfigurationError, match="profile"):
        evaluate_defense("canary", report=report, defense_seed=5)


def test_environmental_drift_reaches_the_defense(attack_result):
    report = lower_attack(
        attack_result,
        storage="int8",
        profile="stochastic-trrespass",
        hammer_pattern="many-sided",
        trials=2,
        rng=11,
        env_drift=0.25,
    )
    with mock.patch.object(
        CanaryField, "judge", autospec=True, side_effect=CanaryField.judge
    ) as judge:
        evaluate_defense("canary", report=report, defense_seed=5)
    assert judge.call_count == 2
    for call in judge.call_args_list:
        ctx = call.args[1]
        assert ctx.yield_scale == get_pattern("many-sided").flip_yield * 0.75


def test_a_warm_hardware_cost_cell_runs_no_full_forward_and_one_copy(session_registry):
    spec = JobSpec.make(
        "hardware-cost-cell",
        dataset="mnist_like",
        scale="smoke",
        seed=0,
        s=1,
        r=10,
        storage="int8",
        profile="server-ecc",
        budget="derived",
        pattern="double-sided",
        plan_seed=0,
        trials=3,
        flip_seed=0,
    )
    execute_job(spec, registry=session_registry)  # warms the solve and the context
    with (
        mock.patch.object(Sequential, "predict_logits", autospec=True) as predict_logits,
        mock.patch.object(Sequential, "copy", autospec=True, side_effect=Sequential.copy) as copy,
    ):
        execute_job(spec, registry=session_registry)
    assert predict_logits.call_count == 0
    assert copy.call_count <= 1


def _count_feasible_cells(plan, memory, target, device, massage_frames):
    calls = 0
    original = FlipTemplate.feasible_cells

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, *args, **kwargs)

    with mock.patch.object(FlipTemplate, "feasible_cells", counting):
        repair = repair_plan(
            plan, memory, target, template=device.template(0), ecc=device.ecc,
            massage_frames=massage_frames,
        )
    return calls, repair


@pytest.mark.parametrize("massage_frames", [1, 64])
@pytest.mark.parametrize("profile", ["ddr3-noecc", "server-ecc", "ddr5-ondie", "server-chipkill"])
def test_template_lookups_do_not_grow_with_rerouted_words(
    attack_result, tiny_model, profile, massage_frames
):
    device = get_profile(profile)
    view = ParameterView(tiny_model.copy(), attack_result.view.selector)
    memory = ParameterMemoryMap(view, spec=storage_spec("float32"), layout=device.layout())
    target = view.baseline + attack_result.delta
    plan = plan_bit_flips(memory, target)
    words = plan.as_arrays()[0]
    small = plan.select(words < np.unique(words)[8])
    counts, infeasible, codewords = [], [], []
    for candidate in (small, plan):
        calls, repair = _count_feasible_cells(candidate, memory, target, device, massage_frames)
        counts.append(calls)
        infeasible.append(repair.flips_infeasible)
        codewords.append(repair.codewords_padded + repair.codewords_dropped)
    assert 0 < infeasible[0] < infeasible[1]
    if device.ecc is None:
        assert counts == [1, 1]
    else:
        # One lookup for the touched words, one for every vulnerable
        # codeword's companion cells.
        assert 0 < codewords[0] < codewords[1]
        assert counts == [2, 2]
