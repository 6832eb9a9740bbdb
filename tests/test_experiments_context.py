"""The per-victim context that campaign cells share within a process.

Cells read the anchor pool, the evaluation set, the clean accuracy and the
clean prefix activations from one context per victim.  These tests pin that
the sharing never shows in a result, that the clean model really runs on
the evaluation set only once, and that no cell leaves the victim changed,
which would make the shared numbers stale.
"""

import contextlib
import json
from unittest import mock

import pytest

from repro.experiments.campaign import Campaign, JobSpec, execute_job, run_campaign
from repro.experiments.common import get_trained_model, sweep_cell_spec, victim_context
from repro.experiments.fusion import run_fused_group
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.zoo.registry import ModelRegistry

SCALE = "smoke"


def _cold_registry(session_registry):
    """A registry with nothing in memory (so no context) over the shared disk cache."""
    return ModelRegistry(session_registry.disk_cache)


def _victim(registry):
    return get_trained_model("mnist_like", SCALE, registry=registry, seed=0)


def _sweep_cells():
    return [
        sweep_cell_spec(dataset="mnist_like", scale=SCALE, seed=0, s=s, r=r, plan_seed=3)
        for r in (10, 30)
        for s in (1, 2, 4)
    ]


def _hardware_cell():
    return JobSpec.make(
        "hardware-cost-cell",
        dataset="mnist_like",
        scale=SCALE,
        seed=0,
        s=1,
        r=10,
        storage="int8",
        profile="ddr3-noecc",
        budget="derived",
        pattern="double-sided",
        plan_seed=0,
        trials=1,
        flip_seed=0,
    )


def _metrics(spec, registry) -> str:
    # JSON text, so NaN columns compare equal.
    return json.dumps(execute_job(spec, registry=registry).metrics, sort_keys=True)


def _parameter_bytes(model) -> dict[str, bytes]:
    return {key: value.tobytes() for key, value in model.snapshot().items()}


def _assert_untouched(model, before):
    assert _parameter_bytes(model) == before
    assert all(layer.lanes is None for layer in model.layers)


@contextlib.contextmanager
def _predict_logits_rows():
    """Record the row count of every ``Sequential.predict_logits`` call."""
    rows = []
    original = Sequential.predict_logits

    def counting(self, x, **kwargs):
        rows.append(len(x))
        return original(self, x, **kwargs)

    with mock.patch.object(Sequential, "predict_logits", counting):
        yield rows


@pytest.mark.parametrize(
    "spec", [_sweep_cells()[4], _hardware_cell()], ids=["sweep-cell", "hardware-cost-cell"]
)
def test_cold_and_warm_context_give_the_same_result(session_registry, spec):
    cold = _metrics(spec, _cold_registry(session_registry))
    warm = _cold_registry(session_registry)
    for other in _sweep_cells()[:3]:
        execute_job(other, registry=warm)
    assert _victim(warm).context is not None
    assert _metrics(spec, warm) == cold


@pytest.mark.parametrize("fuse", [False, True], ids=["scalar", "fused"])
def test_a_sweep_runs_the_clean_model_on_the_eval_split_once(session_registry, fuse):
    registry = _cold_registry(session_registry)
    trained = _victim(registry)
    campaign = Campaign(name="context-guard", scale=SCALE, seed=0, jobs=tuple(_sweep_cells()))
    with _predict_logits_rows() as rows:
        result = run_campaign(campaign, registry=registry, fuse=fuse)
    assert result.stats.executed == 6
    assert rows == [len(victim_context(trained).eval_set)]


def test_cells_leave_the_victim_unchanged(session_registry):
    registry = _cold_registry(session_registry)
    model = _victim(registry).model
    before = _parameter_bytes(model)
    for spec in [*_sweep_cells(), _hardware_cell()]:
        execute_job(spec, registry=registry)
        _assert_untouched(model, before)
    run_fused_group(_sweep_cells()[3:], registry=registry)
    _assert_untouched(model, before)


def _fail_on_backward_call(number):
    """Patch ``Dense.backward`` to raise on its ``number``-th call."""
    calls = 0
    original = Dense.backward

    def failing(self, grad_output, **kwargs):
        nonlocal calls
        calls += 1
        if calls == number:
            raise RuntimeError("injected failure")
        return original(self, grad_output, **kwargs)

    return mock.patch.object(Dense, "backward", failing)


@pytest.mark.parametrize("fuse", [False, True], ids=["scalar", "fused"])
def test_a_solve_that_raises_partway_leaves_the_victim_unchanged(session_registry, fuse):
    cells = _sweep_cells()[3:]
    expected = _metrics(cells[0], _cold_registry(session_registry))
    registry = _cold_registry(session_registry)
    model = _victim(registry).model
    before = _parameter_bytes(model)
    execute_job(cells[1], registry=registry)  # the context exists before the failure
    with _fail_on_backward_call(40), pytest.raises(RuntimeError, match="injected failure"):
        if fuse:
            run_fused_group(cells, registry=registry)
        else:
            execute_job(cells[0], registry=registry)
    _assert_untouched(model, before)
    assert _metrics(cells[0], registry) == expected
