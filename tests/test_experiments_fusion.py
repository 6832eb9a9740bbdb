"""Tests for the campaign fusion pass (repro.experiments.fusion).

The cheap tests drive grouping and execution through a test-only fused job
kind; the acceptance tests run a real experiment grid fused and serially and
demand identical canonical manifests, rendered tables, per-job telemetry
multisets and artifact-store entries.
"""

import json
from collections import Counter

import pytest

from repro.experiments import table4
from repro.experiments.campaign import (
    ArtifactStore,
    Campaign,
    JobSpec,
    execute_job,
    register_job,
    run_campaign,
)
from repro.experiments.fusion import (
    fusion_kinds,
    fusion_rule,
    plan_fusion,
    register_fusion,
    run_fused_group,
)
from repro.experiments.telemetry import JobCached, JobFinished, JobStarted, global_bus
from repro.utils.errors import ConfigurationError

# -- test-only fused job kind --------------------------------------------------------


@register_job("test-fused-echo")
def _fused_echo_job(*, registry=None, group, value):
    return {"value": float(value), "double": 2.0 * value}


@register_fusion("test-fused-echo", group_key=lambda params: params["group"] or None)
def _fused_echo_batch(specs, *, registry=None):
    return [
        {"value": float(p["value"]), "double": 2.0 * p["value"]}
        for p in (spec.param_dict() for spec in specs)
    ]


@register_job("test-trio")
def _trio_job(*, registry=None, value):
    return {"value": float(value)}


@register_fusion("test-trio", group_key=lambda params: "all", min_group=3)
def _trio_batch(specs, *, registry=None):
    return [{"value": float(spec.param_dict()["value"])} for spec in specs]


def _echo(group, value):
    return JobSpec.make("test-fused-echo", group=group, value=value)


# -- registry ------------------------------------------------------------------------


class TestRegistration:
    def test_registered_kinds_include_real_grids(self):
        assert "sweep-cell" in fusion_kinds()
        assert fusion_rule("sweep-cell") is not None
        assert fusion_rule("no-such-kind") is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_fusion("test-fused-echo", group_key=lambda p: None)(
                lambda specs, *, registry=None: []
            )

    def test_reregistering_the_same_function_is_idempotent(self):
        rule = fusion_rule("test-fused-echo")
        register_fusion("test-fused-echo", group_key=rule.group_key)(rule.run_batch)
        assert fusion_rule("test-fused-echo").run_batch is rule.run_batch

    def test_min_group_below_two_rejected(self):
        with pytest.raises(ConfigurationError, match="min_group"):
            register_fusion("test-bad", group_key=lambda p: None, min_group=1)

    def test_sweep_cell_group_key_separates_incompatible_cells(self):
        """S and the plan seed ride as lanes; everything else must match."""
        key = fusion_rule("sweep-cell").group_key
        base = dict(
            dataset="mnist_like", scale="ci", seed=0, s=1, r=50,
            norm="l0", target_strategy="random", plan_seed=0,
        )
        assert key(base) == key({**base, "s": 4, "plan_seed": 7})
        assert key(base) != key({**base, "r": 200})
        assert key(base) != key({**base, "dataset": "cifar_like"})
        assert key(base) != key({**base, "norm": "l2"})
        assert key(base) != key({**base, "seed": 1})


# -- planning ------------------------------------------------------------------------


class TestPlanFusion:
    def test_groups_by_key_preserving_order(self):
        specs = [_echo("a", 0), _echo("a", 1), _echo("b", 2), _echo("a", 3), _echo("b", 4)]
        groups, remainder = plan_fusion(specs)
        assert groups == [[specs[0], specs[1], specs[3]], [specs[2], specs[4]]]
        assert remainder == []

    def test_none_key_opts_out(self):
        specs = [_echo("", 0), _echo("a", 1), _echo("", 2), _echo("a", 3)]
        groups, remainder = plan_fusion(specs)
        assert groups == [[specs[1], specs[3]]]
        assert remainder == [specs[0], specs[2]]

    def test_singletons_stay_scalar_in_submission_order(self):
        specs = [_echo("a", 0), _echo("b", 1), _echo("b", 2), _echo("c", 3)]
        groups, remainder = plan_fusion(specs)
        assert groups == [[specs[1], specs[2]]]
        assert remainder == [specs[0], specs[3]]

    def test_unfusable_kind_stays_scalar(self):
        specs = [JobSpec.make("test-echo", value=1, workdir=None) for _ in range(2)]
        groups, remainder = plan_fusion(specs)
        assert groups == []
        assert remainder == specs

    def test_min_group_respected(self):
        pair = [JobSpec.make("test-trio", value=v) for v in (1, 2)]
        assert plan_fusion(pair) == ([], pair)
        trio = pair + [JobSpec.make("test-trio", value=3)]
        assert plan_fusion(trio) == ([trio], [])

    def test_undersized_group_interleaves_in_submission_order(self):
        a, b = (JobSpec.make("test-trio", value=v) for v in (1, 2))
        x = _echo("", 3)
        assert plan_fusion([a, x, b]) == ([], [a, x, b])


# -- execution -----------------------------------------------------------------------


class TestRunFusedGroup:
    def test_results_match_scalar_execution(self):
        group = [_echo("a", v) for v in (1, 2, 3)]
        fused = run_fused_group(group)
        for spec, result in zip(group, fused):
            scalar = execute_job(spec)
            assert result.key == spec.key == scalar.key
            assert result.kind == scalar.kind
            assert result.metrics == scalar.metrics
            assert not result.cached
            assert result.elapsed >= 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one spec"):
            run_fused_group([])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ConfigurationError, match="mixes job kinds"):
            run_fused_group([_echo("a", 1), JobSpec.make("test-trio", value=1)])

    def test_unfusable_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="no fusion rule"):
            run_fused_group([JobSpec.make("test-echo", value=1, workdir=None)])

    def test_result_count_mismatch_rejected(self):
        @register_job("test-short")
        def _short_job(*, registry=None, value):
            return {"value": float(value)}

        @register_fusion("test-short", group_key=lambda p: "all")
        def _short_batch(specs, *, registry=None):
            return [{"value": 0.0}]

        with pytest.raises(ConfigurationError, match="returned 1 results for 2"):
            run_fused_group([JobSpec.make("test-short", value=v) for v in (1, 2)])

    def test_global_rng_state_restored(self):
        import numpy as np

        np.random.seed(777)
        expected = np.random.random(3)
        np.random.seed(777)
        run_fused_group([_echo("a", v) for v in (1, 2)])
        observed = np.random.random(3)
        np.testing.assert_array_equal(observed, expected)


# -- fused campaigns through the engine ----------------------------------------------


class _ListSink:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def _lifecycle_multiset(events):
    """Per-job lifecycle multiset, ignoring ordering, worker identity and timing."""
    out = []
    for event in events:
        if type(event) is JobStarted:
            out.append(("job-started", event.key, event.kind))
        elif type(event) is JobFinished:
            out.append(
                ("job-done", event.key, event.kind, json.dumps(event.metrics, sort_keys=True))
            )
        elif type(event) is JobCached:
            out.append(("job-cached", event.key, event.kind))
    return Counter(out)


def _run_with_telemetry(campaign, **kwargs):
    bus = global_bus()
    sink = bus.attach(_ListSink())
    try:
        result = run_campaign(campaign, **kwargs)
    finally:
        bus.detach(sink)
    return result, sink.events


class TestFusedCampaign:
    def _campaign(self, values):
        jobs = tuple(_echo("g", v) for v in values)
        return Campaign(name="fused-echo", scale="smoke", seed=0, jobs=jobs)

    def test_fused_run_matches_serial(self):
        campaign = self._campaign([1, 2, 3, 4])
        serial, serial_events = _run_with_telemetry(campaign, fuse=False)
        fused, fused_events = _run_with_telemetry(campaign, fuse=True)
        assert fused.canonical_manifest() == serial.canonical_manifest()
        assert fused.stats.executed == serial.stats.executed == 4
        assert _lifecycle_multiset(fused_events) == _lifecycle_multiset(serial_events)

    def test_fused_cells_share_the_artifact_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        campaign = self._campaign([1, 2, 3])
        fused = run_campaign(campaign, store=store, fuse=True)
        assert fused.stats.executed == 3
        # A later serial run reloads every fused cell from the store untouched.
        serial = run_campaign(campaign, store=store, fuse=False)
        assert serial.stats.cache_hits == 3
        assert serial.stats.executed == 0
        assert serial.canonical_manifest() == fused.canonical_manifest()

    def test_cached_cells_are_not_refused(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        campaign = self._campaign([1, 2])
        run_campaign(campaign, store=store, fuse=True)
        again = run_campaign(campaign, store=store, fuse=True)
        assert again.stats.cache_hits == 2
        assert again.stats.executed == 0


# -- serial vs fused equality on a real grid -----------------------------------------


class TestFusedEqualityOnRealGrid:
    def test_table4_fused_matches_serial(self, session_registry):
        campaign = table4.build_campaign("smoke", seed=0, datasets=("mnist_like",))
        serial, serial_events = _run_with_telemetry(
            campaign, registry=session_registry, fuse=False
        )
        fused, fused_events = _run_with_telemetry(
            campaign, registry=session_registry, fuse=True
        )
        # Bit-identical metrics -> identical canonical manifests and tables.
        assert fused.canonical_manifest() == serial.canonical_manifest()
        serial_table = table4.assemble(campaign, serial).render("csv", digits=9)
        fused_table = table4.assemble(campaign, fused).render("csv", digits=9)
        assert fused_table == serial_table
        # Identical per-job telemetry, including per-cell metrics payloads.
        assert _lifecycle_multiset(fused_events) == _lifecycle_multiset(serial_events)
        assert fused.stats.executed == serial.stats.executed
