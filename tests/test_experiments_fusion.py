"""Tests for the campaign fusion pass (repro.experiments.fusion).

Grouping is checked on real ``sweep-cell`` specs (planning runs no solve);
the execution tests run small smoke-scale sweeps fused and serially and
demand identical metrics, canonical manifests, rendered tables, per-job
telemetry multisets and artifact-store entries.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import table4
from repro.experiments.campaign import (
    ArtifactStore,
    Campaign,
    JobSpec,
    execute_job,
    run_campaign,
)
from repro.experiments.common import sweep_cell_spec, sweep_group_key
from repro.experiments.fusion import plan_fusion, run_fused_group
from repro.experiments.telemetry import JobCached, JobFinished, JobStarted, global_bus
from repro.utils.errors import ConfigurationError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _cell(s=1, r=10, plan_seed=0, **overrides):
    params = dict(dataset="mnist_like", scale="smoke", seed=0, s=s, r=r, plan_seed=plan_seed)
    return sweep_cell_spec(**{**params, **overrides})


def _hardware_cell():
    return JobSpec.make(
        "hardware-cost-cell",
        dataset="mnist_like",
        scale="smoke",
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


# -- planning ------------------------------------------------------------------------


class TestPlanFusion:
    def test_group_key_separates_incompatible_cells(self):
        """S and the plan seed ride as lanes; everything else must match."""
        base = _cell(s=1, r=50, scale="ci").param_dict()
        assert sweep_group_key(base) == sweep_group_key({**base, "s": 4, "plan_seed": 7})
        for change in (
            {"r": 200},
            {"dataset": "cifar_like"},
            {"norm": "l2"},
            {"seed": 1},
            {"scale": "smoke"},
            {"target_strategy": "next"},
        ):
            assert sweep_group_key(base) != sweep_group_key({**base, **change})

    def test_incompatible_cells_land_in_separate_groups(self):
        specs = [_cell(s=1), _cell(s=1, norm="l2"), _cell(s=2), _cell(s=2, norm="l2")]
        groups, remainder = plan_fusion(specs)
        assert groups == [[specs[0], specs[2]], [specs[1], specs[3]]]
        assert remainder == []

    def test_groups_by_key_preserving_order(self):
        specs = [_cell(1, 10), _cell(2, 10), _cell(1, 30), _cell(4, 10), _cell(2, 30)]
        groups, remainder = plan_fusion(specs)
        assert groups == [[specs[0], specs[1], specs[3]], [specs[2], specs[4]]]
        assert remainder == []

    def test_singletons_stay_scalar_in_submission_order(self):
        specs = [_cell(1, 10), _cell(1, 30), _cell(2, 30), _cell(1, 50)]
        groups, remainder = plan_fusion(specs)
        assert groups == [[specs[1], specs[2]]]
        assert remainder == [specs[0], specs[3]]

    def test_other_kinds_stay_scalar(self):
        specs = [_hardware_cell(), _hardware_cell()]
        assert plan_fusion(specs) == ([], specs)

    def test_lone_cells_interleave_with_other_kinds_as_submitted(self):
        a, x, b = _cell(1, 10), _hardware_cell(), _cell(1, 30)
        assert plan_fusion([a, x, b]) == ([], [a, x, b])
        c = _cell(2, 30)
        assert plan_fusion([a, x, b, c]) == ([[b, c]], [a, x])


class TestPinnedGroups:
    """The groups ``plan_fusion`` gives the shipped sweep grids."""

    @pytest.mark.parametrize(
        "scale, r_values, s_values", [("smoke", (10, 30), (1, 2)), ("ci", (50, 200), (1, 4))]
    )
    def test_table4_grids(self, scale, r_values, s_values):
        groups, remainder = plan_fusion(table4.build_campaign(scale).unique_jobs())
        assert remainder == []
        shapes = [
            [(p["dataset"], p["r"], p["s"]) for p in (spec.param_dict() for spec in group)]
            for group in groups
        ]
        assert shapes == [
            [(dataset, r, s) for s in s_values]
            for dataset in ("mnist_like", "cifar_like")
            for r in r_values
        ]

    def test_perfbench_sweep_grid(self):
        sys.path.insert(0, str(PERFBENCH))
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(PERFBENCH))
        groups, remainder = plan_fusion(workloads.sweep_jobs(1))
        assert remainder == []
        assert [len(group) for group in groups] == [15, 15, 15, 15]
        assert [{spec.param_dict()["r"] for spec in group} for group in groups] == [
            {50}, {100}, {200}, {300}
        ]


# -- execution -----------------------------------------------------------------------


class TestRunFusedGroup:
    def test_results_match_scalar_execution(self, session_registry):
        group = [_cell(1, 10), _cell(2, 10, plan_seed=5)]
        fused = run_fused_group(group, registry=session_registry)
        for spec, result in zip(group, fused):
            scalar = execute_job(spec, registry=session_registry)
            assert result.key == spec.key == scalar.key
            assert result.kind == scalar.kind
            assert json.dumps(result.metrics, sort_keys=True) == json.dumps(
                scalar.metrics, sort_keys=True
            )
            assert not result.cached
            assert result.elapsed >= 0.0

    @pytest.mark.parametrize(
        "group",
        [[], [_hardware_cell(), _hardware_cell()], [_cell(1, 10), _hardware_cell()]],
        ids=["empty", "other-kind", "mixed"],
    )
    def test_non_sweep_groups_rejected(self, group):
        with pytest.raises(ConfigurationError, match="sweep-cell specs only"):
            run_fused_group(group)

    def test_global_rng_state_restored(self, session_registry):
        np.random.seed(777)
        expected = np.random.random(3)
        np.random.seed(777)
        run_fused_group([_cell(1, 10), _cell(2, 10)], registry=session_registry)
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


def _campaign(*jobs):
    return Campaign(name="fused-sweep", scale="smoke", seed=0, jobs=tuple(jobs))


class TestFusedCampaign:
    def test_fused_cells_share_the_artifact_store(self, session_registry, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        campaign = _campaign(_cell(1, 10), _cell(2, 10), _cell(2, 10, plan_seed=5))
        fused = run_campaign(campaign, registry=session_registry, store=store, fuse=True)
        assert fused.stats.executed == 3
        # A later serial run reloads every fused cell from the store untouched.
        serial = run_campaign(campaign, registry=session_registry, store=store, fuse=False)
        assert serial.stats.cache_hits == 3
        assert serial.stats.executed == 0
        assert serial.canonical_manifest() == fused.canonical_manifest()
        # Nor does a fused rerun solve a cached cell again.
        again = run_campaign(campaign, registry=session_registry, store=store, fuse=True)
        assert again.stats.cache_hits == 3
        assert again.stats.executed == 0

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

    def test_mixed_campaign_fused_beside_pool_workers_matches_serial(self, session_registry):
        """A fused group runs in the parent while the pool takes the remainder."""
        campaign = _campaign(_cell(1, 10), _hardware_cell(), _cell(2, 10), _cell(1, 30))
        serial, serial_events = _run_with_telemetry(campaign, registry=session_registry)
        mixed, mixed_events = _run_with_telemetry(
            campaign, registry=session_registry, fuse=True, jobs=2
        )
        assert mixed.stats.executor == "process-pool"
        assert mixed.canonical_manifest() == serial.canonical_manifest()
        assert _lifecycle_multiset(mixed_events) == _lifecycle_multiset(serial_events)
