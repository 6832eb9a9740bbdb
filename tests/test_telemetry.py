"""Telemetry bus, sinks, aggregator, and the serial-vs-fleet event contract.

The acceptance bar of the telemetry subsystem:

* every event type round-trips through the canonical frame layer and is
  covered by the RPL004 schema snapshot (silent shape changes fail, version
  bumps pass);
* a serial run and a fleet run of the same campaign produce identical
  per-job event multisets (modulo worker identity and timing);
* replaying a JSON-lines run log through a fresh aggregator reproduces the
  live run's metrics exactly.
"""

import copy
import io
import json
import math
import socket
from collections import Counter

import pytest

from repro.analysis.lint.protocol_schema import (
    build_protocol_schema,
    check_protocol_conformance,
    compare_schema,
)
from repro.experiments.campaign import Campaign, ExecutorConfig, JobSpec, run_campaign
from repro.experiments.service import SELFTEST_KIND
from repro.experiments.telemetry import (
    ArtifactSaved,
    CallbackSink,
    ConsoleSink,
    CountingSink,
    JobCached,
    JobFinished,
    JobStarted,
    JsonlSink,
    RunAggregator,
    RunFinished,
    RunStarted,
    SocketSink,
    TelemetryBus,
    TelemetryEvent,
    WorkerJoined,
    global_bus,
    percentile,
    read_events,
    telemetry_event_types,
)
from repro.experiments.wire import decode_frame, encode_frame, registered_messages

# Sample values per wire field annotation, for building one instance of every
# registered event class generically.
_SAMPLES = {"str": "x", "int": 3, "float": 1.5, "dict": {"a": 1.0, "gap": None}}


def sample_event(cls):
    import dataclasses

    kwargs = {
        spec.name: _SAMPLES[str(spec.type)] for spec in dataclasses.fields(cls)
    }
    return cls(**kwargs)


def telemetry_classes():
    return [
        cls
        for name, cls in sorted(registered_messages().items())
        if name.startswith("telemetry.")
    ]


class ListSink:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def selftest_campaign(values, name="telemetry-test"):
    jobs = tuple(JobSpec.make(SELFTEST_KIND, value=v) for v in values)
    return Campaign(name=name, scale="smoke", seed=0, jobs=jobs)


def lifecycle_multiset(events):
    """Per-job lifecycle multiset, ignoring worker identity and timing."""
    out = []
    for e in events:
        if type(e) is JobStarted:
            out.append(("job-started", e.key, e.kind))
        elif type(e) is JobFinished:
            out.append(
                ("job-done", e.key, e.kind, json.dumps(e.metrics, sort_keys=True))
            )
        elif type(e) is JobCached:
            out.append(("job-cached", e.key, e.kind))
    return Counter(out)


class TestEventSchema:
    def test_every_event_round_trips_through_the_frame_layer(self):
        classes = telemetry_classes()
        assert len(classes) == len(telemetry_event_types()) >= 12
        for cls in classes:
            event = sample_event(cls)
            decoded = decode_frame(encode_frame(event))
            assert decoded == event
            assert type(decoded) is cls

    def test_telemetry_events_pass_conformance(self):
        assert check_protocol_conformance() == []

    def test_snapshot_covers_both_message_families(self):
        schema = build_protocol_schema()["messages"]
        assert any(name.startswith("telemetry.") for name in schema)
        assert any(name.startswith("campaign.") for name in schema)

    def test_silent_shape_change_fails_version_bump_passes(self):
        baseline = build_protocol_schema()
        name = "telemetry.job.finished"

        mutated = copy.deepcopy(baseline)
        mutated["messages"][name]["fields"]["sneaky"] = "str"
        findings, _ = compare_schema(baseline, mutated)
        assert any(name in f.message and "Version bump" in f.message for f in findings)

        bumped = copy.deepcopy(mutated)
        bumped["messages"][name]["version"] = "101"
        findings, notices = compare_schema(baseline, bumped)
        assert findings == []
        assert any(name in note for note in notices)

    def test_short_name_and_attribute_access(self):
        event = JobFinished(key="k", kind="t", metrics={}, duration_s=0.5)
        assert event.EVENT == "job-done"
        assert (event.key, event.worker) == ("k", "")
        with pytest.raises(TypeError):
            event["key"]  # events are not mappings


class TestBusAndSinks:
    def test_bus_stamps_monotonic_time_once(self):
        ticks = iter([10.0, 20.0])
        bus = TelemetryBus(clock=lambda: next(ticks))
        first = bus.publish(JobCached(key="a", kind="t"))
        assert first.t == 10.0
        # An already-stamped event is passed through untouched.
        again = bus.publish(first)
        assert again.t == 10.0

    def test_counting_and_callback_sinks(self):
        bus = TelemetryBus()
        counting = bus.attach(CountingSink())
        seen = []
        bus.attach(CallbackSink(seen.append))
        bus.publish(JobStarted(key="a", kind="t"))
        bus.publish(JobFinished(key="a", kind="t", metrics={}, duration_s=0.1))
        bus.publish(JobStarted(key="b", kind="t"))
        assert counting.snapshot() == {"job-done": 1, "job-started": 2}
        assert counting.total() == 3
        assert [e.EVENT for e in seen] == ["job-started", "job-done", "job-started"]

    def test_console_sink_prints_saved_paths_and_run_events(self):
        stream = io.StringIO()
        sink = ConsoleSink(stream)
        sink.emit(ArtifactSaved(path="/tmp/x.csv", kind="table-csv", experiment="t3"))
        sink.emit(JobStarted(key="a", kind="t"))  # quiet unless verbose
        finished = RunFinished(
            campaign="c",
            total_jobs=1,
            executed=1,
            cache_hits=0,
            executor="serial",
            jobs=1,
            elapsed_s=0.5,
        )
        sink.emit(finished)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[saved /tmp/x.csv]"
        assert len(lines) == 2 and lines[1].startswith("[run-finished] cache_hits=0")

    def test_broken_sink_does_not_block_other_sinks(self):
        bus = TelemetryBus()

        class Broken:
            def emit(self, event):
                raise RuntimeError("sink exploded")

        bus.attach(Broken())
        counting = bus.attach(CountingSink())
        with pytest.raises(RuntimeError, match="sink exploded"):
            bus.publish(JobCached(key="a", kind="t"))
        # The healthy sink still received the event.
        assert counting.total() == 1

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = TelemetryBus()
        events = [
            RunStarted(
                campaign="c", scale="smoke", seed=0, total_jobs=1,
                executor="serial", jobs=1,
            ),
            JobStarted(key="a", kind="t"),
            JobFinished(key="a", kind="t", metrics={"m": 1.0, "gap": None},
                        duration_s=0.25),
        ]
        with bus.attach(JsonlSink(path)) as sink:
            for event in events:
                bus.publish(event)
        assert sink.events_written == 3
        replayed = list(read_events(path))
        assert [type(e) for e in replayed] == [type(e) for e in events]
        # Stamped timestamps survive the file round-trip exactly.
        assert all(e.t > 0.0 for e in replayed)
        assert replayed[2].metrics == {"m": 1.0, "gap": None}

    def test_socket_sink_replays_history_to_late_subscribers(self):
        with SocketSink() as sink:
            sink.emit(JobStarted(key="a", kind="t", t=1.0))
            sink.emit(JobFinished(key="a", kind="t", metrics={}, duration_s=0.1, t=2.0))
            with socket.create_connection(sink.address, timeout=5.0) as conn:
                conn.settimeout(5.0)
                stream = conn.makefile("rb")
                first = decode_frame(stream.readline())
                second = decode_frame(stream.readline())
                assert isinstance(first, JobStarted)
                assert isinstance(second, JobFinished)
                # A frame emitted after attach arrives live.
                sink.emit(JobCached(key="b", kind="t", t=3.0))
                third = decode_frame(stream.readline())
                assert isinstance(third, JobCached)

    def test_read_events_rejects_non_telemetry_frames(self, tmp_path):
        from repro.experiments.service.protocol import WorkerHello

        path = tmp_path / "mixed.jsonl"
        path.write_bytes(encode_frame(WorkerHello(worker_id="w", pid=1)))
        with pytest.raises(TypeError, match="not a telemetry event"):
            list(read_events(path))


class TestAggregator:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == pytest.approx(2.5)
        assert math.isnan(percentile([], 50.0))

    def test_folds_a_run_into_metrics(self):
        agg = RunAggregator()
        agg.replay(
            [
                RunStarted(campaign="c", scale="smoke", seed=0, total_jobs=3,
                           executor="serial", jobs=1, t=10.0),
                JobCached(key="a", kind="t", t=10.1),
                JobStarted(key="b", kind="t", t=10.2),
                JobFinished(key="b", kind="t", metrics={"m": 1.0}, duration_s=0.5,
                            t=10.7),
                JobStarted(key="c", kind="t", t=10.8),
                WorkerJoined(worker="w1", pid=42, t=10.9),
                RunFinished(campaign="c", total_jobs=3, executed=2, cache_hits=1,
                            executor="serial", jobs=1, elapsed_s=2.0, t=12.0),
            ]
        )
        assert agg.counts() == {
            "pending": 0, "running": 1, "done": 1, "cached": 1, "failed": 0,
        }
        assert agg.cache_hit_rate() == pytest.approx(0.5)
        assert agg.elapsed_s() == pytest.approx(2.0)
        assert agg.jobs_per_second() == pytest.approx(2 / 2.0)
        assert agg.latency_percentiles()["t"]["p50"] == pytest.approx(0.5)
        assert agg.workers == {"w1": "attached"}
        snapshot = agg.snapshot()
        assert snapshot["counts"]["done"] == 1
        assert snapshot["event_counts"]["job-started"] == 2

    def test_mc_ci_widths_surface_stochastic_cells(self):
        agg = RunAggregator()
        agg.emit(
            JobFinished(
                key="cell", kind="hardware-cost-cell",
                metrics={"mc_trials": 8.0, "mc_success_ci": 0.12,
                         "mc_keep_ci": 0.05, "l0": 4.0},
                duration_s=1.0, t=1.0,
            )
        )
        assert agg.mc_ci_widths() == {
            "cell": {"mc_success_ci": 0.12, "mc_keep_ci": 0.05}
        }


class TestCampaignTelemetry:
    def test_serial_run_emits_full_lifecycle(self):
        campaign = selftest_campaign([1, 2, 3])
        sink = ListSink()
        bus = global_bus()
        bus.attach(sink)
        try:
            run_campaign(campaign, executor="serial")
        finally:
            bus.detach(sink)
        names = [e.EVENT for e in sink.events]
        assert names[0] == "run-started"
        assert names[-1] == "run-finished"
        assert names.count("job-started") == 3
        assert names.count("job-done") == 3
        done = [e for e in sink.events if type(e) is JobFinished]
        assert all(e.duration_s > 0.0 for e in done)
        assert all(e.metrics["square"] is not None for e in done)

    def test_process_pool_event_multiset_matches_serial(self):
        campaign = selftest_campaign([1, 2, 3, 4])
        serial_sink = ListSink()
        run_campaign(campaign, executor="serial", on_event=serial_sink.emit)
        sink = ListSink()
        run_campaign(
            campaign,
            executor=ExecutorConfig(backend="process-pool", jobs=2),
            on_event=sink.emit,
        )
        names = [e.EVENT for e in sink.events]
        assert names.count("job-started") == 4
        assert names.count("job-done") == 4
        done = [e for e in sink.events if type(e) is JobFinished]
        assert all(e.duration_s > 0.0 for e in done)
        assert lifecycle_multiset(sink.events) == lifecycle_multiset(serial_sink.events)

    def test_cache_hits_reach_the_bus(self, tmp_path):
        from repro.experiments.campaign import ArtifactStore

        campaign = selftest_campaign([1, 2])
        store = ArtifactStore(tmp_path / "store")
        run_campaign(campaign, executor="serial", store=store)
        sink = ListSink()
        bus = global_bus()
        bus.attach(sink)
        try:
            run_campaign(campaign, executor="serial", store=store)
        finally:
            bus.detach(sink)
        names = [e.EVENT for e in sink.events]
        assert names.count("job-cached") == 2
        assert names.count("job-started") == 0

    def test_serial_and_fleet_event_multisets_match(self):
        """Acceptance: identical per-job event multisets, serial vs fleet."""
        campaign = selftest_campaign([1, 2, 3, 4, 5, 6])
        bus = global_bus()

        serial_sink = ListSink()
        bus.attach(serial_sink)
        try:
            serial = run_campaign(campaign, executor="serial")
        finally:
            bus.detach(serial_sink)

        fleet_sink = ListSink()
        bus.attach(fleet_sink)
        try:
            fleet = run_campaign(
                campaign,
                executor=ExecutorConfig(
                    backend="fleet", jobs=2, heartbeat_seconds=0.2
                ),
            )
        finally:
            bus.detach(fleet_sink)

        assert lifecycle_multiset(serial_sink.events) == lifecycle_multiset(
            fleet_sink.events
        )
        # The fleet stream carries the fleet-only membership events on top.
        fleet_names = {e.EVENT for e in fleet_sink.events}
        assert {"dispatcher-ready", "worker-attached", "job-submitted"} <= fleet_names
        # And the results themselves are byte-identical, as ever.
        for spec in campaign.jobs:
            assert fleet.metrics_for(spec) == serial.metrics_for(spec)

    def test_jsonl_replay_reproduces_live_aggregator_metrics(self, tmp_path):
        """Acceptance: file replay produces identical aggregator metrics."""
        path = tmp_path / "run.jsonl"
        bus = global_bus()
        live = RunAggregator()
        jsonl = JsonlSink(path)
        bus.attach(live)
        bus.attach(jsonl)
        try:
            run_campaign(selftest_campaign([1, 2, 3]), executor="serial")
        finally:
            bus.detach(live)
            bus.detach(jsonl)
            jsonl.close()

        replayed = RunAggregator().replay(read_events(path))
        assert replayed.snapshot() == live.snapshot()


class TestEventCallback:
    def test_on_event_receives_typed_events(self):
        events = []
        run_campaign(
            selftest_campaign([5]), executor="serial", on_event=events.append
        )
        assert all(isinstance(e, TelemetryEvent) for e in events)
        names = [e.EVENT for e in events]
        assert names == ["run-started", "job-started", "job-done", "run-finished"]
        done = next(e for e in events if type(e) is JobFinished)
        assert done.kind == SELFTEST_KIND
        assert done.t > 0.0

    def test_on_event_sink_is_detached_after_the_call(self):
        bus = global_bus()
        before = bus.sink_count
        events = []
        run_campaign(selftest_campaign([5]), executor="serial", on_event=events.append)
        assert bus.sink_count == before
        seen = len(events)
        bus.publish(JobCached(key="after", kind="t"))
        assert len(events) == seen

    def test_on_event_sink_is_detached_when_a_job_raises(self):
        bus = global_bus()
        before = bus.sink_count
        events = []
        campaign = Campaign(
            name="failing",
            scale="smoke",
            seed=0,
            jobs=(JobSpec.make(SELFTEST_KIND, value=1, fail=True),),
        )
        with pytest.raises(RuntimeError):
            run_campaign(campaign, executor="serial", on_event=events.append)
        assert bus.sink_count == before
        assert [e.EVENT for e in events] == ["run-started", "job-started"]

    def test_artifact_saved_fields(self):
        event = ArtifactSaved(path="/tmp/x.csv", kind="table-csv", experiment="t3")
        assert event.EVENT == "artifact-saved"
        assert event.path == "/tmp/x.csv"
