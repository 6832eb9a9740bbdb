"""End-to-end tests of the worker fleet: real subprocesses over real sockets.

The bar (and the acceptance criterion of the campaign service) is
byte-identity: a dispatcher plus N socket-attached worker processes must
reproduce the serial tables and canonical manifests exactly — including when
a worker is killed mid-run and its leased jobs are requeued.
"""

import asyncio
import json
import math
import signal

import pytest

from repro.experiments import hardware_cost
from repro.experiments.campaign import (
    Campaign,
    ExecutorConfig,
    JobSpec,
    make_executor,
    run_campaign,
)
from repro.experiments.service import SELFTEST_KIND
from repro.experiments.service.dispatcher import Dispatcher
from repro.experiments.service.fleet import FleetExecutor, spawn_worker_process
from repro.experiments.telemetry import CallbackSink, TelemetryBus


def selftest_campaign(values, *, sleep=0.0, fail=False, name="fleet-test"):
    jobs = tuple(
        JobSpec.make(SELFTEST_KIND, value=v, sleep=sleep, fail=fail) for v in values
    )
    return Campaign(name=name, scale="smoke", seed=0, jobs=jobs)


def canonical_bytes(result) -> str:
    return json.dumps(result.canonical_manifest(), sort_keys=True, allow_nan=False)


class TestFleetExecutor:
    def test_make_executor_builds_fleet(self):
        executor = make_executor(ExecutorConfig(backend="fleet", jobs=3))
        assert isinstance(executor, FleetExecutor)
        assert executor.jobs == 3

    def test_fleet_matches_serial_byte_for_byte(self):
        campaign = selftest_campaign([1, 2, 3, 4, 5, 6, 7, 8])
        serial = run_campaign(campaign, executor="serial")
        events = []
        fleet = run_campaign(
            campaign,
            executor=ExecutorConfig(backend="fleet", jobs=2, heartbeat_seconds=0.2),
            on_event=events.append,
        )
        assert fleet.stats.executor == "fleet"
        assert fleet.stats.jobs == 2
        for spec in campaign.jobs:
            assert fleet.metrics_for(spec) == serial.metrics_for(spec)
        assert canonical_bytes(fleet) == canonical_bytes(serial)
        kinds = {e.EVENT for e in events}
        assert {"dispatcher-ready", "worker-attached", "job-started", "job-done"} <= kinds

    def test_empty_campaign_never_starts_a_dispatcher(self):
        campaign = Campaign(name="empty", scale="smoke", seed=0, jobs=())
        result = run_campaign(campaign, executor=ExecutorConfig(backend="fleet", jobs=2))
        assert result.stats.total == 0

    def test_job_failure_surfaces_after_retries(self):
        campaign = selftest_campaign([1], fail=True)
        from repro.experiments.service.dispatcher import FleetJobError

        with pytest.raises(FleetJobError, match="1 attempt"):
            run_campaign(
                campaign,
                executor=ExecutorConfig(
                    backend="fleet", jobs=1, heartbeat_seconds=0.2, max_attempts=1
                ),
            )


def _busy_worker(events):
    """Worker of the last ``job-started`` event whose job has not finished."""
    finished = {e.key for e in events if e.EVENT == "job-done"}
    in_flight = [e for e in events if e.EVENT == "job-started" and e.key not in finished]
    return in_flight[-1].worker if in_flight else None


class TestWorkerLossMidRun:
    def test_killed_worker_jobs_requeue_and_finish(self):
        """Kill one of two workers mid-run; the survivor finishes everything."""

        async def scenario():
            events = []
            bus = TelemetryBus()
            bus.attach(CallbackSink(events.append))
            dispatcher = Dispatcher(lease_seconds=5.0, heartbeat_seconds=0.1, bus=bus)
            await dispatcher.start()
            values = [1, 2, 3, 4, 5, 6]
            specs = [
                JobSpec.make(SELFTEST_KIND, value=v, sleep=0.4) for v in values
            ]
            for spec in specs:
                dispatcher.submit(spec)
            workers = {
                f"victim-{index}": spawn_worker_process(
                    dispatcher.host,
                    dispatcher.port,
                    worker_id=f"victim-{index}",
                    cache_disabled=True,
                    heartbeat_seconds=0.1,
                )
                for index in range(2)
            }
            results = {}
            killed = False
            try:
                while len(results) < len(specs):
                    kind, payload = await asyncio.wait_for(
                        dispatcher.results.get(), timeout=60.0
                    )
                    assert kind == "result", payload
                    results[payload.key] = payload
                    if not killed:
                        # Kill the worker holding the most recently leased
                        # job, so the kill always strands a job in flight.
                        busy = _busy_worker(events)
                        if busy is not None:
                            workers[busy].send_signal(signal.SIGKILL)
                            killed = True
            finally:
                await dispatcher.close()
                for proc in workers.values():
                    proc.terminate()
                    proc.wait(timeout=10.0)
            return specs, results, events

        specs, results, events = asyncio.run(scenario())
        assert set(results) == {spec.key for spec in specs}
        for spec in specs:
            assert results[spec.key].metrics["square"] == spec.param_dict()["value"] ** 2
        # The kill was observed as a lost worker whose job was requeued, and
        # the requeued copies completed with correct (deterministic) metrics.
        requeued = [e for e in events if e.EVENT == "job-requeued"]
        assert any(e.reason == "worker-lost" for e in requeued)

    def test_all_workers_dead_fails_fast(self):
        """A fleet whose every worker exits must not hang the campaign."""
        campaign = selftest_campaign([1, 2, 3])
        executor = make_executor(
            ExecutorConfig(backend="fleet", jobs=1, heartbeat_seconds=0.1)
        )

        def doomed_spawn(*args, **kwargs):
            proc = spawn_worker_process(*args, **kwargs)
            proc.terminate()  # dies before completing anything
            return proc

        import repro.experiments.service.fleet as fleet_module

        original = fleet_module.spawn_worker_process
        fleet_module.spawn_worker_process = doomed_spawn
        try:
            with pytest.raises(RuntimeError, match="workers exited"):
                list(executor.run(campaign.unique_jobs()))
        finally:
            fleet_module.spawn_worker_process = original


class TestFleetOnRealGrid:
    def test_hardware_cost_fleet_matches_serial(self, session_registry, monkeypatch):
        # Workers build their registry from the session registry's cache dir;
        # REPRO_CACHE_DIR keeps any default-registry fallback inside tmp.
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(session_registry.disk_cache.directory)
        )
        kwargs = dict(
            registry=session_registry,
            seed=0,
            profiles=("ddr3-noecc",),
            patterns=("double-sided",),
            trials=2,
        )
        serial = hardware_cost.run("smoke", **kwargs)
        fleet = hardware_cost.run("smoke", jobs=2, executor="fleet", **kwargs)
        assert fleet.render("csv", digits=9) == serial.render("csv", digits=9)


class TestSelftestJob:
    def test_selftest_job_metrics(self):
        from repro.experiments.campaign import execute_job

        result = execute_job(JobSpec.make(SELFTEST_KIND, value=3))
        assert result.metrics["value"] == 3.0
        assert result.metrics["square"] == 9.0
        assert not math.isnan(result.elapsed)
