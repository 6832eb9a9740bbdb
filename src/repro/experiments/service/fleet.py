"""Fleet executor: dispatcher + detachable worker subprocesses, one backend.

``FleetExecutor`` gives the campaign engine a third backend with the same
``run(specs, *, registry)`` contract as the in-process executors, but built
on the campaign service: it starts an asyncio
:class:`~repro.experiments.service.dispatcher.Dispatcher` on an ephemeral
localhost port, submits the pending jobs, spawns ``config.jobs`` worker
subprocesses that attach over the socket, and yields results back to the
caller as they complete.  Because job execution derives every seed from the
job spec, a fleet run reproduces the serial tables byte for byte — including
when a worker is killed mid-run and its leased jobs are requeued.

Set ``ExecutorConfig(spawn_workers=False)`` (or ``--workers 0`` on the CLI)
for *detached* operation: the dispatcher waits for externally started
workers (``python -m repro.experiments.service``) instead of
spawning its own, and the chosen port is surfaced through the
``dispatcher-ready`` event and a log line.
"""

from __future__ import annotations

import asyncio
import os
import queue
import subprocess
import sys
import threading
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import repro
from repro.experiments.campaign import (
    Executor,
    JobResult,
    JobSpec,
    _worker_registry_config,
)
from repro.zoo.registry import ModelRegistry
from repro.experiments.service.dispatcher import Dispatcher, FleetJobError
from repro.experiments.telemetry.events import DispatcherUp
from repro.utils.logging import get_logger

__all__ = ["FleetExecutor", "spawn_worker_process"]

_LOGGER = get_logger("experiments.service.fleet")

# How long the result consumer sleeps between liveness checks of the spawned
# worker processes; purely a responsiveness knob, not a correctness one.
_POLL_SECONDS = 0.25


def spawn_worker_process(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    cache_dir: str | None = None,
    cache_disabled: bool = False,
    artifact_dir: str | None = None,
    heartbeat_seconds: float | None = None,
) -> subprocess.Popen[bytes]:
    """Start one worker subprocess attached to ``host:port``.

    The child runs ``python -m repro.experiments.service`` with the
    parent's environment plus a ``PYTHONPATH`` guaranteeing the parent's
    ``repro`` package is importable (the parent may be running from a source
    tree that is not installed).
    """
    command = [
        sys.executable,
        "-m",
        "repro.experiments.service",
        "--host",
        host,
        "--port",
        str(port),
    ]
    if worker_id is not None:
        command += ["--worker-id", worker_id]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    if cache_disabled:
        command += ["--cache-disabled"]
    if artifact_dir is not None:
        command += ["--artifact-dir", str(artifact_dir)]
    if heartbeat_seconds is not None:
        command += ["--heartbeat", str(heartbeat_seconds)]
    env = os.environ.copy()
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root if not existing else os.pathsep.join(
        [package_root, existing]
    )
    return subprocess.Popen(command, env=env)


class FleetExecutor(Executor):
    """Run jobs on a fleet of socket-attached worker processes."""

    name = "fleet"
    parallel = True

    def run(
        self, specs: list[JobSpec], *, registry: ModelRegistry | None = None
    ) -> Iterator[JobResult]:
        """Yield one result per pending job as the fleet completes them."""
        if not specs:
            return
        out: queue.Queue[tuple[str, Any]] = queue.Queue()
        cache_dir, cache_disabled = _worker_registry_config(registry)
        thread = threading.Thread(
            target=self._thread_main,
            args=(specs, cache_dir, cache_disabled, out),
            name="fleet-dispatcher",
            daemon=True,
        )
        thread.start()
        try:
            while True:
                kind, payload = out.get()
                if kind == "result":
                    yield payload
                elif kind == "error":
                    raise payload
                else:  # "end"
                    break
        finally:
            thread.join()

    def _thread_main(
        self,
        specs: list[JobSpec],
        cache_dir: str | None,
        cache_disabled: bool,
        out: "queue.Queue[tuple[str, Any]]",
    ) -> None:
        try:
            asyncio.run(self._serve(specs, cache_dir, cache_disabled, out))
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            out.put(("error", exc))
        finally:
            out.put(("end", None))

    async def _serve(
        self,
        specs: list[JobSpec],
        cache_dir: str | None,
        cache_disabled: bool,
        out: "queue.Queue[tuple[str, Any]]",
    ) -> None:
        config = self.config
        dispatcher = Dispatcher(
            host=config.host,
            port=config.port,
            lease_seconds=config.lease_seconds,
            heartbeat_seconds=config.heartbeat_seconds,
            max_attempts=config.max_attempts,
        )
        await dispatcher.start()
        dispatcher.bus.publish(
            DispatcherUp(host=dispatcher.host, port=dispatcher.port, jobs=len(specs))
        )
        if not config.spawn_workers:
            _LOGGER.warning(
                "fleet dispatcher waiting for external workers on %s:%d "
                "(python -m repro.experiments.service --port %d)",
                dispatcher.host,
                dispatcher.port,
                dispatcher.port,
            )
        for spec in specs:
            dispatcher.submit(spec)
        workers: list[subprocess.Popen[bytes]] = []
        if config.spawn_workers:
            workers = [
                spawn_worker_process(
                    dispatcher.host,
                    dispatcher.port,
                    worker_id=f"fleet-{index}-{os.getpid()}",
                    cache_dir=cache_dir,
                    cache_disabled=cache_disabled,
                    artifact_dir=config.artifact_dir,
                    heartbeat_seconds=config.heartbeat_seconds,
                )
                for index in range(config.jobs)
            ]
        try:
            received = 0
            while received < len(specs):
                try:
                    kind, payload = await asyncio.wait_for(
                        dispatcher.results.get(), timeout=_POLL_SECONDS
                    )
                except asyncio.TimeoutError:
                    self._check_fleet_alive(workers, dispatcher)
                    continue
                if kind == "error":
                    raise payload
                out.put(("result", payload))
                received += 1
        finally:
            # Closing the dispatcher closes every worker connection; workers
            # exit on EOF, so give them a moment before escalating to
            # SIGTERM/SIGKILL.
            await dispatcher.close()
            deadline = asyncio.get_running_loop().time() + 3.0
            while (
                any(proc.poll() is None for proc in workers)
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.05)
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
            for proc in workers:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    @staticmethod
    def _check_fleet_alive(
        workers: "list[subprocess.Popen[bytes]]", dispatcher: Dispatcher
    ) -> None:
        """Fail fast when every spawned worker died with work still queued.

        Detached fleets (no spawned workers) wait indefinitely: operators
        attach and detach workers at will.
        """
        if not workers:
            return
        if dispatcher.worker_count > 0:
            return
        if all(proc.poll() is not None for proc in workers) and dispatcher.unfinished:
            codes = [proc.returncode for proc in workers]
            raise RuntimeError(
                f"all {len(workers)} fleet workers exited (exit codes {codes}) "
                f"with {dispatcher.unfinished} job(s) unfinished; see worker "
                "stderr for the underlying failure"
            )
