"""Campaign orchestration: declarative grids of independent attack jobs.

Every table and figure of the paper is a grid of *independent* attack
instances (one ADMM solve per cell), yet the seed implementation ran each
grid as a hand-rolled serial loop inside its experiment driver.  This module
turns the grids into first-class data so they can be executed, parallelised,
memoized and resumed uniformly:

* :class:`JobSpec` — one grid cell, described entirely by a registered job
  *kind* plus JSON-serialisable parameters.  The spec's content hash is both
  its identity inside a campaign and its key in the artifact store, so two
  experiments that share a cell (Table 4 and Figure 1 run the same (S, R)
  sweeps) compute it once.
* :func:`register_job` — experiment modules register the function that
  executes one cell of their grid; workers look the function up by kind, so
  a spec is cheap to ship to another process.
* :class:`ArtifactStore` — content-hash-keyed on-disk memoization of job
  results built on :class:`repro.utils.cache.DiskCache`; re-runs and resumed
  campaigns skip completed cells.
* Executors — three backends behind one :class:`ExecutorConfig` +
  :func:`make_executor` factory and one ``run(specs, *, registry)``
  contract: serial in-process execution, one
  ``concurrent.futures.ProcessPoolExecutor`` pool, and the socket-attached
  worker fleet of :mod:`repro.experiments.service`.
* :func:`run_campaign` — dedupe, artifact lookup, victim-model warm-up,
  dispatch, incremental artifact writes and a structured manifest
  (:meth:`CampaignResult.write_manifest`).

Progress is reported on one channel: the engine, every executor and the
fleet dispatcher publish typed events to the process-wide telemetry bus
(:func:`repro.experiments.telemetry.bus.global_bus`).

Determinism: each job (and each fused group of sweep cells, see
:mod:`repro.experiments.fusion`) runs under :func:`run_seeded` with a seed
derived from its spec via :func:`repro.utils.rng.derive_seed`, and every
random decision of a cell (plan seed, model seed) is part of its spec, so
serial, parallel and fused runs produce identical tables cell for cell.

The invariants this rests on are machine-checked by ``repro-lint``
(``python -m repro.analysis``): no unseeded randomness outside
``repro.utils.rng`` (RPL001), no wall-clock reads feeding content-hashed
results or canonical manifests (RPL002 — elapsed timings here use
``time.perf_counter`` and are excluded from :meth:`CampaignResult.
canonical_manifest`), canonical encoders always sorted (RPL003), and
``register_job`` functions never mutating module state (RPL006).
"""

from __future__ import annotations

import json
import math
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import ExitStack

import numpy as np
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.attacks.lowering import shared_repairs
from repro.experiments.telemetry.bus import CallbackSink, global_bus
from repro.experiments.telemetry.events import (
    JobCached,
    JobFinished,
    JobStarted,
    RunFinished,
    RunStarted,
    TelemetryEvent,
)
from repro.experiments.wire import encode_metrics
from repro.utils.cache import DiskCache, default_cache_dir, stable_hash
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed, seed_everything
from repro.zoo.registry import ModelRegistry

__all__ = [
    "JobSpec",
    "JobResult",
    "register_job",
    "job_kinds",
    "execute_job",
    "run_seeded",
    "ArtifactStore",
    "Campaign",
    "CampaignStats",
    "CampaignResult",
    "EventCallback",
    "ExecutorConfig",
    "Executor",
    "SerialExecutor",
    "FuturesExecutor",
    "make_executor",
    "run_campaign",
    "run_experiment",
    "EXECUTOR_BACKENDS",
]

_LOGGER = get_logger("experiments.campaign")

EXECUTOR_BACKENDS = ("serial", "process-pool", "fleet")

# Progress callback of :func:`run_campaign`: attached to the process-wide
# telemetry bus (:func:`repro.experiments.telemetry.bus.global_bus`) for the
# call, it receives every typed event published meanwhile (job
# started/done/cached, worker attach/detach, dispatcher-ready).
EventCallback = Callable[[TelemetryEvent], None]


# -- job specs and results -----------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One independent cell of an experiment grid.

    A spec is pure data: a registered job ``kind`` plus a sorted tuple of
    JSON-serialisable ``(name, value)`` parameters.  Everything a cell needs
    — dataset, scale, S, R, plan seed — lives in the parameters, so the spec
    can be hashed for memoization and pickled to a worker process.
    """

    kind: str
    params: tuple[tuple[str, Any], ...]

    @staticmethod
    def make(kind: str, **params: Any) -> "JobSpec":
        """Build a spec with canonically ordered parameters."""
        return JobSpec(kind=kind, params=tuple(sorted(params.items())))

    def param_dict(self) -> dict[str, Any]:
        """Return the parameters as a plain dictionary."""
        return dict(self.params)

    @property
    def key(self) -> str:
        """Content-hash identity of this cell (artifact-store key)."""
        return stable_hash({"kind": self.kind, "params": self.param_dict()})

    def as_dict(self) -> dict[str, Any]:
        """Manifest form of the spec."""
        return {"kind": self.kind, "key": self.key, "params": self.param_dict()}


@dataclass(frozen=True)
class JobResult:
    """Scalar metrics produced by one executed (or memoized) job."""

    key: str
    kind: str
    metrics: dict[str, float]
    elapsed: float = 0.0
    cached: bool = False


# -- job-kind registry ---------------------------------------------------------------

_JOB_KINDS: dict[str, Callable[..., dict]] = {}


def register_job(kind: str) -> Callable[[Callable[..., dict]], Callable[..., dict]]:
    """Class decorator registering the executor function for a job kind.

    The decorated function receives the spec parameters as keyword arguments
    plus a ``registry`` keyword (the model registry to train/load victim
    models through; ``None`` means the worker default) and must return a flat
    ``{metric name: number}`` dictionary.
    """

    def decorator(fn: Callable[..., dict]) -> Callable[..., dict]:
        existing = _JOB_KINDS.get(kind)
        if existing is not None and existing is not fn:
            raise ConfigurationError(f"job kind {kind!r} is already registered")
        _JOB_KINDS[kind] = fn
        return fn

    return decorator


def job_kinds() -> tuple[str, ...]:
    """Return the names of all registered job kinds."""
    _ensure_registrations()
    return tuple(sorted(_JOB_KINDS))


def _ensure_registrations() -> None:
    # Importing the experiments package imports every driver module, each of
    # which registers its job kinds at import time.  Workers started with a
    # "spawn" context arrive with a fresh interpreter, so the lookup must not
    # rely on the parent having imported anything.
    import repro.experiments  # noqa: F401  (import triggers registration)


def execute_job(spec: JobSpec, *, registry: ModelRegistry | None = None) -> JobResult:
    """Execute one job in the current process and return its metrics.

    The job's own seed is derived from its spec through
    :func:`repro.utils.rng.derive_seed`, so any code path that touches global
    random state behaves identically under every executor.
    """
    _ensure_registrations()
    try:
        fn = _JOB_KINDS[spec.kind]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown job kind {spec.kind!r}; registered kinds: {sorted(_JOB_KINDS)}"
        ) from exc
    if registry is None:
        registry = _WORKER_REGISTRY
    metrics, elapsed = run_seeded(
        derive_seed(spec.kind, spec.params), lambda: fn(registry=registry, **spec.param_dict())
    )
    clean = {name: float(value) for name, value in metrics.items()}
    return JobResult(key=spec.key, kind=spec.kind, metrics=clean, elapsed=elapsed)


def run_seeded(seed: int, work: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``work()`` with the global generators seeded; return its value and wall time.

    Every job (and every fused group) seeds the global generators from its
    own spec, so any stray global-RNG use behaves identically under every
    executor.  The caller's state is restored afterwards, so in-process
    execution stays side-effect free.
    """
    stdlib_state = random.getstate()
    numpy_state = np.random.get_state()
    try:
        seed_everything(seed)
        started = time.perf_counter()
        value = work()
        return value, time.perf_counter() - started
    finally:
        random.setstate(stdlib_state)
        np.random.set_state(numpy_state)


# -- artifact store ------------------------------------------------------------------


class ArtifactStore:
    """Content-hash-keyed on-disk memoization of job results.

    Entries are JSON payloads inside a :class:`~repro.utils.cache.DiskCache`
    directory, keyed by the job spec's content hash: two campaigns (or two
    runs of the same campaign) that contain an identical cell share one
    artifact.  Loading verifies the stored kind against the requesting spec,
    so a (astronomically unlikely) hash collision degrades to a cache miss
    rather than a wrong table cell.

    The directory is sharded two levels deep by hash prefix
    (``ab/cd/abcd....json``), so a store holding millions of memoized cells
    keeps O(1) per-entry lookups instead of degrading with one giant flat
    directory; entries written by pre-sharding versions are still found at
    their flat paths.
    """

    def __init__(self, directory: str | Path | None = None, *, enabled: bool = True):
        base = Path(directory) if directory is not None else default_artifact_dir()
        self.cache = DiskCache(base, enabled=enabled, shard_levels=2)

    @property
    def directory(self) -> Path:
        """Root directory of the store."""
        return self.cache.directory

    @property
    def enabled(self) -> bool:
        """Whether lookups and writes are active."""
        return self.cache.enabled

    def load(self, spec: JobSpec) -> JobResult | None:
        """Return the memoized result for ``spec`` or ``None`` on a miss."""
        payload = self.cache.load_json(spec.key)
        if payload is None or payload.get("kind") != spec.kind:
            return None
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            return None
        return JobResult(
            key=spec.key,
            kind=spec.kind,
            # Metric values are floats by construction, so a stored null can
            # only be the NaN sentinel (see store()).
            metrics={
                name: float("nan") if value is None else float(value)
                for name, value in metrics.items()
            },
            elapsed=float(payload.get("elapsed", 0.0)),
            cached=True,
        )

    def store(self, result: JobResult) -> None:
        """Persist one job result (atomic write, strict JSON).

        NaN metrics (e.g. "undetectable" sentinels) are stored as ``null``
        so the artifacts stay readable by strict JSON tooling.
        """
        metrics = {
            name: None if math.isnan(value) else value
            for name, value in result.metrics.items()
        }
        self.cache.store_json(
            result.key,
            {"kind": result.kind, "metrics": metrics, "elapsed": result.elapsed},
        )


def default_artifact_dir() -> Path:
    """Default artifact-store location (used by the runner's ``--resume``)."""
    return default_cache_dir() / "campaigns"


# -- executors -----------------------------------------------------------------------

# Registry used by jobs running inside a pool worker.  It is configured once
# per worker by :func:`_init_worker` so that every worker shares the parent's
# on-disk model cache (warmed up before dispatch) instead of retraining.
_WORKER_REGISTRY: ModelRegistry | None = None
# Contexts a pool worker keeps open for its lifetime (see _init_pool_worker).
_WORKER_SCOPE = ExitStack()


def _worker_registry_config(registry: ModelRegistry | None) -> tuple[str | None, bool]:
    """Return ``(cache_dir, cache_disabled)`` for worker-side registries.

    A caller registry with its disk cache *disabled* must stay disabled in
    the workers too (forced retraining is a deliberate isolation choice, and
    falling back to the process-default cache directory would leak state in
    and out of it).
    """
    if registry is None:
        return None, False
    if not registry.disk_cache.enabled:
        return None, True
    return str(registry.disk_cache.directory), False


def _init_worker(cache_dir: str | None, cache_disabled: bool = False) -> None:
    global _WORKER_REGISTRY
    _ensure_registrations()
    if cache_disabled:
        _WORKER_REGISTRY = ModelRegistry(DiskCache(enabled=False))
    elif cache_dir is not None:
        _WORKER_REGISTRY = ModelRegistry(DiskCache(cache_dir))


def _init_pool_worker(cache_dir: str | None, cache_disabled: bool = False) -> None:
    """Set up a process-pool worker: its registry, and plan repairs shared
    across its jobs until it exits (a pool lives for one campaign)."""
    _init_worker(cache_dir, cache_disabled)
    _WORKER_SCOPE.enter_context(shared_repairs())


def _execute_spec(spec: JobSpec) -> JobResult:
    # Top-level so it pickles for executor.submit.
    return execute_job(spec, registry=_WORKER_REGISTRY)


def _job_finished(result: JobResult) -> JobFinished:
    """The telemetry event announcing one executed job."""
    return JobFinished(
        key=result.key,
        kind=result.kind,
        metrics=encode_metrics(result.metrics),
        duration_s=result.elapsed,
    )


@dataclass(frozen=True)
class ExecutorConfig:
    """One configuration object for every executor backend.

    The in-process backends read ``backend``/``jobs`` only; the remaining
    fields configure the socket-attached worker fleet
    (:mod:`repro.experiments.service`).  Construct one of these and hand it
    to :func:`make_executor` or an executor class.
    """

    backend: str = "serial"
    jobs: int = 1
    # -- fleet-only settings ---------------------------------------------------------
    artifact_dir: str | None = None  # workers write results through this store
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    lease_seconds: float = 30.0
    heartbeat_seconds: float = 1.0
    max_attempts: int = 3
    spawn_workers: bool = True  # False = wait for externally attached workers

    def __post_init__(self) -> None:
        if self.backend not in EXECUTOR_BACKENDS:
            raise ConfigurationError(
                f"unknown executor backend {self.backend!r}; valid backends: "
                f"{', '.join(EXECUTOR_BACKENDS)}"
            )
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {self.max_attempts}")


class Executor:
    """Base class of all campaign executors: one config, one run contract.

    Subclasses set ``name``/``parallel`` and implement
    ``run(specs, *, registry=None)``, yielding one :class:`JobResult` per
    spec (any order) and publishing each job's :class:`JobStarted` and
    :class:`JobFinished` events to :func:`~repro.experiments.telemetry.bus.
    global_bus`.
    """

    name: str = "abstract"
    parallel: bool = False

    def __init__(self, config: ExecutorConfig | None = None):
        if config is None:
            config = ExecutorConfig(backend=self.name)
        elif config.backend != self.name:
            config = replace(config, backend=self.name)
        self.config = config

    @property
    def jobs(self) -> int:
        """Degree of parallelism this executor reports in campaign stats."""
        return self.config.jobs

    def run(
        self, specs: list[JobSpec], *, registry: ModelRegistry | None = None
    ) -> Iterator[JobResult]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Run every job in the current process, in submission order."""

    name = "serial"
    parallel = False

    @property
    def jobs(self) -> int:
        return 1

    def run(
        self, specs: list[JobSpec], *, registry: ModelRegistry | None = None
    ) -> Iterator[JobResult]:
        """Yield one result per job as it completes."""
        bus = global_bus()
        for spec in specs:
            bus.publish(JobStarted(key=spec.key, kind=spec.kind))
            result = execute_job(spec, registry=registry)
            bus.publish(_job_finished(result))
            yield result


class FuturesExecutor(Executor):
    """Fan jobs out through ``concurrent.futures.ProcessPoolExecutor``."""

    name = "process-pool"
    parallel = True

    def run(
        self, specs: list[JobSpec], *, registry: ModelRegistry | None = None
    ) -> Iterator[JobResult]:
        """Yield results as workers complete them (unordered)."""
        bus = global_bus()
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, max(len(specs), 1)),
            initializer=_init_pool_worker,
            initargs=_worker_registry_config(registry),
        ) as executor:
            pending = set()
            for spec in specs:
                pending.add(executor.submit(_execute_spec, spec))
                bus.publish(JobStarted(key=spec.key, kind=spec.kind))
            # Unordered: results are keyed by spec hash, so arrival order is
            # irrelevant and the parent can persist each artifact immediately.
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()
                    bus.publish(_job_finished(result))
                    yield result


def _executor_class(backend: str) -> type[Executor]:
    if backend == "fleet":
        # Imported lazily: the service package depends on this module.
        from repro.experiments.service.fleet import FleetExecutor

        return FleetExecutor
    return {"serial": SerialExecutor, "process-pool": FuturesExecutor}[backend]


def make_executor(config: ExecutorConfig) -> Executor:
    """Build the executor of the backend ``config`` names."""
    return _executor_class(config.backend)(config)


# -- campaigns -----------------------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    """A named grid of independent jobs plus the context to assemble tables."""

    name: str
    scale: str
    seed: int
    jobs: tuple[JobSpec, ...]
    metadata: dict[str, Any] = field(default_factory=dict)

    def unique_jobs(self) -> list[JobSpec]:
        """Jobs deduplicated by content hash, first occurrence wins."""
        seen: set[str] = set()
        unique: list[JobSpec] = []
        for spec in self.jobs:
            if spec.key not in seen:
                seen.add(spec.key)
                unique.append(spec)
        return unique

    def model_requirements(self) -> list[tuple[str, str, int]]:
        """Distinct ``(dataset, scale, seed)`` victim models the jobs need."""
        seen: set[tuple[str, str, int]] = set()
        ordered: list[tuple[str, str, int]] = []
        for spec in self.jobs:
            params = spec.param_dict()
            dataset = params.get("dataset")
            if dataset is None:
                continue
            requirement = (
                str(dataset),
                str(params.get("scale", self.scale)),
                int(params.get("seed", self.seed)),
            )
            if requirement not in seen:
                seen.add(requirement)
                ordered.append(requirement)
        return ordered


@dataclass(frozen=True)
class CampaignStats:
    """Execution summary of one campaign run."""

    total: int
    executed: int
    cache_hits: int
    elapsed_seconds: float
    executor: str
    jobs: int


@dataclass(frozen=True)
class CampaignResult:
    """Results of a campaign run, keyed by job content hash."""

    campaign: Campaign
    results: dict[str, JobResult]
    stats: CampaignStats

    def result_for(self, spec: JobSpec) -> JobResult:
        """Return the result of one cell (raises if the cell never ran)."""
        try:
            return self.results[spec.key]
        except KeyError as exc:
            raise KeyError(
                f"campaign {self.campaign.name!r} has no result for job "
                f"{spec.kind!r} with params {spec.param_dict()}"
            ) from exc

    def metrics_for(self, spec: JobSpec) -> dict[str, float]:
        """Return the metric dictionary of one cell."""
        return self.result_for(spec).metrics

    def cells(self, kind: str | None = None) -> Iterator[tuple[dict[str, Any], dict[str, float]]]:
        """Yield ``(params, metrics)`` per job, in declaration order.

        This is how ``assemble`` reads a campaign: each cell's parameters
        come from the job itself, so a table can never look up a cell the
        campaign did not declare.  ``kind`` restricts the walk to one job
        kind (for campaigns that mix several).
        """
        for spec in self.campaign.jobs:
            if kind is None or spec.kind == kind:
                yield spec.param_dict(), self.metrics_for(spec)

    def manifest(self) -> dict[str, Any]:
        """Structured JSON-serialisable record of the run."""
        by_key = {spec.key: spec for spec in self.campaign.jobs}
        jobs_detail = []
        for key, spec in by_key.items():
            result = self.results.get(key)
            detail = spec.as_dict()
            detail["status"] = "missing" if result is None else "completed"
            if result is not None:
                detail["cached"] = result.cached
                detail["elapsed_seconds"] = round(result.elapsed, 6)
            jobs_detail.append(detail)
        return {
            "campaign": self.campaign.name,
            "scale": self.campaign.scale,
            "seed": self.campaign.seed,
            "stats": {
                "total_jobs": self.stats.total,
                "executed": self.stats.executed,
                "cache_hits": self.stats.cache_hits,
                "elapsed_seconds": round(self.stats.elapsed_seconds, 6),
                "executor": self.stats.executor,
                "jobs": self.stats.jobs,
            },
            "jobs": jobs_detail,
        }

    def canonical_manifest(self) -> dict[str, Any]:
        """Executor-independent view of the run: identities and numbers only.

        Two runs of the same campaign — serial, process pool, or a worker
        fleet with members dying mid-run — must produce byte-identical
        canonical manifests: jobs are sorted by content hash and volatile
        fields (timings, cache hits, executor identity) are excluded, while
        every metric value is included (NaN as ``null``, the store's
        convention).  This is the artifact the service's acceptance checks
        diff.
        """
        jobs_detail = []
        by_key = {spec.key: spec for spec in self.campaign.jobs}
        for key in sorted(by_key):
            spec = by_key[key]
            result = self.results.get(key)
            detail = spec.as_dict()
            detail["status"] = "missing" if result is None else "completed"
            if result is not None:
                detail["metrics"] = {
                    name: None if math.isnan(value) else value
                    for name, value in sorted(result.metrics.items())
                }
            jobs_detail.append(detail)
        return {
            "campaign": self.campaign.name,
            "scale": self.campaign.scale,
            "seed": self.campaign.seed,
            "total_jobs": self.stats.total,
            "jobs": jobs_detail,
        }

    def write_manifest(
        self, path: str | Path, *, command: dict | None = None, canonical: bool = False
    ) -> Path:
        """Write the run manifest as indented, sorted, strict JSON.

        The one manifest-serialisation code path shared by the CLI runner and
        the campaign service.  ``command`` attaches the invoking command line
        (ignored for canonical manifests, which must stay run-independent);
        ``canonical=True`` writes :meth:`canonical_manifest` instead of the
        full :meth:`manifest`.
        """
        payload = self.canonical_manifest() if canonical else self.manifest()
        if command is not None and not canonical:
            payload["command"] = dict(command)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        return path


def _warm_model_caches(
    campaign: Campaign, pending: Iterable[JobSpec], registry: ModelRegistry | None
) -> None:
    """Train every victim model the pending jobs need before fanning out.

    Training happens at most once per (dataset, scale, seed) in the parent
    and lands in the registry's disk cache; workers then load weights instead
    of each paying the training cost (or worse, racing to train).
    """
    from repro.experiments.common import get_trained_model

    needed = Campaign(
        name=campaign.name,
        scale=campaign.scale,
        seed=campaign.seed,
        jobs=tuple(pending),
    ).model_requirements()
    for dataset, scale, seed in needed:
        get_trained_model(dataset, scale, registry=registry, seed=seed)


def run_campaign(
    campaign: Campaign,
    *,
    registry: ModelRegistry | None = None,
    jobs: int = 1,
    executor: Executor | ExecutorConfig | str | None = None,
    store: ArtifactStore | None = None,
    on_event: EventCallback | None = None,
    fuse: bool = False,
) -> CampaignResult:
    """Execute a campaign and return its results and statistics.

    Parameters
    ----------
    campaign:
        The grid to execute.
    registry:
        Model registry for victim models.  Serial execution uses it directly;
        parallel executors give each worker a registry sharing its disk cache.
    jobs, executor:
        Parallelism degree and backend.  ``executor`` may be an
        :class:`ExecutorConfig`, a backend name (see
        :data:`EXECUTOR_BACKENDS`), an executor instance, or ``None`` to
        choose from ``jobs``: serial for ``jobs <= 1``, else
        ``process-pool``.  A backend name or ``None`` runs ``jobs`` workers.
    store:
        Optional artifact store.  Completed cells found in the store are not
        re-executed; freshly executed cells are persisted one by one, so an
        interrupted campaign resumes where it stopped.
    on_event:
        Optional callback attached to the telemetry bus for the call (and
        detached afterwards, also when a job raises); it receives every
        typed event published meanwhile (cache hits, job completions, fleet
        worker attach/detach).  Fleet events arrive from a background thread.
    fuse:
        Group compatible pending sweep cells (see
        :mod:`repro.experiments.fusion`) into batched in-parent jobs — one
        stacked tensor solve per group — before handing the remainder to the
        executor.  Purely an execution-plan rewrite: per-cell artifact keys,
        metrics, manifests and telemetry events are identical to an unfused
        run.
    """
    started = time.perf_counter()
    store = store if store is not None else ArtifactStore(enabled=False)
    if executor is None or isinstance(executor, str):
        backend = executor or ("serial" if jobs <= 1 else "process-pool")
        executor = ExecutorConfig(backend=backend, jobs=jobs)
    if isinstance(executor, ExecutorConfig):
        executor = make_executor(executor)

    bus = global_bus()
    sink = bus.attach(CallbackSink(on_event)) if on_event is not None else None
    try:
        unique = campaign.unique_jobs()
        bus.publish(
            RunStarted(
                campaign=campaign.name,
                scale=campaign.scale,
                seed=campaign.seed,
                total_jobs=len(unique),
                executor=executor.name,
                jobs=executor.jobs,
            ),
        )
        results: dict[str, JobResult] = {}
        pending: list[JobSpec] = []
        for spec in unique:
            cached = store.load(spec)
            if cached is not None:
                results[spec.key] = cached
                bus.publish(JobCached(key=spec.key, kind=spec.kind))
            else:
                pending.append(spec)
        cache_hits = len(results)
        _LOGGER.info(
            "campaign %s: %d jobs (%d cached, %d to run) via %s",
            campaign.name,
            len(unique),
            cache_hits,
            len(pending),
            executor.name,
        )

        fused_groups: list[list[JobSpec]] = []
        if fuse and pending:
            # Imported lazily: fusion depends on this module.
            from repro.experiments.fusion import plan_fusion, run_fused_group

            fused_groups, pending = plan_fusion(pending)
            if fused_groups:
                _LOGGER.info(
                    "campaign %s: fused %d jobs into %d batched groups (%d stay scalar)",
                    campaign.name,
                    sum(len(group) for group in fused_groups),
                    len(fused_groups),
                    len(pending),
                )

        # Warm-up only helps when workers can actually read what the parent
        # trains; a deliberately disabled disk cache means each worker retrains.
        warmup_reaches_workers = registry is None or registry.disk_cache.enabled
        if pending and executor.parallel and warmup_reaches_workers:
            _warm_model_caches(campaign, pending, registry)

        # In-process cells of this campaign plan and repair each distinct
        # lowering once (pool workers hold their own block).
        with shared_repairs():
            for group in fused_groups:
                # Fused groups run in-parent: the per-group batched solve is
                # the parallelism.  Events mirror the scalar path cell for
                # cell — the per-job (event, key, kind) multiset of a fused
                # run equals the serial run's.
                for spec in group:
                    bus.publish(JobStarted(key=spec.key, kind=spec.kind))
                for result in run_fused_group(group, registry=registry):
                    store.store(result)
                    results[result.key] = result
                    bus.publish(_job_finished(result))
            for result in executor.run(pending, registry=registry):
                store.store(result)
                results[result.key] = result

        stats = CampaignStats(
            total=len(unique),
            executed=len(pending) + sum(len(group) for group in fused_groups),
            cache_hits=cache_hits,
            elapsed_seconds=time.perf_counter() - started,
            executor=executor.name,
            jobs=executor.jobs,
        )
        bus.publish(
            RunFinished(
                campaign=campaign.name,
                total_jobs=stats.total,
                executed=stats.executed,
                cache_hits=stats.cache_hits,
                executor=stats.executor,
                jobs=stats.jobs,
                elapsed_s=stats.elapsed_seconds,
            ),
        )
        return CampaignResult(campaign=campaign, results=results, stats=stats)
    finally:
        if sink is not None:
            bus.detach(sink)


def run_experiment(
    build_campaign: Callable[..., Campaign],
    assemble: Callable[[Campaign, CampaignResult], Any],
    scale: str = "ci",
    *,
    registry: ModelRegistry | None = None,
    seed: int = 0,
    jobs: int = 1,
    executor: Executor | ExecutorConfig | str | None = None,
    artifact_dir: str | Path | None = None,
    fuse: bool = False,
    **kwargs: Any,
) -> Any:
    """Build, run and assemble one experiment campaign (driver entry point).

    Every driver's ``run`` is this function with the module's own pair bound
    (``functools.partial(run_experiment, build_campaign, assemble)``): the
    grid builder declares the cells, the engine executes them, and
    ``assemble`` turns the per-cell metrics into the paper's table.  Keyword
    arguments other than the execution options go to ``build_campaign``.
    """
    campaign = build_campaign(scale, seed=seed, **kwargs)
    store = ArtifactStore(artifact_dir) if artifact_dir is not None else None
    result = run_campaign(
        campaign, registry=registry, jobs=jobs, executor=executor, store=store, fuse=fuse
    )
    return assemble(campaign, result)


def format_cell_int(value: float) -> int:
    """Convert a stored metric back to the integer the table reports."""
    if math.isnan(value):
        raise ValueError("cannot render NaN as an integer table cell")
    return int(round(value))
