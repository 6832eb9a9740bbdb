"""One workload process: set up, run timed campaign passes, check, report.

Started by ``run.py``; not meant to be run by hand.  The process prints
``READY`` once set-up is done (the launcher times set-up up to that line)
and, in the ``run`` and ``trace`` modes, one JSON object as its last line.

Modes:

* ``setup`` -- import, train the victim, warm the solve cache, exit;
* ``run``   -- set up, then time the workload's campaign passes untraced;
* ``trace`` -- set up traced, run the passes untraced and then traced, and
  report per-layer numbers plus the traced-minus-untraced overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
WARM_UP_CELLS = 4


def _digest(result) -> str:
    canonical = json.dumps(result.canonical_manifest(), sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cache_listing(directory: Path) -> list[str]:
    files = (path for path in directory.rglob("*") if path.is_file())
    return sorted(str(path.relative_to(directory)) for path in files)


def _runtime_warnings(caught) -> int:
    return sum(issubclass(item.category, RuntimeWarning) for item in caught)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ``TAIL_BEYOND`` samples above it."""
    return max(0, math.floor(100 * (1 - TAIL_BEYOND / samples)))


class Session:
    """The state one workload process carries from set-up to report."""

    def __init__(self, workload_name: str, seed: int, cache_dir: Path):
        from repro.experiments.campaign import execute_job
        from repro.experiments.common import get_trained_model
        from repro.utils.cache import DiskCache
        from repro.zoo.registry import ModelRegistry
        import workloads

        self.workload = workloads.WORKLOADS[workload_name]
        self.seed = seed
        self.cache_dir = cache_dir
        self.registry = ModelRegistry(DiskCache(cache_dir))
        get_trained_model(
            workloads.DATASET, workloads.SCALE, registry=self.registry, seed=workloads.VICTIM_SEED
        )
        self.campaign = self.workload.build(seed)
        if self.workload.warm_solves:
            for spec in workloads.solve_warmup_jobs(self.campaign):
                execute_job(spec, registry=self.registry)
        self.cells = len(self.campaign.unique_jobs())
        self.cache_after_setup = _cache_listing(cache_dir)

    def run_pass(self) -> dict:
        """Run the campaign once; a raising campaign fails every missing cell."""
        from repro.experiments.campaign import run_campaign
        from repro.experiments.telemetry.events import JobFinished

        finished: set[str] = set()

        def on_event(event) -> None:
            if isinstance(event, JobFinished):
                finished.add(event.key)

        error = None
        result = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = time.perf_counter()
            try:
                result = run_campaign(
                    self.campaign,
                    registry=self.registry,
                    executor="serial",
                    fuse=self.workload.fuse,
                    on_event=on_event,
                )
            except Exception as exc:  # a failed cell aborts a serial campaign
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
        completed = len(finished) if result is None else len(result.results)
        return {
            "wall": wall,
            "elapsed": [] if result is None else [r.elapsed for r in result.results.values()],
            "failed": self.cells - completed,
            "digest": None if result is None else _digest(result),
            "warnings": _runtime_warnings(caught),
            "error": error,
            "result": result,
        }

    def warm_up(self) -> None:
        """Run the first cells untimed, so first-call costs (lazy imports,
        heap growth) fall on neither side of the traced/untraced comparison."""
        from repro.experiments.campaign import Campaign, run_campaign

        sub = Campaign(
            name="warm-up", scale=self.campaign.scale, seed=self.seed,
            jobs=tuple(self.campaign.unique_jobs()[:WARM_UP_CELLS]),
        )
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            run_campaign(sub, registry=self.registry, executor="serial", fuse=self.workload.fuse)

    def cross_check(self, reference) -> bool:
        """Re-run the first fusion group the other way round and compare.

        Fusion must be invisible: a fused sweep and a scalar sweep give the
        same metrics, bit for bit.  Only the sweep grid has fusion groups.
        """
        from repro.experiments.campaign import Campaign, run_campaign
        from repro.experiments.fusion import plan_fusion

        groups, _ = plan_fusion(self.campaign.unique_jobs())
        if not groups:
            return True
        group = groups[0]
        sub = Campaign(
            name="cross-check", scale=self.campaign.scale, seed=self.seed, jobs=tuple(group)
        )
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            other = run_campaign(
                sub, registry=self.registry, executor="serial", fuse=not self.workload.fuse
            )
        for spec in group:
            mine = reference.results[spec.key].metrics
            theirs = other.results[spec.key].metrics
            if mine.keys() != theirs.keys():
                return False
            for name, value in mine.items():
                if not (value == theirs[name] or (math.isnan(value) and math.isnan(theirs[name]))):
                    return False
        return True


def _checks(session: Session, records: list[dict]) -> dict[str, bool]:
    digests = {record["digest"] for record in records}
    checks = {
        "no_failed_cells": all(record["failed"] == 0 for record in records),
        "digest_stable": len(digests) == 1 and None not in digests,
        "cache_isolated": _cache_listing(session.cache_dir) == session.cache_after_setup,
    }
    if checks["no_failed_cells"]:
        checks["fusion_invisible"] = session.cross_check(records[0]["result"])
    return checks


def _end_to_end(session: Session, records: list[dict]) -> dict:
    import numpy as np

    elapsed = [value for record in records for value in record["elapsed"]] or [0.0]
    attempted = session.cells * len(records)
    completed = attempted - sum(record["failed"] for record in records)
    percentile = tail_percentile(len(elapsed))
    return {
        "cells_per_s": completed / sum(record["wall"] for record in records),
        "cell_p50_s": float(np.percentile(elapsed, 50)),
        "cell_tail_s": float(np.percentile(elapsed, percentile)),
        "tail_percentile": percentile,
        "cell_samples": int(len(elapsed)),
        "completed_frac": completed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _campaign_overhead(records: list[dict]) -> float:
    return sum(record["wall"] - sum(record["elapsed"]) for record in records) / len(records)


def _per_layer(
    session: Session, setup: dict, per_pass: list[dict], untraced: list[dict], traced: list[dict]
) -> tuple[dict, dict]:
    """Mean per-pass layer numbers and the tracer self-check."""
    from workloads import expected_counts

    keys = sorted(per_pass[0])
    layer = {key: sum(snapshot[key] for snapshot in per_pass) / len(per_pass) for key in keys}
    # The registry trains the victim in set-up and only hits its memory after.
    layer.update({key: value for key, value in setup.items() if key.startswith("zoo.registry.")})
    loads = layer["utils.cache.load_calls"]
    layer["utils.cache.hit_ratio"] = layer["utils.cache.hits"] / loads if loads else 0.0
    lowerings = layer["attacks.lowering.lower_attack_calls"]
    layer["attacks.lowering.reuse_ratio"] = (
        layer["attacks.lowering.distinct_lowerings"] / lowerings if lowerings else 0.0
    )
    layer["experiments.campaign.overhead_s"] = _campaign_overhead(untraced)
    untraced_wall = sum(r["wall"] for r in untraced) / len(untraced)
    traced_wall = sum(r["wall"] for r in traced) / len(traced)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    layer["warnings.runtime_warnings"] = sum(r["warnings"] for r in untraced) / len(untraced)

    counted = [key for key in keys if not key.endswith("_s")]
    checks = {
        "counts_repeat": all(
            snapshot[key] == per_pass[0][key] for snapshot in per_pass for key in counted
        ),
        "im2col_traced": layer["nn.im2col.im2col_calls"] > 0,
    }
    for name, expected in expected_counts(session.workload, session.campaign).items():
        checks[f"count:{name}"] = layer.get(name, 0) == expected
    return layer, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import repro.experiments  # noqa: F401  (registers every job kind)

        if tracer is not None:
            tracer.install()
            tracer.recording = True
        session = Session(args.workload, args.seed, args.cache_dir)
        if tracer is not None:
            tracer.recording = False
            setup_snapshot = tracer.snapshot()
            tracer.reset()
    setup_warnings = _runtime_warnings(caught)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    passes = session.workload.passes(args.seconds)
    if tracer is not None:
        tracer.uninstall()  # the untraced passes run the program as shipped
        session.warm_up()
    records = [session.run_pass() for _ in range(passes)]
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "campaign": session.campaign.name,
        "grid": hashlib.sha256(
            "\n".join(spec.key for spec in session.campaign.unique_jobs()).encode()
        ).hexdigest()[:16],
        "passes": passes,
        "cells": session.cells,
        "attempted": session.cells * passes,
        "failed": sum(record["failed"] for record in records),
        "digest": records[0]["digest"],
        "errors": sorted({record["error"] for record in records if record["error"]}),
        "setup_warnings": setup_warnings,
        "runtime_warnings": sum(record["warnings"] for record in records),
    }
    if tracer is not None:
        traced, per_pass = [], []
        tracer.install()
        for _ in range(passes):
            tracer.reset(keep_spans=True)
            tracer.recording = True
            traced.append(session.run_pass())
            tracer.recording = False
            per_pass.append(tracer.snapshot())
        tracer.uninstall()
        report["failed"] += sum(record["failed"] for record in traced)
        report["attempted"] += session.cells * passes
        layer, trace_checks = _per_layer(session, setup_snapshot, per_pass, records, traced)
        report["metrics"] = layer
        report["checks"] = {**_checks(session, records + traced), **trace_checks}
        report["binding_sites"] = tracer.binding_sites
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    else:
        report["metrics"] = _end_to_end(session, records)
        report["checks"] = _checks(session, records)
    print(json.dumps(report, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
