"""Benchmark of the fault-sneaking campaign pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-fused --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``sweep-fused``, ``sweep-scalar``,
``hardware-cost`` and ``defense-matrix``.  Every run trains the victim into
a fresh private cache directory under ``.perfbench/`` and uses no artifact
store, so no run reads an earlier run's cells.

``--trace 0`` prints the end-to-end metrics: ``cells_per_s``,
``cell_p50_s``, ``cell_tail_s``, ``setup_s`` (median of three fresh
set-ups), ``peak_rss_mb`` and ``completed_frac``.  ``--trace 1`` prints the
per-layer metrics of a traced run, with the tracer's own overhead.  The last
line of standard output is one JSON object; the lines before it are a
human-readable summary.

Correctness: the digest of ``CampaignResult.canonical_manifest()`` must be
equal across the passes of a run, across runs with the same seed in this
checkout (recorded in ``.perfbench/digests.json``; ``sweep-fused`` and
``sweep-scalar`` share one entry, so fusion must be invisible), and the
first fusion group of the sweep is re-run the other way round and compared.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("sweep-fused", "sweep-scalar", "hardware-cost", "defense-matrix")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
DEADLINE_S = 170.0

IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import repro, repro.experiments; "
    "print(time.perf_counter() - started)"
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Keep every file the program or its libraries write inside the checkout.
    env["TMPDIR"] = str(workdir)
    env["MPLCONFIGDIR"] = str(workdir / "mpl")
    env["XDG_CACHE_HOME"] = str(workdir / "xdg")
    env["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    # One BLAS thread: the serial executor is one process, and spinning BLAS
    # threads on a small shared box measure contention more than the code.
    # The thread count also changes floating-point sums, hence the digests.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # Let glibc malloc keep freed memory: otherwise every large NumPy
    # temporary is a fresh mmap whose page faults, on a VM, made passes ~20%
    # slower and ~10% noisier.  Peak RSS is still the process's true peak.
    env["GLIBC_TUNABLES"] = (
        "glibc.malloc.mmap_threshold=268435456:glibc.malloc.trim_threshold=1073741824"
    )
    return env


class Child:
    """One worker process, read line by line, always reaped."""

    def __init__(self, args: list[str], workdir: Path, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            env=_child_env(workdir),
            cwd=str(ROOT),
        )

    def wait_ready(self) -> float:
        """Seconds from launch to the worker's ``READY`` line."""
        for line in self.process.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.started
        raise BenchmarkError("worker exited during set-up")

    def finish(self) -> dict | None:
        """Wait for exit; return the worker's last JSON line, if any."""
        last = None
        for line in self.process.stdout:
            if line.strip():
                last = line
        code = self.process.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        if code != 0:
            raise BenchmarkError(f"worker exited with code {code}")
        return None if last is None else json.loads(last)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def _run_child(args: list[str], workdir: Path, deadline: float) -> tuple[float, dict | None]:
    child = Child(args, workdir, deadline)
    try:
        ready = child.wait_ready()
        return ready, child.finish()
    finally:
        child.kill()


def _import_seconds(workdir: Path, deadline: float) -> float:
    """Median time to import the package in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True,
            text=True,
            env=_child_env(workdir),
            cwd=str(ROOT),
            timeout=max(1.0, deadline - time.perf_counter()),
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _check_digest(report: dict) -> bool:
    """Record the run's manifest digest; False if this seed saw another one."""
    ledger_path = STATE / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{report['campaign']}:{report['grid']}:{report['seed']}"
    known = ledger.setdefault(key, report["digest"])
    fd, tmp = tempfile.mkstemp(dir=STATE, suffix=".json.tmp")
    with os.fdopen(fd, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    os.replace(tmp, ledger_path)
    return known == report["digest"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no program source at {ROOT / 'src' / 'repro'}")
    deadline = time.perf_counter() + DEADLINE_S
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE))
    try:
        common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

        def cache_dir(index: int) -> list[str]:
            return ["--cache-dir", str(workdir / f"cache-{index}")]

        setups = []
        if trace:
            import_s = _import_seconds(workdir, deadline)
            spans = STATE / f"spans-{workload}.json"
            _, report = _run_child(
                ["--mode", "trace", *common, *cache_dir(0), "--spans-out", str(spans)],
                workdir,
                deadline,
            )
        else:
            for index in range(SETUP_REPEATS - 1):
                args = ["--mode", "setup", *common, *cache_dir(index)]
                ready, _ = _run_child(args, workdir, deadline)
                setups.append(ready)
            ready, report = _run_child(
                ["--mode", "run", *common, *cache_dir(SETUP_REPEATS - 1)], workdir, deadline
            )
            setups.append(ready)
        if report is None:
            raise BenchmarkError("worker printed no report")
        if trace:
            report["metrics"]["startup.import_s"] = import_s
        else:
            report["metrics"]["setup_s"] = statistics.median(setups)
            report["setup_samples"] = setups
        report["checks"]["digest_matches_ledger"] = _check_digest(report)
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    if args.trace:
        units = {name: _unit(name) for name in sorted(metrics)}
    else:
        units = END_TO_END_UNITS
    chosen = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    failed_checks = sorted(name for name, ok in report["checks"].items() if not ok)
    if args.trace:
        print(f"# patched binding sites: {report['binding_sites']}")
    print(
        f"# {args.workload} seed={args.seed} passes={report['passes']} "
        f"cells/pass={report['cells']} digest={report['digest']}"
    )
    if not args.trace:
        print(
            f"# cell_tail_s is p{metrics['tail_percentile']} of {metrics['cell_samples']} "
            "per-cell elapsed samples (a fused cell's elapsed is its group time / group size); "
            f"setup samples {[round(value, 3) for value in report['setup_samples']]}"
        )
    print(
        f"# runtime warnings: {report['runtime_warnings']} in passes, "
        f"{report['setup_warnings']} in set-up; errors: {report['errors'] or 'none'}"
    )
    print(f"# checks failed: {failed_checks or 'none'}")
    for name, entry in chosen.items():
        print(f"#   {name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not failed_checks,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": chosen,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
