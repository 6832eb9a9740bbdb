"""Command-line entry point: ``python -m repro.experiments.runner`` or ``repro-experiments``.

Examples
--------
Run one experiment at CI scale and print the table::

    repro-experiments table4 --scale ci

Run everything the paper reports at paper scale, four attacks at a time,
memoizing each grid cell so an interrupted run can be resumed::

    repro-experiments all --scale paper --jobs 4 --artifact-dir artifacts/ \
        --output-dir results/

Resume an interrupted campaign (reuses the default artifact store)::

    repro-experiments all --scale paper --jobs 4 --resume

List the registered device profiles, then lower the hardware-cost grid onto
specific devices and hammer patterns::

    repro-experiments --list-profiles
    repro-experiments hardware_cost --scale ci --profile ddr4-trr --profile server-ecc
    repro-experiments hardware_cost --scale ci --profile ddr4-trrespass \
        --hammer-pattern double-sided --hammer-pattern many-sided

Monte-Carlo the stochastic profiles: more trials per cell, and a different
flip seed for an independent replication of the whole grid::

    repro-experiments hardware_cost --scale ci --profile stochastic-trrespass \
        --trials 32 --flip-seed 1

Run the arms race — attacker profile × defense × flip budget — against a
chosen defense subset, or replay the whole grid under environmental drift
(hotter DRAM, lower landing probabilities)::

    repro-experiments defense_matrix --scale ci
    repro-experiments defense_matrix --scale ci --defense none \
        --defense checksum-fast --defense aslr --attacker ddr3-blitz
    repro-experiments defense_matrix --scale ci --env-drift 0.2

Fuse compatible grid cells into batched stacked solves (byte-identical
tables, one tensor solve per fused group)::

    repro-experiments table4 --scale ci --fuse

Run a campaign on the worker fleet: a dispatcher plus N socket-attached
worker processes (byte-identical to the serial tables)::

    repro-experiments hardware_cost --scale ci --executor fleet --workers 2

With ``--workers 0`` the dispatcher spawns nothing and waits for workers
started by hand (attach and detach them while the campaign runs)::

    python -m repro.experiments.service --host 127.0.0.1 --port <port> &

Record a structured telemetry log and publish the live event stream for the
dashboard (``python -m repro.experiments.dashboard``)::

    repro-experiments hardware_cost --scale ci --executor fleet --workers 2 \
        --telemetry-log run.jsonl --telemetry-port 0
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from repro.experiments import EXPERIMENTS
from repro.experiments.campaign import (
    EXECUTOR_BACKENDS,
    ArtifactStore,
    ExecutorConfig,
    make_executor,
    run_campaign,
)
from repro.experiments.telemetry.bus import (
    ConsoleSink,
    JsonlSink,
    SocketSink,
    global_bus,
)
from repro.experiments.telemetry.events import ArtifactSaved
from repro.utils.clock import wall_clock
from repro.utils.errors import ConfigurationError
from repro.utils.logging import set_verbosity

__all__ = ["main", "build_parser"]

# Campaign options: CLI destination -> the ``build_campaign`` keyword it sets.
# Each reaches every selected experiment whose ``build_campaign`` takes that
# keyword; an option none of them takes is a usage error.
_CAMPAIGN_OPTIONS = {
    "profile": "profiles",
    "hammer_pattern": "patterns",
    "trials": "trials",
    "flip_seed": "flip_seed",
    "env_drift": "env_drift",
    "attacker": "attackers",
    "defense": "defenses",
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the Fault Sneaking Attack paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run ('all' runs every table and figure)",
    )
    parser.add_argument(
        "--scale",
        default="ci",
        choices=["smoke", "ci", "paper", "full"],
        help="grid size / training budget (default: ci)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed (default: 0)")
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the attack grid (default: 1 = serial)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=list(EXECUTOR_BACKENDS),
        help="executor backend (default: serial for --jobs 1, process-pool otherwise)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="socket-attached worker processes for --executor fleet "
        "(default: 2; 0 = spawn none and wait for externally started "
        "workers to attach)",
    )
    parser.add_argument(
        "--fuse",
        action="store_true",
        help="fuse compatible grid cells into batched stacked solves (one "
        "tensor solve per group; bit-identical tables and manifests, fewer "
        "Python-overhead-bound solves)",
    )
    parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=None,
        help="memoize each grid cell in this directory; re-runs skip completed cells",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from previously stored cells (uses the default artifact "
        "store when --artifact-dir is not given)",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "markdown", "csv"],
        help="output format for stdout (default: text)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="also save each table as CSV (plus a JSON run manifest) into this directory",
    )
    parser.add_argument(
        "--profile",
        action="append",
        metavar="NAME",
        default=None,
        help="device profile for the hardware_cost grid (repeatable; default: "
        "the experiment's built-in pair).  Like every campaign option below, "
        "it is rejected when no selected experiment takes it",
    )
    parser.add_argument(
        "--hammer-pattern",
        action="append",
        metavar="NAME",
        default=None,
        help="hammer pattern for the hardware_cost grid (repeatable; default: "
        "double-sided).  TRR-evasion patterns like many-sided matter on "
        "sampler-based profiles such as ddr4-trrespass",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="N",
        help="Monte-Carlo executions per hardware_cost or defense_matrix cell "
        "(default: the experiment's built-in count; 0 disables the stochastic "
        "columns of hardware_cost, and defense_matrix needs at least 1).  "
        "Rejected when no selected experiment takes it",
    )
    parser.add_argument(
        "--flip-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seed of the per-cell Monte-Carlo flip sampling in hardware_cost "
        "and defense_matrix (default: 0).  Same seed = byte-identical tables, "
        "different seeds = independent replications",
    )
    parser.add_argument(
        "--env-drift",
        type=float,
        default=None,
        metavar="D",
        help="environmental drift in (-1, 1) scaling every landing "
        "probability by (1 - D) in hardware_cost and defense_matrix "
        "(default: 0 = nominal temperature/voltage; positive = hotter "
        "DRAM, fewer flips land)",
    )
    parser.add_argument(
        "--attacker",
        action="append",
        metavar="NAME",
        default=None,
        help="attacker profile for the defense_matrix grid (repeatable; "
        "default: all named attackers; rejected when defense_matrix is not "
        "selected)",
    )
    parser.add_argument(
        "--defense",
        action="append",
        metavar="NAME",
        default=None,
        help="defense configuration for the defense_matrix grid "
        "(repeatable; default: the registered suite incl. the undefended "
        "'none' baseline)",
    )
    parser.add_argument(
        "--list-profiles",
        action="store_true",
        help="list the registered device profiles and hammer patterns, then exit",
    )
    parser.add_argument(
        "--telemetry-log",
        type=Path,
        default=None,
        metavar="PATH",
        help="append every telemetry event to this JSON-lines file (replay it "
        "with python -m repro.experiments.dashboard --replay PATH)",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="N",
        help="publish the live telemetry stream on this localhost TCP port "
        "(0 = pick an ephemeral port; connect the dashboard with --connect)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log per-attack progress to stderr"
    )
    return parser


def _profiles_table():
    """Build the table printed by ``--list-profiles``."""
    from repro.analysis.reporting import Table
    from repro.hardware.device import get_pattern, get_profile, list_patterns, list_profiles

    table = Table(
        title="Registered device profiles",
        columns=[
            "name",
            "geometry",
            "ecc",
            "trr",
            "flip prob",
            "landing prob",
            "derived budget",
        ],
    )
    for name in list_profiles():
        profile = get_profile(name)
        table.add_row(
            name,
            profile.geometry.describe(),
            profile.ecc.describe() if profile.ecc is not None else "none",
            profile.trr.describe() if profile.trr is not None else "none",
            profile.flip_probability,
            profile.landing_probability,
            profile.budget().describe(),
        )
    table.add_note(
        "pass --profile NAME (repeatable) to lower the hardware_cost grid "
        "onto specific devices"
    )
    table.add_note(
        "hammer patterns (--hammer-pattern, repeatable): " + "; ".join(
            f"{name} = {get_pattern(name).description}" for name in list_patterns()
        )
    )
    table.add_note(
        "'flip prob' is the fraction of templatable cells; 'landing prob' is "
        "the per-burst probability a feasible flip lands — profiles below 1.0 "
        "(the stochastic-* variants) are Monte-Carlo sampled, and the trr "
        "column shows whether the tracker is a deterministic priority queue "
        "(trr) or a per-activation sampler (trr-sampling).  Sweep them with "
        "--trials / --flip-seed."
    )
    return table


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    set_verbosity("info" if args.verbose else "warning")

    if args.list_profiles:
        print(_profiles_table().render(args.format))
        return 0
    if args.experiment is None:
        parser.error("an experiment name is required (or use --list-profiles)")
    if args.workers is not None:
        if args.executor != "fleet":
            parser.error("--workers requires --executor fleet")
        if args.workers < 0:
            parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.telemetry_port is not None and args.telemetry_port < 0:
        parser.error(f"--telemetry-port must be >= 0, got {args.telemetry_port}")

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    accepted = {
        name: inspect.signature(EXPERIMENTS[name].build_campaign).parameters for name in names
    }
    options = {}
    for dest, keyword in _CAMPAIGN_OPTIONS.items():
        value = getattr(args, dest)
        if value is None:
            continue
        if not any(keyword in accepted[name] for name in names):
            flag = "--" + dest.replace("_", "-")
            parser.error(f"{flag} is not an option of {args.experiment}")
        options[keyword] = tuple(value) if isinstance(value, list) else value

    # Every selected campaign is declared before the first one runs, so a bad
    # option fails the command without running anything.
    campaigns = {}
    for name in names:
        extra = {key: value for key, value in options.items() if key in accepted[name]}
        try:
            campaigns[name] = EXPERIMENTS[name].build_campaign(
                args.scale, seed=args.seed, **extra
            )
        except ConfigurationError as exc:
            parser.error(f"{name}: {exc}")

    store = None
    if args.artifact_dir is not None or args.resume:
        # --artifact-dir names the store explicitly; --resume alone falls back
        # to the default store so a rerun finds the previous run's cells.
        store = ArtifactStore(args.artifact_dir)
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)

    executor = args.executor
    if args.executor == "fleet":
        workers = 2 if args.workers is None else args.workers
        executor = make_executor(
            ExecutorConfig(
                backend="fleet",
                jobs=max(workers, 1),
                artifact_dir=str(store.directory) if store is not None else None,
                spawn_workers=workers > 0,
            )
        )

    # Telemetry sinks: the runner publishes to the process-wide bus that the
    # executors and dispatcher already emit on; sinks are detached on exit so
    # repeated in-process main() calls (tests) never stack.
    bus = global_bus()
    console = bus.attach(ConsoleSink(sys.stderr, verbose=args.verbose))
    jsonl = bus.attach(JsonlSink(args.telemetry_log)) if args.telemetry_log else None
    socket_sink = None
    if args.telemetry_port is not None:
        socket_sink = bus.attach(SocketSink(port=args.telemetry_port))
        print(
            f"[telemetry listening on 127.0.0.1:{socket_sink.port} — "
            f"python -m repro.experiments.dashboard --connect {socket_sink.port}]",
            file=sys.stderr,
        )

    try:
        for name, campaign in campaigns.items():
            started = wall_clock()
            result = run_campaign(
                campaign, jobs=args.jobs, executor=executor, store=store, fuse=args.fuse
            )
            table = EXPERIMENTS[name].assemble(campaign, result)
            elapsed = wall_clock() - started
            stats = result.stats
            print(table.render(args.format))
            print(
                f"[{name} completed in {elapsed:.1f}s at scale={args.scale}: "
                f"{stats.total} jobs, {stats.cache_hits} cached, "
                f"executor={stats.executor} x{stats.jobs}]"
            )
            print()
            if args.output_dir is not None:
                path = args.output_dir / f"{name}_{args.scale}.csv"
                table.save(path, "csv")
                manifest_path = result.write_manifest(
                    args.output_dir / f"{name}_{args.scale}_manifest.json",
                    command={
                        "experiment": name,
                        "scale": args.scale,
                        "seed": args.seed,
                        "jobs": args.jobs,
                        "fuse": args.fuse,
                        "executor": stats.executor,
                        "workers": args.workers,
                        "artifact_dir": str(store.directory) if store is not None else None,
                        "profiles": list(args.profile) if args.profile else None,
                        "hammer_patterns": list(args.hammer_pattern) if args.hammer_pattern else None,
                        "trials": args.trials,
                        "flip_seed": args.flip_seed,
                        "env_drift": args.env_drift,
                        "attackers": list(args.attacker) if args.attacker else None,
                        "defenses": list(args.defense) if args.defense else None,
                    },
                )
                canonical_path = result.write_manifest(
                    args.output_dir / f"{name}_{args.scale}_manifest.canonical.json",
                    canonical=True,
                )
                for saved, kind in (
                    (path, "table-csv"),
                    (manifest_path, "manifest"),
                    (canonical_path, "manifest-canonical"),
                ):
                    bus.publish(
                        ArtifactSaved(path=str(saved), kind=kind, experiment=name)
                    )
    finally:
        bus.detach(console)
        if jsonl is not None:
            bus.detach(jsonl)
            jsonl.close()
            print(f"[saved {jsonl.path}]", file=sys.stderr)
        if socket_sink is not None:
            bus.detach(socket_sink)
            socket_sink.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
