"""Check a campaign's JSON-lines telemetry log against its run manifest.

Usage::

    python .github/scripts/check_telemetry_log.py run.jsonl results/x_manifest.json

Every event in the log must be a known telemetry type at a supported version
of the committed protocol schema snapshot, and replaying the log through the
dashboard's aggregator must reproduce the manifest's executed / cached /
total job counts.  Exits non-zero (an ``AssertionError``) on any mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.lint import load_snapshot
from repro.analysis.lint.protocol_schema import SNAPSHOT_PATH
from repro.experiments.telemetry import RunAggregator, TELEMETRY_TYPE_PREFIX, read_events


def main(log_path: str, manifest_path: str) -> None:
    schema = load_snapshot(SNAPSHOT_PATH)["messages"]
    events = list(read_events(log_path))
    assert events, "telemetry log is empty"
    for event in events:
        entry = schema[event.TYPE_NAME]  # KeyError = unknown event type
        assert event.TYPE_NAME.startswith(TELEMETRY_TYPE_PREFIX)
        assert event.VERSION in entry["supported_versions"], event
    print(f"{len(events)} events validate against the committed schema")

    # The aggregator's view of the run must match the manifest's stats.
    agg = RunAggregator().replay(events)
    stats = json.loads(Path(manifest_path).read_text())["stats"]
    assert agg.executed == stats["executed"], (agg.counts(), stats)
    assert agg.cache_hits == stats["cache_hits"], (agg.counts(), stats)
    assert len(agg.jobs) == stats["total_jobs"], (agg.counts(), stats)
    print(f"aggregator matches manifest: {agg.counts()}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: check_telemetry_log.py LOG.jsonl MANIFEST.json")
    main(sys.argv[1], sys.argv[2])
