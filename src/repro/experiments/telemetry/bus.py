"""The telemetry bus: publish typed events, fan out to pluggable sinks.

A :class:`TelemetryBus` is a tiny synchronous fan-out: producers call
:meth:`~TelemetryBus.publish` with a :class:`TelemetryEvent`, the bus stamps
the event's monotonic ``t`` timestamp (unless the producer already set one)
and hands it to every attached sink in attachment order.  Sinks are small
objects with an ``emit(event)`` method; this module ships the standard set:

* :class:`JsonlSink` — append canonical-JSON frames to a file
  (``--telemetry-log run.jsonl``); the file replays via :func:`read_events`;
* :class:`SocketSink` — a localhost TCP broadcast server; the dashboard (and
  any other consumer) connects and receives every event as a newline frame,
  including a replay of history on attach so late subscribers see the full
  run;
* :class:`CountingSink` — per-event-name counters (benchmarks, smoke tests);
* :class:`CallbackSink` — call a plain function with each event (how
  :func:`~repro.experiments.campaign.run_campaign` serves its callback).

The process-wide default bus (:func:`global_bus`) is the one event path of a
campaign run: the engine, the executors and the dispatcher publish to it and
to nothing else.  With no sinks attached, publishing only stamps the
timestamp, so instrumented code pays almost nothing when telemetry is off.
All bus and sink operations are thread-safe — executors publish from worker threads and
the dispatcher from its own event-loop thread.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import replace
from pathlib import Path
from typing import IO, Any, Protocol

from repro.experiments.telemetry.events import ArtifactSaved, TelemetryEvent
from repro.experiments.wire import decode_frame, encode_frame

__all__ = [
    "TelemetrySink",
    "TelemetryBus",
    "JsonlSink",
    "SocketSink",
    "CountingSink",
    "CallbackSink",
    "ConsoleSink",
    "global_bus",
    "read_events",
]


class TelemetrySink(Protocol):
    """Anything with an ``emit``: receives each published event, in order."""

    def emit(self, event: TelemetryEvent) -> None: ...


class TelemetryBus:
    """Synchronous fan-out of telemetry events to attached sinks.

    ``clock`` is the monotonic time source used to stamp events; tests
    inject a fake for deterministic timestamps.  A sink that raises does not
    stop delivery to the remaining sinks — telemetry must never take down
    the run it observes — but the first failure per sink is re-raised once
    the fan-out completes so tests surface broken sinks.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._sinks: list[TelemetrySink] = []
        self._lock = threading.Lock()

    def attach(self, sink: TelemetrySink) -> TelemetrySink:
        """Attach a sink; returns it so ``bus.attach(JsonlSink(...))`` chains."""
        with self._lock:
            self._sinks.append(sink)
        return sink

    def detach(self, sink: TelemetrySink) -> None:
        """Remove a sink; unknown sinks are ignored (idempotent teardown)."""
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    @property
    def sink_count(self) -> int:
        with self._lock:
            return len(self._sinks)

    def publish(self, event: TelemetryEvent) -> TelemetryEvent:
        """Stamp ``t`` (if unset) and deliver to every sink; returns the event."""
        if event.t == 0.0:
            event = replace(event, t=self._clock())
        with self._lock:
            sinks = tuple(self._sinks)
        if not sinks:
            return event
        failure: BaseException | None = None
        for sink in sinks:
            try:
                sink.emit(event)
            except BaseException as exc:  # noqa: BLE001 - isolate sink faults
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        return event


# -- the process-wide default bus ----------------------------------------------------

_GLOBAL_BUS = TelemetryBus()


def global_bus() -> TelemetryBus:
    """The process-wide bus the executors and dispatcher publish to.

    Pool worker processes get a fresh, sinkless bus (module state does not
    survive the process boundary), so children never double-report; their
    results surface as events published by the parent's executor.
    """
    return _GLOBAL_BUS


# -- sinks ---------------------------------------------------------------------------


class JsonlSink:
    """Append each event to a file as one canonical-JSON line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[bytes] = open(self.path, "ab")
        self._lock = threading.Lock()
        self.events_written = 0

    def emit(self, event: TelemetryEvent) -> None:
        frame = encode_frame(event)
        with self._lock:
            self._handle.write(frame)
            self._handle.flush()
            self.events_written += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class CountingSink:
    """Count events by legacy short name; cheap enough for benchmarks."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def emit(self, event: TelemetryEvent) -> None:
        with self._lock:
            self.counts[event.EVENT] += 1

    def total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self.counts.items()))

    def reset(self) -> None:
        with self._lock:
            self.counts.clear()


class CallbackSink:
    """Call a plain function with each event (typed, read by attribute)."""

    def __init__(self, callback: Callable[[Any], None]) -> None:
        self._callback = callback

    def emit(self, event: TelemetryEvent) -> None:
        self._callback(event)


class ConsoleSink:
    """Human-oriented one-line-per-event rendering to a text stream."""

    def __init__(self, stream: IO[str], *, verbose: bool = False) -> None:
        self._stream = stream
        self._verbose = verbose
        self._lock = threading.Lock()

    def emit(self, event: TelemetryEvent) -> None:
        name = event.EVENT
        if isinstance(event, ArtifactSaved):
            # The runner's historical stderr contract.
            with self._lock:
                print(f"[saved {event.path}]", file=self._stream, flush=True)
            return
        if not self._verbose and name not in (
            "run-started",
            "run-finished",
            "job-failed",
        ):
            return
        detail = " ".join(
            f"{key}={value}"
            for key, value in sorted(event.as_dict().items())
            if key not in ("TypeName", "Version", "t", "metrics")
        )
        with self._lock:
            print(f"[{name}] {detail}", file=self._stream, flush=True)


class _BroadcastHandler(socketserver.StreamRequestHandler):
    """Per-subscriber connection: replay history, then stream live frames."""

    def handle(self) -> None:
        sink: SocketSink = self.server.telemetry_sink  # type: ignore[attr-defined]
        send = self.connection.sendall
        with sink._lock:
            history = b"".join(sink._history)
            sink._subscribers[self.connection] = send
        try:
            if history:
                send(history)
            # Hold the connection open until the client hangs up or the
            # sink closes; frames arrive via the subscriber registry.
            while not sink._closed.is_set():
                data = self.connection.recv(1024)
                if not data:
                    break
        except OSError:
            pass
        finally:
            with sink._lock:
                sink._subscribers.pop(self.connection, None)


class _BroadcastServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class SocketSink:
    """Localhost TCP broadcast of the event stream, one frame per line.

    Every event is appended to an in-memory history and pushed to all
    connected subscribers; a subscriber that attaches mid-run first receives
    the full history, so the dashboard can join late and still render every
    job.  Slow or dead subscribers are dropped rather than allowed to stall
    the publishing thread.
    """

    SEND_TIMEOUT_S = 2.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = _BroadcastServer((host, port), _BroadcastHandler)
        self._server.telemetry_sink = self  # type: ignore[attr-defined]
        self._history: list[bytes] = []
        self._subscribers: dict[socket.socket, Callable[[bytes], None]] = {}
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="telemetry-socket-sink",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def port(self) -> int:
        return self.address[1]

    def emit(self, event: TelemetryEvent) -> None:
        frame = encode_frame(event)
        with self._lock:
            self._history.append(frame)
            stale: list[socket.socket] = []
            for conn, send in self._subscribers.items():
                try:
                    conn.settimeout(self.SEND_TIMEOUT_S)
                    send(frame)
                except OSError:
                    stale.append(conn)
            for conn in stale:
                self._subscribers.pop(conn, None)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        with self._lock:
            for conn in list(self._subscribers):
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._subscribers.clear()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "SocketSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- replay --------------------------------------------------------------------------


def read_events(source: str | Path | Iterable[bytes]) -> Iterator[TelemetryEvent]:
    """Decode a JSON-lines telemetry log back into typed events.

    ``source`` is a path to a ``run.jsonl`` file or any iterable of frame
    lines (e.g. a socket file object).  Non-telemetry frames raise
    :class:`~repro.experiments.wire.MalformedMessage` via the shared decode
    path; blank lines are skipped.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from read_events(handle)
        return
    for line in source:
        line = line.strip()
        if not line:
            continue
        event = decode_frame(line)
        if not isinstance(event, TelemetryEvent):
            raise TypeError(
                f"frame decodes to {type(event).__name__}, not a telemetry event"
            )
        yield event
