"""Span tracer exporting Chrome-trace-event JSONL (Perfetto-loadable).

The tracer records *complete* events (``ph: "X"``) with microsecond
monotonic timestamps, the recording process id, and a track id: either
the real OS thread id (for atomic leaf spans — HE/GC/OT primitives,
store operations, gateway steps) or a synthetic *virtual track* (for
logical spans that interleave on one real thread, such as resumable
session phases or per-connection request windows). Virtual tracks start
at ``1 << 24`` — above Linux's pid_max ceiling of ``2**22`` — so they
can never collide with a real thread id, and each gets a
``thread_name`` metadata event so Perfetto labels the lane.

Every event carries ``ts``/``dur``/``pid``/``tid`` (``dur`` 0 for
instants and metadata), which is the schema contract
:func:`validate_trace_events` enforces, along with proper nesting of
complete events per ``(pid, tid)`` lane.

When disabled, every API returns a shared no-op singleton: no
allocation, no locking, no timestamps — the hot path pays one attribute
check.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = [
    "Tracer",
    "TimedSpan",
    "now_us",
    "read_trace_events",
    "validate_trace_events",
]

# First synthetic track id. Linux pid_max is capped at 2**22, so real
# thread ids (used directly as trace tids) always stay below this.
_VIRTUAL_TRACK_BASE = 1 << 24

_REQUIRED_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")


def now_us() -> int:
    """Microseconds on the system-wide monotonic clock.

    ``CLOCK_MONOTONIC`` is shared across processes on Linux, so events
    recorded inside pool workers land on the same timeline as the
    parent's when merged.
    """
    return time.monotonic_ns() // 1000


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live ``ph: "X"`` span; records on exit."""

    __slots__ = ("_tracer", "_name", "_tid", "_args", "_start_us")

    def __init__(self, tracer, name, tid, args):
        self._tracer = tracer
        self._name = name
        self._tid = tid
        self._args = args
        self._start_us = 0

    def __enter__(self):
        self._start_us = now_us()
        return self

    def __exit__(self, *exc):
        self._tracer._record(
            self._name, self._start_us, now_us(), self._tid, self._args
        )
        return False


class TimedSpan:
    """A span that always measures wall time into ``.seconds``.

    Used where a ``ServingReport`` field needs the duration: the
    ``perf_counter`` measurement happens whether or not tracing is
    enabled (keeping report values semantically identical either way);
    the trace event is only recorded when enabled.
    """

    __slots__ = ("_tracer", "_name", "_tid", "_args", "_start", "_start_us",
                 "seconds")

    def __init__(self, tracer, name, tid, args):
        self._tracer = tracer
        self._name = name
        self._tid = tid
        self._args = args
        self._start = 0.0
        self._start_us = 0
        self.seconds = 0.0

    def __enter__(self):
        if self._tracer is not None:
            self._start_us = now_us()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        if self._tracer is not None:
            self._tracer._record(
                self._name, self._start_us, now_us(), self._tid, self._args
            )
        return False


class Tracer:
    """Process-local trace-event buffer with a global enable flag."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._pid = os.getpid()
        self._next_track = _VIRTUAL_TRACK_BASE
        self._track_seq = 0

    # -- recording -------------------------------------------------------------

    def _record(self, name, start_us, end_us, tid, args):
        event = {
            "name": name,
            "ph": "X",
            "ts": start_us,
            "dur": max(0, end_us - start_us),
            "pid": self._pid,
            "tid": tid if tid is not None else threading.get_native_id(),
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def span(self, name: str, track: int | None = None, **args):
        """Context manager recording a complete event around its body."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, track, args)

    def timed_span(self, name: str, track: int | None = None, **args):
        """A span whose ``.seconds`` is measured even when disabled."""
        return TimedSpan(self if self.enabled else None, name, track, args)

    def emit_since(self, name: str, start_us: int, tid: int | None = None,
                   **args) -> None:
        """Record a complete event from a caller-held start timestamp."""
        if not self.enabled:
            return
        self._record(name, start_us, now_us(), tid, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration instant event (``ph: "i"``)."""
        if not self.enabled:
            return
        event = {
            "name": name,
            "ph": "i",
            "ts": now_us(),
            "dur": 0,
            "pid": self._pid,
            "tid": threading.get_native_id(),
            "s": "t",
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def new_track(self, label: str) -> int:
        """Allocate a fresh virtual track and name its Perfetto lane."""
        with self._lock:
            tid = self._next_track
            self._next_track += 1
            self._track_seq += 1
            seq = self._track_seq
            if self.enabled:
                self._events.append({
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "dur": 0,
                    "pid": self._pid,
                    "tid": tid,
                    "args": {"name": f"{label}#{seq}"},
                })
        return tid

    # -- buffer management -----------------------------------------------------

    def drain(self) -> list[dict]:
        """Remove and return all buffered events."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def ingest(self, events) -> None:
        """Merge events recorded elsewhere (e.g. a pool worker)."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def export_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the event count."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True))
                fh.write("\n")
        return len(events)

    def reset(self) -> None:
        """Clear the buffer and re-cache the pid (after fork)."""
        with self._lock:
            self._events = []
            self._pid = os.getpid()
            self._next_track = _VIRTUAL_TRACK_BASE
            self._track_seq = 0


# -- trace-file schema validation -------------------------------------------------


def read_trace_events(path) -> list[dict]:
    """Parse a JSONL trace file into a list of event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}")
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: event is not an object")
            events.append(event)
    return events


def validate_trace_events(events) -> int:
    """Check the schema contract; returns the event count.

    Every event must carry ``name``/``ph``/``ts``/``dur``/``pid``/
    ``tid`` with non-negative integer timestamps, and complete events
    must nest properly per ``(pid, tid)`` lane: sorted by start time, a
    span may sit inside the enclosing span or after it, never partially
    overlapping. Raises ``ValueError`` on the first violation.
    """
    lanes: dict[tuple, list] = {}
    for i, event in enumerate(events):
        for key in _REQUIRED_KEYS:
            if key not in event:
                raise ValueError(f"event {i} ({event.get('name')!r}): "
                                 f"missing {key!r}")
        for key in ("ts", "dur", "pid", "tid"):
            value = event[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"event {i} ({event['name']!r}): "
                                 f"{key}={value!r} is not an int")
            if value < 0:
                raise ValueError(f"event {i} ({event['name']!r}): "
                                 f"{key}={value!r} is negative")
        if event["ph"] == "X":
            lanes.setdefault((event["pid"], event["tid"]), []).append(event)

    for (pid, tid), lane in lanes.items():
        # Longest-first at equal start times, so a parent precedes the
        # children it encloses.
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[int] = []  # end timestamps of open spans
        for event in lane:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and stack[-1] <= start:
                stack.pop()
            if stack and end > stack[-1]:
                raise ValueError(
                    f"lane pid={pid} tid={tid}: span {event['name']!r} "
                    f"[{start}, {end}) overlaps its enclosing span "
                    f"(open until {stack[-1]})"
                )
            stack.append(end)
    return len(events)
