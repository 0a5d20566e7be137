"""Telemetry spine: span tracing, metrics registry, phase accounting.

Three process-global singletons — :data:`TRACER`, :data:`METRICS`,
:data:`PHASES` — shared by every instrumented module. All three are
disabled by default and cost one attribute check per call site when
off, so the hot path is unchanged and transcripts stay byte-identical
whether telemetry is on or off (nothing here touches RNG state or wire
messages).

Enable via :func:`configure`, the ``REPRO_TELEMETRY`` environment
variable (read once at import), or the ``--telemetry`` CLI flags.
Worker-process telemetry is *not* inherited from the environment: the
pool wraps jobs explicitly (``pool._run_traced_job``) and ships events
and metric snapshots back through the ``AsyncJob`` result, merged here
by :func:`merge_worker_payload`.

This package imports nothing from the rest of ``repro`` at module
scope, so any module — including ``repro/__init__`` itself — can import
it without cycles.
"""

from __future__ import annotations

import os

from .metrics import (
    HISTOGRAM_BOUNDS,
    MetricsRegistry,
    prometheus_to_snapshot,
    snapshot_to_prometheus,
)
from .phases import PHASE_NAMES, PhaseClock
from .trace import (
    Tracer,
    now_us,
    read_trace_events,
    validate_trace_events,
)

__all__ = [
    "TRACER",
    "METRICS",
    "PHASES",
    "PHASE_NAMES",
    "HISTOGRAM_BOUNDS",
    "MetricsRegistry",
    "PhaseClock",
    "Tracer",
    "configure",
    "enabled",
    "merge_worker_payload",
    "now_us",
    "prometheus_to_snapshot",
    "read_trace_events",
    "record_frame",
    "section",
    "snapshot_to_prometheus",
    "validate_trace_events",
]

TRACER = Tracer()
METRICS = MetricsRegistry()
PHASES = PhaseClock()


def configure(enabled: bool) -> None:
    """Turn tracing and metrics on or off for this process."""
    TRACER.enabled = bool(enabled)
    METRICS.enabled = bool(enabled)


def enabled() -> bool:
    return TRACER.enabled


class _Section:
    """A phase bucket + trace span entered and exited together."""

    __slots__ = ("_phase", "_span")

    def __init__(self, phase, span_cm):
        self._phase = phase
        self._span = span_cm

    def __enter__(self):
        self._phase.__enter__()
        self._span.__enter__()
        return self

    def __exit__(self, *exc):
        self._span.__exit__(*exc)
        self._phase.__exit__(*exc)
        return False


from .trace import _NULL_SPAN  # noqa: E402  (no-op singleton, shared)


def section(phase_name: str, span_name: str | None = None, **args):
    """Attribute a code block to a decomposition phase and trace it.

    The phase charge only lands if the calling thread has an open
    :class:`PhaseClock` window; the span only records if tracing is
    enabled. Disabled entirely, this is the shared no-op.
    """
    if not TRACER.enabled:
        return _NULL_SPAN
    phase = PHASES.phase(phase_name)
    span_cm = TRACER.span(span_name, **args) if span_name else _NULL_SPAN
    return _Section(phase, span_cm)


def record_frame(direction: str, frame: bytes) -> None:
    """Count one wire frame by direction and decoded message format."""
    if not METRICS.enabled:
        return
    from repro.network.serialize import frame_format_name

    fmt = frame_format_name(frame)
    METRICS.counter("transport_frames_total", dir=direction, format=fmt).inc()
    METRICS.counter("transport_bytes_total", dir=direction, format=fmt).inc(
        len(frame)
    )


def merge_worker_payload(payload) -> None:
    """Fold a worker's ``(trace_events, metrics_snapshot)`` into ours."""
    if not payload:
        return
    events, snapshot = payload
    TRACER.ingest(events)
    METRICS.merge(snapshot)


if os.environ.get("REPRO_TELEMETRY", "").strip().lower() in {"1", "true", "on"}:
    configure(True)
