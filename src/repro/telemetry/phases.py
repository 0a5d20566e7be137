"""Exclusive-time phase accounting for latency decomposition.

A :class:`PhaseClock` window answers "where did this wall-clock interval
go" with buckets that sum *exactly* to the window's duration: queue /
store / he_linear / gc / ot / wire. It works like a tiny sampling-free
profiler — a per-thread phase stack where entering a phase accrues the
elapsed time since the last transition to the *previous* stack top, and
leaving accrues to the phase being popped. Time not claimed by any
phase lands in the root bucket (``wire`` by convention: serialization,
framing, socket writes, and scheduler glue are the residue of a serving
window once compute and waiting are attributed).

Windows are per-thread (thread-local), opened only by the serving
driver (``ServingGateway.serve``) when telemetry is on;
``phase()`` is safe to call unconditionally from any thread — without
an open window on that thread it returns a shared no-op.
"""

from __future__ import annotations

import threading
import time

__all__ = ["PhaseClock", "PHASE_NAMES"]

# The decomposition taxonomy. "queue" = selector/scheduler waits,
# "store" = precompute store I/O, the three protocol buckets are the
# cryptographic phases, "wire" = root/residue (framing + transport).
PHASE_NAMES = ("queue", "store", "he_linear", "gc", "ot", "wire")


class _NullPhase:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class _Window:
    __slots__ = ("stack", "totals", "mark")

    def __init__(self, root: str):
        self.stack = [root]
        self.totals: dict[str, float] = {}
        self.mark = time.perf_counter()

    def _accrue(self, name: str, now: float) -> None:
        elapsed = now - self.mark
        self.mark = now
        if elapsed > 0.0:
            self.totals[name] = self.totals.get(name, 0.0) + elapsed


class _Phase:
    __slots__ = ("_window", "_name")

    def __init__(self, window: _Window, name: str):
        self._window = window
        self._name = name

    def __enter__(self):
        window = self._window
        now = time.perf_counter()
        window._accrue(window.stack[-1], now)
        window.stack.append(self._name)
        return self

    def __exit__(self, *exc):
        window = self._window
        now = time.perf_counter()
        window._accrue(window.stack[-1], now)
        if len(window.stack) > 1:
            window.stack.pop()
        return False


class WindowHandle:
    """Caller-facing handle; ``close()`` returns the totals dict."""

    __slots__ = ("_clock", "_window")

    def __init__(self, clock: "PhaseClock", window: _Window):
        self._clock = clock
        self._window = window

    def close(self) -> dict[str, float]:
        """Close the window; totals sum exactly to its wall-clock."""
        window = self._window
        now = time.perf_counter()
        # Accrue the tail to whatever is still open, unwinding to root.
        while len(window.stack) > 1:
            window._accrue(window.stack.pop(), now)
        window._accrue(window.stack[0], now)
        if getattr(self._clock._local, "window", None) is window:
            self._clock._local.window = None
        return dict(window.totals)


class PhaseClock:
    """Thread-local exclusive-time windows with a push/pop phase stack."""

    def __init__(self):
        self._local = threading.local()

    def open_window(self, root: str = "wire") -> WindowHandle:
        if getattr(self._local, "window", None) is not None:
            raise RuntimeError("a phase window is already open on this thread")
        window = _Window(root)
        self._local.window = window
        return WindowHandle(self, window)

    def phase(self, name: str):
        """Enter a phase if a window is open on this thread; no-op if not."""
        window = getattr(self._local, "window", None)
        if window is None:
            return _NULL_PHASE
        return _Phase(window, name)
