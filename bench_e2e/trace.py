"""Timing wrappers the benchmark installs around repro's public callables.

The traced run rebinds each callable of :data:`WRAP_TABLE` to a wrapper
that records a span ``[layer, start, end, parent, operation, weight]`` in
memory; nothing inside ``src/`` changes and ``repro.telemetry`` stays off.
A layer's self time is its spans' duration minus what their child spans
cover, so the layers of one operation sum to at most its wall time.
Spans are kept per thread (the parent index points into the same
thread's list) and written out only when the run asks for it.

Work inside pool worker processes is invisible from here: the wrappers
switch themselves off in forked children, and mint internals are
attributed through the ``infer_*`` workloads instead.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

RECV_WAIT = "network.recv_wait"  # blocked in recv: waiting, not self time


def _frame_bytes(args, kwargs):
    return None, len(args[1])


def _recv_layer(args, kwargs):
    blocking = kwargs.get("wait", args[1] if len(args) > 1 else True)
    return (RECV_WAIT if blocking else None), 0


# module:qualname -> layer, each callable once. An optional third field
# inspects the call: it may override the layer and give the span a weight.
WRAP_TABLE: tuple[tuple, ...] = (
    ("repro.he.bfv:BfvContext.keygen", "he.keygen"),
    ("repro.he.bfv:BfvContext.galois_keygen", "he.keygen"),
    ("repro.he.bfv:BfvContext.encrypt", "he.encdec"),
    ("repro.he.bfv:BfvContext.decrypt", "he.encdec"),
    ("repro.he.linear:HomomorphicLinearEvaluator.matvec", "he.matvec"),
    ("repro.he.bfv:BfvContext.sub_plain", "he.matvec"),
    ("repro.gc.garble:Garbler.garble_batch", "gc.garble"),
    ("repro.gc.garble:Garbler.encode_inputs", "gc.garble"),
    ("repro.gc.garble:Garbler.decode_output_labels", "gc.garble"),
    ("repro.gc.evaluate:Evaluator.evaluate_batch", "gc.evaluate"),
    ("repro.gc.evaluate:Evaluator.decode", "gc.evaluate"),
    ("repro.ot.extension:iknp_transfer", "ot.iknp"),
    ("repro.network.serialize:serialize_field_vector", "network.serialize"),
    ("repro.network.serialize:deserialize_field_vector", "network.serialize"),
    ("repro.network.serialize:serialize_ciphertext", "network.serialize"),
    ("repro.network.serialize:deserialize_ciphertext", "network.serialize"),
    ("repro.network.serialize:serialize_public_key", "network.serialize"),
    ("repro.network.serialize:deserialize_public_key", "network.serialize"),
    ("repro.network.serialize:serialize_galois_keys", "network.serialize"),
    ("repro.network.serialize:deserialize_galois_keys", "network.serialize"),
    ("repro.network.serialize:serialize_bit_vector", "network.serialize"),
    ("repro.network.serialize:deserialize_bit_vector", "network.serialize"),
    ("repro.network.serialize:serialize_labels", "network.serialize"),
    ("repro.network.serialize:deserialize_labels", "network.serialize"),
    ("repro.network.serialize:serialize_label_lists", "network.serialize"),
    ("repro.network.serialize:deserialize_label_lists", "network.serialize"),
    ("repro.network.serialize:serialize_circuit_batch", "network.serialize"),
    ("repro.network.serialize:deserialize_circuit_batch", "network.serialize"),
    ("repro.network.transport:InMemoryTransport.send", "network.send", _frame_bytes),
    ("repro.network.transport:InMemoryTransport.recv", "network.send"),
    ("repro.network.transport:SocketTransport.send", "network.send", _frame_bytes),
    ("repro.network.transport:SocketTransport.flush", "network.send"),
    ("repro.network.transport:SocketTransport.recv", "network.send", _recv_layer),
    ("repro.runtime.store:PrecomputeStore.put", "store.io"),
    ("repro.runtime.store:PrecomputeStore.get", "store.io"),
    ("repro.runtime.store:PrecomputeStore.take", "store.io"),
    ("repro.runtime.store:PrecomputeStore.delete", "store.io"),
    ("repro.runtime.store:serialize_offline_transcript", "store.codec"),
    ("repro.runtime.store:deserialize_offline_transcript", "store.codec"),
    ("repro.core.protocol:split_offline_state", "store.codec"),
    ("repro.runtime.pool:PrecomputePool.apply_async", "pool.submit"),
    ("repro.runtime.pool:_PoolJob.get", "pool.wait"),
    ("repro.crypto.modmath:matvec_mod", "core.linear"),
    ("repro.core.lowering:lower_network", "core.lowering"),
    ("repro.core.session:ProtocolSession.step", "core.session"),
)


def resolve(target: str):
    """``module:qualname`` -> (owner object, attribute name, raw attribute)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """In-memory span recorder plus the rebinding that feeds it."""

    def __init__(self) -> None:
        self.enabled = False
        self.operation = ""  # label the workload driver sets per operation
        self._local = threading.local()
        self._threads: list[list] = []  # every thread's span list
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def _disable(self) -> None:
        self.enabled = False

    # -- recording ----------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], [])  # (spans, open-span stack)
            with self._lock:
                self._threads.append(state[0])
            return state

    def _begin(self, layer: str, weight: int = 0):
        """Open a span on this thread; None while recording is off."""
        if not self.enabled:
            return None
        spans, stack = self._state()
        span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.operation, weight]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _end(self, span) -> None:
        if span is not None:
            span[2] = time.perf_counter()
            self._state()[1].pop()

    def _wrap(self, fn, layer: str, inspect):
        tracer, begin, end = self, self._begin, self._end

        def traced(*args, **kwargs):
            if not tracer.enabled:  # dormant: pool workers, end-of-run checks
                return fn(*args, **kwargs)
            name, weight = layer, 0
            if inspect is not None:
                override, weight = inspect(args, kwargs)
                name = override or layer
            span = begin(name, weight)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span the benchmark opens itself (an operation's root)."""
        span = self._begin(layer)
        try:
            yield
        finally:
            self._end(span)

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every table entry, and every by-name import of it."""
        os.register_at_fork(after_in_child=self._disable)  # pool workers: off
        for target, layer, *rest in WRAP_TABLE:
            owner, attr, raw = resolve(target)
            inspect = rest[0] if rest else None
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(raw.__func__, layer, inspect))
            else:
                wrapper = self._wrap(raw, layer, inspect)
            self._rebind(owner, attr, raw, wrapper)
            if isinstance(owner, type(sys)):
                # `from x import f` copies: rebind in every repro module.
                for name, module in list(sys.modules.items()):
                    if (
                        name.startswith("repro.")
                        and module is not owner
                        and vars(module).get(attr) is raw
                    ):
                        self._rebind(module, attr, raw, wrapper)

    def _rebind(self, owner, attr, raw, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def mark(self) -> list[int]:
        """Position in every thread's span list (pair with :meth:`since`)."""
        with self._lock:
            return [len(spans) for spans in self._threads]

    def since(self, mark: list[int]) -> list[list]:
        """Per-thread span lists recorded after ``mark`` (closed spans only)."""
        with self._lock:
            threads = list(self._threads)
        out = []
        for i, spans in enumerate(threads):
            start = mark[i] if i < len(mark) else 0
            out.append((start, spans[start:]))
        return out

    def write(self, path: str) -> None:
        with self._lock:
            threads = list(self._threads)
        rows = [
            {"thread": t, "index": i, "layer": s[0], "start": s[1], "end": s[2],
             "parent": s[3], "operation": s[4], "weight": s[5]}
            for t, spans in enumerate(threads)
            for i, s in enumerate(spans)
        ]
        with open(path, "w") as out:
            json.dump(rows, out)


def span_cost(calls: int = 5000) -> float:
    """Seconds one recorded span adds to a call, measured here and now."""
    recorder = Tracer()
    probe = recorder._wrap(int, "probe", None)
    elapsed = []
    for recorder.enabled in (False, True):
        start = time.perf_counter()
        for _ in range(calls):
            probe()
        elapsed.append(time.perf_counter() - start)
    return max(0.0, elapsed[1] - elapsed[0]) / calls


def layer_totals(windows) -> dict[str, dict[str, float]]:
    """Exclusive seconds, calls, weight and weighted calls per layer.

    A span whose parent lies before the window is treated as a root, so a
    window taken between operations attributes exactly its own spans.
    """
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "weight": 0, "weighted": 0}
    )
    for start, spans in windows:
        covered = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - start
            if parent >= 0 and span[2]:
                covered[parent] += span[2] - span[1]
        for span, child_s in zip(spans, covered):
            if not span[2]:
                continue  # still open (another thread, mid-call)
            row = totals[span[0]]
            row["self_s"] += (span[2] - span[1]) - child_s
            row["calls"] += 1
            row["weight"] += span[5]
            row["weighted"] += 1 if span[5] else 0
    return dict(totals)
