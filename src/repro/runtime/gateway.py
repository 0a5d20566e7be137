"""Concurrent serving gateway: many live sockets, background refill workers.

:class:`~repro.runtime.serving.ServingLoop` keeps mint and serve strictly
serialized on one thread. This module overlaps them in wall-clock, in
the deployment shape the paper's client/server characterization assumes:

* **Accept loop** — a :class:`ServingGateway` owns one selectors-based
  loop (single thread, many non-blocking
  :class:`~repro.network.transport.SocketTransport`\\ s) hosting one
  :class:`~repro.core.session.ServerSession` per connected client socket
  and multiplexing them at message granularity. The session/transport
  split (resumable ``step()`` state machines over length-prefixed frames)
  was built exactly for this; the gateway is the first thing to exploit
  it concurrently.
* **Background refill** — mints leave the serving thread entirely: a
  refill driver thread submits whole offline-mint jobs through
  :meth:`~repro.runtime.pool.PrecomputePool.apply_async`, so the
  hash-bound garbling runs in pool worker *processes* while the
  selector thread serves online requests. On a multi-core host the
  online CPU work and the offline garbling genuinely overlap, and
  ``throughput_rps`` rises accordingly (the report's
  ``refill_overlap_seconds`` measures the overlap window).
* **Demand-driven prioritization** — refill order follows expected time
  to miss: per-client consumption counters estimate each client's drain
  rate, and the client whose buffer will run dry first is refilled first
  (GrASP's demand-driven prefetching, applied to the offline phase;
  skewed clients get proportionally more mint slots, JSPIM-style).

Wire protocol: a *connection* and a *request* are distinct objects. The
client sends one HELLO frame naming its ``client_id``, then issues any
number of REQ frames over the same socket; each admitted REQ is answered
with an OFFER — either a buffered precompute (the stored offline
transcript, split per role via
:func:`~repro.core.protocol.split_offline_state` on both ends) followed
directly by the online phase, or a miss, in which case both parties run
the full offline phase over the wire (the demand-mint penalty, paid on
the request's critical path and multiplexed with the other live
sessions) — and acknowledged with a DONE frame once the logits' final
share has shipped. Admission is queue-depth aware: when the refill
backlog (held WAIT_STORE offers + owed/in-flight refill mints) crosses
``max_queue``, a REQ is *deferred* with a BUSY{retry_after} frame the
client honors by backing off and re-issuing, or — past
``max_request_deferrals`` consecutive deferrals — *rejected* with a
GOAWAY frame that ends the connection. Either side may send GOAWAY to
close a connection gracefully. The server-side
:class:`~repro.core.session.ServerSession` is connection-scoped and
recycled between requests via ``reset_for_request()``; a ``GWS1`` stats
probe works both as a standalone connection and mid-stream between two
requests on a live one.

This module holds the sockets, sessions and threads only. The frame
vocabulary is :mod:`repro.network.frames`; every admission and refill
decision, and the counters behind it, is the
:class:`~repro.runtime.policy.RefillLedger` the gateway calls under its
state lock; the peer is :mod:`repro.runtime.client`.

Fidelity note: on a hit the gateway ships the *whole* stored transcript
(both role halves) to the client, mirroring what
``HybridProtocol.import_offline`` does in-process. A hardened deployment
would mint and store the halves separately; this functional shortcut
demonstrates the system shape — storage drain, refill pipelines, socket
multiplexing — not a security property (see ARCHITECTURE.md).
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque

from repro.network import frames
from repro.network.transport import SocketListener, SocketTransport, TransportError
from repro.runtime.client import GatewayClient  # noqa: F401 - bench_e2e imports it here
from repro.runtime.policy import (
    DEFAULT_MAX_QUEUE,
    MAX_INFLIGHT_PER_CLIENT,
    MISS_WAIT_SECONDS,
    RefillLedger,
)
from repro.runtime.pool import PrecomputePool, mint_offline_job
from repro.runtime.serving import (
    ServedRequest,
    ServingReport,
    client_id as client_name,  # ``client_id`` is a str everywhere below
    mint_seed,
)
from repro.runtime.state import derive_worker_seed
from repro.runtime.store import KIND_OFFLINE, StoreKey
from repro.telemetry import (
    METRICS,
    PHASES,
    TRACER,
    MetricsRegistry,
    now_us,
    section,
)

# The longest an idle selector round lasts. Nothing a request waits for
# rides on it — a landed mint wakes the selector through its wake pipe —
# it only bounds how long the loop goes without checking ``serve()``'s
# ``abort`` and the held offers' deadlines.
IDLE_TICK_SECONDS = 0.05


class _Waker:
    """The selector's wake pipe: a non-blocking socketpair.

    Its read end sits in the selector, so any thread can end a
    ``select()`` at once with :meth:`wake`. A full pipe already holds a
    pending wake-up, so a write that would block is dropped; a wake after
    :meth:`close` is a no-op.
    """

    def __init__(self):
        self._recv, self._send = socket.socketpair()
        self._recv.setblocking(False)
        self._send.setblocking(False)
        self._lock = threading.Lock()  # wake() vs close() across threads
        self.closed = False

    def fileno(self) -> int:
        return self._recv.fileno()

    def wake(self) -> None:
        with self._lock:
            if self.closed:
                return
            try:
                self._send.send(b"\0")
            except BlockingIOError:
                pass  # pipe full: the selector is bound to wake anyway

    def on_event(self, mask: int) -> None:
        """Drain every pending wake byte (selector thread)."""
        try:
            while self._recv.recv(4096):
                pass
        except BlockingIOError:
            pass

    def close(self) -> None:
        with self._lock:
            self.closed = True
            self._recv.close()
            self._send.close()


class _RefillWorker(threading.Thread):
    """Background driver keeping per-client store namespaces warm.

    Keeps up to one offline-mint job per pool worker in flight through
    the shared pool's async surface and admits completed blobs into the
    store. All mint-index reservation and credit accounting lives in the
    gateway's ledger (under its state lock); this thread only schedules
    and admits. Between rounds it blocks on one event, set by a job's
    completion, by :meth:`kick` and by :meth:`stop` — never on a clock.
    """

    def __init__(self, gateway: "ServingGateway"):
        super().__init__(name="gateway-refill", daemon=True)
        self.gateway = gateway
        self.refill_seconds = 0.0  # sum of per-mint wall-clock
        self.overlap_seconds = 0.0  # union of windows with >= 1 mint in flight
        self.errors: list[tuple[int, Exception]] = []
        self._stop_evt = threading.Event()
        self._wake = threading.Event()

    def kick(self) -> None:
        self._wake.set()

    def stop(self) -> None:
        self._stop_evt.set()
        self._wake.set()

    def run(self) -> None:
        gateway = self.gateway
        limit = max(1, gateway.ledger.mint_parallelism)
        inflight: dict = {}  # AsyncJob -> (client, mint index, submit time)
        overlap_start: float | None = None
        while True:
            # Cleared before the round, so a completion, kick or stop that
            # arrives during it makes the wait below return at once. Jobs
            # are harvested before new ones are submitted: every job that
            # completed before the clear frees its slot for this round's
            # submissions, so no owed credit waits on a later completion.
            self._wake.clear()
            for job in [j for j in inflight if j.ready()]:
                c, index, t0 = inflight.pop(job)
                elapsed = time.perf_counter() - t0
                self.refill_seconds += elapsed
                try:
                    gateway._admit(c, index, job.get())
                    landed = True
                except Exception as exc:  # surfaced via gateway.check_refills()
                    landed = False
                    self.errors.append((c, exc))
                gateway._settle_refill(c, elapsed, landed)
            if not inflight and overlap_start is not None:
                self.overlap_seconds += time.perf_counter() - overlap_start
                overlap_start = None
            while len(inflight) < limit and not self._stop_evt.is_set():
                reserved = gateway._next_refill_mint()
                if reserved is None:
                    break
                c, index, seed = reserved
                t0 = time.perf_counter()
                if overlap_start is None:
                    overlap_start = t0
                job = gateway._submit_mint(seed, on_done=self._wake.set)
                inflight[job] = (c, index, t0)
            if self._stop_evt.is_set() and not inflight:
                return
            self._wake.wait()


class _Connection:
    """One live client socket: a request queue plus the protocol machine.

    State walk: ``HELLO`` (awaiting the connection's identity) → ``IDLE``
    (between requests; REQ frames queue here) → one of ``WAIT_STORE`` /
    ``OFFLINE`` / ``ONLINE`` while a request is active → back to ``IDLE``
    after the DONE frame, until a GOAWAY (either direction) or a
    transport error ends the connection.
    """

    HELLO, IDLE, WAIT_STORE, OFFLINE, ONLINE = (
        "hello", "idle", "wait-store", "offline", "online",
    )

    def __init__(self, gateway: "ServingGateway", transport: SocketTransport):
        self.gateway = gateway
        self.transport = transport
        self.session = None
        self.state = self.HELLO
        self.client_id = "?"
        self.client_index: int | None = None  # None: not one of the N served
        self.request_index = -1
        self.pending: deque[int] = deque()  # REQs queued behind the active one
        self.requests_completed = 0
        self.deferrals = 0  # consecutive BUSY replies on this connection
        self.queue_depth = 0
        self.hit = False
        self.mint_seconds = 0.0
        self.hold_seconds = 0.0  # admission -> OFFER of a WAIT_STORE hold
        self.wait_deadline = 0.0
        self.request_started = 0.0
        self._mint_start = 0.0
        self._online_start = 0.0
        self.registered_events = selectors.EVENT_READ
        # Under tracing, a per-connection virtual track carrying the
        # accept -> request* -> close spans.
        self._track: int | None = None
        self._t_accept_us: int | None = None
        self._t_request_us: int | None = None
        self._t_offline_us: int | None = None
        self._t_online_us: int | None = None
        if TRACER.enabled:
            self._track = TRACER.new_track("gateway-conn")
            self._t_accept_us = now_us()

    def on_event(self, mask: int) -> None:
        try:
            if mask & selectors.EVENT_WRITE:
                self.transport.flush()
            if mask & selectors.EVENT_READ:
                self.advance()
        except (TransportError, ValueError) as exc:
            # TransportClosed (client died mid-protocol), malformed
            # frames, stale transcripts: this session is unrecoverable,
            # the rest of the gateway must not notice.
            self.gateway._drop(self, error=exc)

    def advance(self) -> None:
        """Feed buffered frames through the state machine, never blocking."""
        from repro.core.session import DONE

        while True:
            if self.state == self.HELLO:
                frame = self.transport.recv(wait=False)
                if frame is None:
                    return
                if bytes(frame[:4]) == frames.STATS:
                    # A monitoring peer, not a protocol client: answer
                    # with a live snapshot and close. No session is
                    # created and the session seed counter never
                    # advances, so stats probes cannot perturb a serving
                    # run's transcripts.
                    self.transport.send(
                        frames.encode_stats_reply(self.gateway.stats())
                    )
                    self.gateway._drop(self, error=None)
                    return
                self.client_id = frames.decode_hello(frame)
                self.client_index = self.gateway._client_index.get(self.client_id)
                self.gateway.connections_accepted += 1
                self.state = self.IDLE
                continue
            if self.state == self.IDLE:
                frame = self.transport.recv(wait=False)
                if frame is None:
                    if not self.gateway._maybe_start(self):
                        return
                    continue  # a queued request started: run its phase
                head = bytes(frame[:4])
                if head == frames.STATS:
                    # Mid-stream probe between two requests on a live
                    # keep-alive connection: answered inline, the
                    # connection (and its recycled session) lives on.
                    self.transport.send(
                        frames.encode_stats_reply(self.gateway.stats())
                    )
                    continue
                if head == frames.GOAWAY:
                    # The client is done with this connection.
                    self.gateway._drop(self, error=None)
                    return
                self.pending.append(frames.decode_request(frame))
                self.gateway.requests_issued += 1
                self.gateway._maybe_start(self)
                if self not in self.gateway._connections:
                    return  # rejected with GOAWAY mid-admission
                continue
            if self.state == self.WAIT_STORE:
                return
            if self.state == self.OFFLINE:
                with TRACER.span(
                    "gateway.step", client=self.client_id, state=self.state
                ):
                    done = self.session.step() == DONE
                if not done:
                    return
                self.mint_seconds = time.perf_counter() - self._mint_start
                if self._t_offline_us is not None:
                    TRACER.emit_since(
                        "gateway.offline", self._t_offline_us, tid=self._track,
                        client=self.client_id,
                    )
                    self._t_offline_us = None
                self.session.start_online()
                self._online_start = time.perf_counter()
                if TRACER.enabled and self._track is not None:
                    self._t_online_us = now_us()
                self.state = self.ONLINE
                continue
            if self.state == self.ONLINE:
                with TRACER.span(
                    "gateway.step", client=self.client_id, state=self.state
                ):
                    done = self.session.step() == DONE
                if not done:
                    return
                self.gateway._complete(
                    self, time.perf_counter() - self._online_start
                )
                if self not in self.gateway._connections:
                    return  # dropped during completion
                continue
            return  # pragma: no cover - unreachable state

    def begin_request(self, taken) -> None:
        """OFFER the admitted request: adopt a precompute or go offline.

        The connection's session is created on the first request and
        recycled (``reset_for_request``) for every later one — transport,
        channel accounting, and counters stay connection-scoped.
        """
        from repro.core.session import LIFE_NEW

        self.hold_seconds = (
            time.perf_counter() - self.request_started
            if self.state == self.WAIT_STORE
            else 0.0
        )
        if self.session is None:
            self.session = self.gateway._make_session(self.transport)
        elif self.session.lifecycle != LIFE_NEW:
            self.session.reset_for_request()
        if taken is not None:
            blob, server_state = taken
            self.hit = True
            self.transport.send(frames.encode_offer(True, blob))
            self.session.load_offline_state(*server_state)
            self.session.start_online()
            self._online_start = time.perf_counter()
            if TRACER.enabled and self._track is not None:
                self._t_online_us = now_us()
            self.state = self.ONLINE
        else:
            # Miss: the demand mint runs over the wire, on this request's
            # critical path, multiplexed with the other sessions — the
            # measured miss penalty.
            self.transport.send(frames.encode_offer(False))
            self._mint_start = time.perf_counter()
            if TRACER.enabled and self._track is not None:
                self._t_offline_us = now_us()
            self.session.start_offline()
            self.state = self.OFFLINE


class ServingGateway:
    """A concurrent serving gateway over real sockets.

    One selector thread hosts every connected client's
    :class:`~repro.core.session.ServerSession`; one refill driver thread
    keeps per-client store namespaces warm through the pool's async
    surface. Lifecycle::

        gateway = ServingGateway(network, params, num_clients, store, pool=pool)
        gateway.start()              # prefill, bind listener, start refill
        ... clients connect to gateway.port (request_inference) ...
        gateway.serve(total)         # selector loop until `total` served
        gateway.stop()
        report = gateway.report()    # ServingReport with overlap accounting

    Client names, mint seeds and store keys are
    :class:`~repro.runtime.serving.ServingLoop`'s (one shared
    definition), which is what makes gateway-served logits comparable
    against the loop's sequential reference. ``expected_per_client``
    caps refills so a bounded run mints exactly as many precomputes as
    the serialized drain would.
    """

    def __init__(
        self,
        network,
        params,
        num_clients: int,
        store,
        pool=None,
        garbler: str = "client",
        prefill: int = 1,
        refill: bool = True,
        base_seed: int = 0,
        model_id: str = "serving",
        truncate_bits: int = 0,
        host: str = "127.0.0.1",
        expected_per_client: int | list[int] | None = None,
        max_queue: int | None = None,
        max_request_deferrals: int | None = None,
    ):
        if num_clients < 1:
            raise ValueError("need at least one client")
        self.network = network
        self.params = params
        self.num_clients = num_clients
        self.store = store
        self.garbler = garbler
        self.prefill = prefill
        self.base_seed = base_seed
        self.model_id = model_id
        self.truncate_bits = truncate_bits
        self.host = host
        if pool is None:
            pool = self._own_pool = PrecomputePool()
        else:
            self._own_pool = None
        self.pool = pool
        # Every admission and refill decision and the counters behind it,
        # shared with the analytic replay; guarded by _state_lock. The
        # refill cap is one scalar for uniform drains, or one cap per
        # client for skewed schedules with unequal request counts.
        self._state_lock = threading.Lock()
        # Notified whenever a refill mint lands or fails (drain_refills).
        self._refills_settled = threading.Condition(self._state_lock)
        self.ledger = RefillLedger(
            num_clients,
            caps=expected_per_client,
            refill=refill,
            max_queue=DEFAULT_MAX_QUEUE if max_queue is None else max(0, max_queue),
            mint_parallelism=pool.workers,
        )

        from repro.core.lowering import lower_network
        from repro.core.session import ServerSession

        # One weight-bearing lowering and one (public) circuit topology,
        # shared by every connection's session — per-request setup cost
        # stays at session construction, not network lowering.
        self.lowered = lower_network(
            network, params.t, backend=params.backend
        )
        self._session_cls = ServerSession
        template = ServerSession(
            network,
            params=params,
            garbler=garbler,
            seed=0,
            truncate_bits=truncate_bits,
            lowered=self.lowered,
        )
        self.params = template.params  # None resolved to the default set
        self._circuit = template.relu_circuit()
        self._client_index = {self.client_id(c): c for c in range(num_clients)}

        self._served: list = []
        self._occupancy: list[dict] = []
        self.dropped_sessions = 0
        self.peak_live_sessions = 0
        self.prefill_seconds = 0.0
        self.serve_seconds = 0.0
        self._serve_start: float | None = None
        self._session_counter = 0
        self._evictions_before = store.evictions
        self._connections: set[_Connection] = set()
        self._waiting: set[_Connection] = set()  # WAIT_STORE holders
        self.max_request_deferrals = max_request_deferrals
        # Admission ledger: every REQ frame received is *issued* and gets
        # exactly one of OFFER (admitted), BUSY (deferred), or GOAWAY
        # (rejected) — clean runs balance admitted+deferred+rejected ==
        # issued. All four mutate only on the selector thread.
        self.connections_accepted = 0
        self.requests_issued = 0
        self.requests_admitted = 0
        self.requests_deferred = 0
        self.requests_rejected = 0
        self._inflight: dict[str, int] = {}  # active requests per client
        self.listener: SocketListener | None = None
        self._selector = None
        self._waker: _Waker | None = None
        self._refill_worker: _RefillWorker | None = None
        # Request-granularity latency histograms for the live stats
        # surface. Always on — decoupled from the global telemetry flag,
        # so GWS1 stats work without --telemetry; observations happen
        # once per completed request, never on the per-message hot path.
        self._stats_registry = MetricsRegistry(enabled=True)
        # Exclusive-time decomposition accumulated across serve() windows.
        self._phase_totals: dict[str, float] = {}

    # -- identity ---------------------------------------------------------------

    client_id = staticmethod(client_name)

    def mint_seed(self, client_index: int, mint_index: int) -> int:
        return mint_seed(self.base_seed, client_index, mint_index)

    def store_key(self, client_id: str) -> StoreKey:
        return StoreKey.for_protocol(self.model_id, self.params, client_id)

    @property
    def port(self) -> int:
        if self.listener is None:
            raise RuntimeError("gateway not started")
        return self.listener.port

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Prefill buffers, bind the listener, start the refill worker."""
        with TRACER.timed_span("gateway.prefill", prefill=self.prefill) as tspan:
            self._prefill()
        self.prefill_seconds = tspan.seconds

        self.listener = SocketListener(
            host=self.host, backlog=max(8, 2 * self.num_clients)
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.listener, selectors.EVENT_READ, None)
        self._waker = _Waker()
        self._selector.register(self._waker, selectors.EVENT_READ, self._waker)
        self._refill_worker = _RefillWorker(self)
        self._refill_worker.start()

    def _submit_mint(self, seed: int, on_done=None):
        """Ship one whole-mint job to the pool; returns its AsyncJob."""
        return self.pool.apply_async(
            mint_offline_job,
            (self.network, self.params, self.garbler, seed, self.truncate_bits),
            on_done,
        )

    def _prefill(self) -> None:
        jobs = []
        for _ in range(self.prefill):
            for c in range(self.num_clients):
                with self._state_lock:
                    index = self.ledger.reserve(c)
                jobs.append((c, index, self._submit_mint(self.mint_seed(c, index))))
        # Admit in submission order: round-robin, so budget pressure hits
        # all clients evenly — same admission order as the serial loop.
        for c, index, job in jobs:
            self._admit(c, index, job.get())
            with self._state_lock:
                self.ledger.landed(c)

    def poll(self, timeout: float = IDLE_TICK_SECONDS) -> None:
        """One selector round: accept, step ready sessions, flush outboxes.

        The round ends early when a socket is ready or the wake pipe is
        written — after every landed or failed refill mint, and at
        ``stop()`` — so a held offer is retried as soon as its blob is
        stored; ``timeout`` only caps an idle round.
        """
        if self._selector is None:
            raise RuntimeError("gateway not started")
        # Selector waits are the "queue" bucket of the decomposition
        # (no-op unless serve() opened a window on this thread).
        with PHASES.phase("queue"):
            events = self._selector.select(timeout=timeout)
        for key, mask in events:
            if key.data is None:
                self._accept_pending()
            else:
                key.data.on_event(mask)
        # Retry held offers: a refill may have landed since last round.
        for conn in list(self._waiting):
            taken = self._take_precompute(conn.client_id)
            if taken is None and time.perf_counter() < conn.wait_deadline:
                with self._state_lock:
                    if self.ledger.mint_pending(conn.client_index):
                        continue  # still worth holding for the in-flight mint
            self._hold(conn, False)
            try:
                conn.begin_request(taken)
                conn.advance()
            except (TransportError, ValueError) as exc:
                self._drop(conn, error=exc)
        # Idle keep-alive connections with queued requests: a completed
        # request or a drained backlog since last round may have made
        # them admissible.
        for conn in list(self._connections):
            if conn.state == _Connection.IDLE and conn.pending:
                try:
                    conn.advance()
                except (TransportError, ValueError) as exc:
                    self._drop(conn, error=exc)
        # Register write interest exactly while userspace outbox bytes
        # wait on kernel buffer space; drop it as soon as they drain.
        for conn in list(self._connections):
            events = selectors.EVENT_READ
            if conn.transport.needs_flush:
                events |= selectors.EVENT_WRITE
            if events != conn.registered_events:
                try:
                    self._selector.modify(conn.transport, events, conn)
                    conn.registered_events = events
                except (KeyError, ValueError):  # pragma: no cover - racing drop
                    pass

    def serve(self, total_requests: int, timeout: float | None = 300.0,
              abort=None) -> float:
        """Run the selector loop until ``total_requests`` complete.

        Returns (and records) the drain-window wall clock —
        ``throughput_rps``'s denominator, directly comparable with the
        serialized loop's. ``abort`` is polled each round, so at least
        every ``IDLE_TICK_SECONDS``; returning True ends the loop early (a
        driver thread hit an error).
        """
        if self._serve_start is None:
            self._serve_start = time.perf_counter()
        # The window brackets exactly this drain loop, so its exclusive
        # buckets decompose serve_seconds (they sum to the window's
        # wall-clock by construction).
        window = PHASES.open_window(root="wire") if TRACER.enabled else None
        try:
            deadline = None if timeout is None else time.monotonic() + timeout
            while len(self._served) < total_requests:
                if abort is not None and abort():
                    break
                self.poll()
                if deadline is not None and time.monotonic() > deadline:
                    raise TransportError(
                        f"gateway timed out with {len(self._served)}/"
                        f"{total_requests} requests served"
                    )
            self.serve_seconds = time.perf_counter() - self._serve_start
        finally:
            if window is not None:
                for name, seconds in window.close().items():
                    self._phase_totals[name] = (
                        self._phase_totals.get(name, 0.0) + seconds
                    )
        return self.serve_seconds

    def drain_refills(self, timeout: float = 60.0) -> None:
        """Wait for owed refill mints to finish (bounded)."""
        with self._refills_settled:
            self._refills_settled.wait_for(self.ledger.idle, timeout)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Tear down: refill worker, live connections, listener, own pool."""
        if self._waker is not None:
            self._waker.wake()  # a select() on another thread returns now
        if self._refill_worker is not None:
            if drain:
                self.drain_refills(timeout)
            self._refill_worker.stop()
            self._refill_worker.join(timeout=timeout)
        for conn in list(self._connections):
            # Tell live keep-alive peers the gateway is going away; the
            # bounded close-flush makes a best effort to deliver it.
            try:
                conn.transport.send(frames.encode_goaway("gateway shutting down"))
            except TransportError:  # pragma: no cover - peer already gone
                pass
            self._drop(conn, error=None)
        if self._selector is not None:
            for registered in (self.listener, self._waker):
                try:
                    self._selector.unregister(registered)
                except (KeyError, ValueError):  # pragma: no cover - already gone
                    pass
            self._selector.close()
            self._selector = None
        if self._waker is not None:
            self._waker.close()
        if self.listener is not None:
            self.listener.close()
        if self._own_pool is not None:
            self._own_pool.close()

    def check_refills(self) -> None:
        """Raise if any background mint failed (call after serve())."""
        worker = self._refill_worker
        if worker is not None and worker.errors:
            c, exc = worker.errors[0]
            raise RuntimeError(
                f"{len(worker.errors)} background refill mint(s) failed; "
                f"first: client{c}: {exc!r}"
            ) from exc

    # -- report ---------------------------------------------------------------

    def report(self):
        """ServingReport over everything served since start()."""
        worker = self._refill_worker
        return ServingReport(
            num_clients=self.num_clients,
            requests=list(self._served),
            minted=sum(self.ledger.minted),
            demand_mints=sum(1 for r in self._served if not r.hit),
            evictions=self.store.evictions - self._evictions_before,
            prefill_seconds=self.prefill_seconds,
            refill_seconds=worker.refill_seconds if worker else 0.0,
            serve_seconds=self.serve_seconds,
            concurrent=True,
            refill_overlap_seconds=worker.overlap_seconds if worker else 0.0,
            peak_live_sessions=self.peak_live_sessions,
            dropped_sessions=self.dropped_sessions,
            connections_accepted=self.connections_accepted,
            requests_issued=self.requests_issued,
            requests_admitted=self.requests_admitted,
            requests_deferred=self.requests_deferred,
            requests_rejected=self.requests_rejected,
            occupancy=list(self._occupancy),
            phase_seconds={
                k: round(v, 6) for k, v in self._phase_totals.items()
            },
            gateway_stats=self.stats(),
        )

    def stats(self) -> dict:
        """Live JSON-safe stats snapshot (any thread, including wire op).

        Built entirely from the always-on ``_stats_registry`` plus state
        guarded by ``_state_lock``, so a ``GWS1`` probe mid-serve sees a
        coherent picture without perturbing session transcripts.
        """
        served = list(self._served)
        connections = list(self._connections)
        ledger = self.ledger
        with self._state_lock:
            # Exactly the numbers the refill policy decides on.
            rates = ledger.rates(self._serve_elapsed())
            buffered = ledger.depths(self._stored_counts())
            pending = list(ledger.pending)
            credits = list(ledger.credits)
            backlog = ledger.backlog()
            retry_after = ledger.retry_after()
            mean_mint = ledger.mean_mint_seconds
            inflight = sum(self._inflight.values())
            # Sessions, not sockets: a stats probe (or a pre-hello
            # connection) holds no session and must not count itself.
            live = sum(1 for conn in connections if conn.session is not None)
        clients = {}
        for c in range(self.num_clients):
            cid = self.client_id(c)
            hist = self._stats_registry.histogram(
                "gateway_request_seconds", client=cid
            )
            hold = self._stats_registry.histogram(
                "gateway_hold_seconds", client=cid
            )
            rate = rates[c]
            clients[cid] = {
                "requests": hist.count,
                "latency_p50": round(hist.quantile(0.50), 6),
                "latency_p95": round(hist.quantile(0.95), 6),
                "latency_p99": round(hist.quantile(0.99), 6),
                # The WAIT_STORE share of a latency (0.0 for unheld requests).
                "hold_p50": round(hold.quantile(0.50), 6),
                "hold_p95": round(hold.quantile(0.95), 6),
                "rate_rps": round(rate, 6),
                "buffered": buffered[c],
                "pending_mints": pending[c],
                "refill_credits": credits[c],
                # How long until this client's buffer runs dry at its
                # observed request rate — None while the rate is still 0.
                "expected_time_to_miss": (
                    round(buffered[c] / rate, 6) if rate > 0 else None
                ),
            }
        hits = sum(1 for r in served if r.hit)
        return {
            "served": len(served),
            "hit_rate": round(hits / len(served), 6) if served else 0.0,
            "live_sessions": live,
            "peak_live_sessions": self.peak_live_sessions,
            "dropped_sessions": self.dropped_sessions,
            # Requests in flight plus REQs queued behind per-client limits.
            "queue_depth": inflight + sum(
                len(conn.pending) for conn in connections
            ),
            "refill_inflight": sum(pending),
            "admission": {
                "max_queue": ledger.max_queue,
                "backlog": backlog,
                # What the *next* deferred request would be told to wait,
                # and the measured mean mint time behind it.
                "retry_after": round(retry_after, 6),
                "mean_mint_seconds": round(mean_mint, 6),
                "connections_accepted": self.connections_accepted,
                "issued": self.requests_issued,
                "admitted": self.requests_admitted,
                "deferred": self.requests_deferred,
                "rejected": self.requests_rejected,
            },
            "connections": [
                {
                    "client": conn.client_id,
                    "state": conn.state,
                    "requests_completed": conn.requests_completed,
                    "queued": len(conn.pending),
                }
                for conn in connections
                if conn.session is not None or conn.state != conn.HELLO
            ],
            "store": {
                "bytes": self.store.total_bytes,
                "entries": self.store.entry_count,
                "evictions": self.store.evictions - self._evictions_before,
            },
            "clients": clients,
        }

    # -- selector-side internals ----------------------------------------------

    def _accept_pending(self) -> None:
        while True:
            transport = self.listener.poll_accept()
            if transport is None:
                return
            conn = _Connection(self, transport)
            self._connections.add(conn)
            self.peak_live_sessions = max(
                self.peak_live_sessions, len(self._connections)
            )
            self._selector.register(transport, selectors.EVENT_READ, conn)

    def _record(self, name: str, value: float | None = None, **labels) -> None:
        """Count — or, given a value, observe — one series on the always-on
        stats registry and on the global one (a no-op while telemetry is off)."""
        for registry in (self._stats_registry, METRICS):
            if value is None:
                registry.counter(name, **labels).inc()
            else:
                registry.histogram(name, **labels).observe(value)

    def _hold(self, conn: _Connection, held: bool) -> None:
        """Enter or leave WAIT_STORE bookkeeping (idempotent either way)."""
        if held:
            self._waiting.add(conn)
        else:
            self._waiting.discard(conn)
        with self._state_lock:
            self.ledger.waiting = len(self._waiting)

    def _maybe_start(self, conn: _Connection) -> bool:
        """Start the next queued request on an idle connection, if allowed.

        Returns True when the connection left IDLE (a request was
        admitted and is now running). Deferral (BUSY) and rejection
        (GOAWAY) pop the request but leave/close the connection in place
        — the peer decides what happens next — so both return False.
        """
        if conn.state != conn.IDLE or not conn.pending:
            return False
        with self._state_lock:
            if self._inflight.get(conn.client_id, 0) >= MAX_INFLIGHT_PER_CLIENT:
                return False  # stays queued; a completion re-triggers us
            over = self.ledger.backlog() > self.ledger.max_queue
            retry_after = self.ledger.retry_after() if over else 0.0
            inflight_total = sum(self._inflight.values())
            if not over:
                self._inflight[conn.client_id] = (
                    self._inflight.get(conn.client_id, 0) + 1
                )
        index = conn.pending.popleft()
        if over:
            conn.deferrals += 1
            if (
                self.max_request_deferrals is not None
                and conn.deferrals > self.max_request_deferrals
            ):
                self.requests_rejected += 1
                self._record(
                    "gateway_requests_total", client=conn.client_id, outcome="rejected"
                )
                try:
                    conn.transport.send(
                        frames.encode_goaway("admission backlog over max_queue")
                    )
                except TransportError:  # pragma: no cover - peer gone
                    pass
                self._drop(conn, error=None)
                return False
            self.requests_deferred += 1
            self._record(
                "gateway_requests_total", client=conn.client_id, outcome="deferred"
            )
            conn.transport.send(frames.encode_busy(retry_after))
            return False
        conn.deferrals = 0
        conn.request_index = index
        conn.hit = False
        conn.mint_seconds = 0.0
        conn.request_started = time.perf_counter()
        if TRACER.enabled and conn._track is not None:
            conn._t_request_us = now_us()
        # Requests already active when this one started (WAIT_STORE
        # holders included — they hold an in-flight slot).
        conn.queue_depth = inflight_total
        self.requests_admitted += 1
        self._record(
            "gateway_requests_total", client=conn.client_id, outcome="admitted"
        )
        taken = self._take_precompute(conn.client_id)
        if taken is None and conn.client_index is not None:
            with self._state_lock:
                refilling = self.ledger.mint_pending(conn.client_index)
            if refilling:
                # A refill for this client is already underway: hold the
                # offer instead of duplicating the whole offline phase
                # over the wire. Its landing wakes the selector, which
                # offers it then; other sessions keep flowing meanwhile.
                conn.state = conn.WAIT_STORE
                conn.wait_deadline = time.perf_counter() + MISS_WAIT_SECONDS
                self._hold(conn, True)
                return True
        conn.begin_request(taken)
        return True

    def _make_session(self, transport):
        seed = derive_worker_seed(
            self.base_seed + 0x5EED, self._session_counter
        )
        self._session_counter += 1
        return self._session_cls(
            self.network,
            params=self.params,
            garbler=self.garbler,
            seed=seed,
            truncate_bits=self.truncate_bits,
            transport=transport,
            lowered=self.lowered,
        )

    def _take_precompute(self, client_id: str):
        """Consume the oldest buffered precompute: (blob, server half) or None.

        Validation precedes the delete (same contract as
        ``import_offline``): a transcript that does not match this
        network stays buffered and the connection is dropped instead.
        """
        from repro.core.protocol import split_offline_state

        # Charged wholesale to the "store" bucket: the split is part of
        # the price of serving from storage (nested store.get/delete
        # sections are fine — exclusive accounting handles re-entry).
        with section("store", "gateway.take_precompute", client=client_id):
            key = self.store_key(client_id)
            name = next(iter(self.store.names(key, KIND_OFFLINE)), None)
            blob = self.store.get(key, KIND_OFFLINE, name) if name else None
            if blob is None:
                return None
            _, server_state = split_offline_state(
                blob, self.lowered, self._circuit, self.garbler,
                self.truncate_bits,
            )
            self.store.delete(key, KIND_OFFLINE, name)
            return blob, server_state

    def _complete(self, conn: _Connection, online_seconds: float) -> None:
        self._record(
            "gateway_request_seconds",
            time.perf_counter() - conn.request_started,
            client=conn.client_id,
        )
        self._record(
            "gateway_hold_seconds", conn.hold_seconds, client=conn.client_id
        )
        self._record(
            "gateway_served_total",
            client=conn.client_id,
            result="hit" if conn.hit else "miss",
        )
        if conn._t_online_us is not None:
            TRACER.emit_since(
                "gateway.online", conn._t_online_us, tid=conn._track,
                client=conn.client_id,
            )
            conn._t_online_us = None
        if conn._t_request_us is not None:
            TRACER.emit_since(
                "gateway.request", conn._t_request_us, tid=conn._track,
                client=conn.client_id, index=conn.request_index, hit=conn.hit,
            )
            conn._t_request_us = None
        self._served.append(
            ServedRequest(
                client=conn.client_id,
                index=conn.request_index,
                hit=conn.hit,
                queue_depth=conn.queue_depth,
                mint_seconds=conn.mint_seconds,
                online_seconds=online_seconds,
                store_bytes=self.store.total_bytes,
                hold_seconds=conn.hold_seconds,
                logits=[],  # logits materialize client-side; drivers merge them
            )
        )
        self._sample("serve", conn.client_id)
        conn.transport.send(frames.encode_done(conn.request_index, conn.hit))
        c = conn.client_index
        with self._state_lock:
            self._inflight[conn.client_id] = max(
                0, self._inflight.get(conn.client_id, 0) - 1
            )
            if not conn.hit and conn.mint_seconds > 0.0:
                # Demand mints count toward the retry estimator too: under
                # sustained misses they are the honest drain rate.
                self.ledger.mint_took(conn.mint_seconds)
            if c is not None:
                self.ledger.completed(c)
        if c is not None and self._refill_worker is not None:
            self._refill_worker.kick()
        # Keep-alive: the connection survives the request. Recycle the
        # session (connection-scoped state stays) and go back to IDLE so
        # queued or future REQs on this socket can be admitted.
        conn.session.reset_for_request()
        conn.state = conn.IDLE
        conn.requests_completed += 1
        conn.hit = False
        conn.mint_seconds = 0.0

    def _drop(self, conn: _Connection, error) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        self._hold(conn, False)
        had_active_request = conn.state in (
            conn.WAIT_STORE, conn.OFFLINE, conn.ONLINE
        )
        if had_active_request:
            # The admitted request dies with the connection: release its
            # in-flight slot so the client's later connections still fit
            # under the per-client concurrency limit.
            with self._state_lock:
                self._inflight[conn.client_id] = max(
                    0, self._inflight.get(conn.client_id, 0) - 1
                )
        try:
            self._selector.unregister(conn.transport)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            conn.transport.close()
        except TransportError:  # pragma: no cover - peer already gone
            pass
        # Only connections that completed HELLO get a span: a GWS1 stats
        # probe (or a peer that vanished pre-hello) holds no identity and
        # must not clutter the trace with anonymous connection windows.
        if conn._t_accept_us is not None and conn.state != conn.HELLO:
            TRACER.emit_since(
                "gateway.connection", conn._t_accept_us, tid=conn._track,
                client=conn.client_id,
                requests=conn.requests_completed,
                error=repr(error) if error is not None else None,
            )
            conn._t_accept_us = None
        if error is not None and had_active_request:
            self.dropped_sessions += 1

    def _sample(self, event: str, client_id: str) -> None:
        self._occupancy.append(
            {
                "event": event,
                "client": client_id,
                "bytes": self.store.total_bytes,
                "entries": self.store.entry_count,
            }
        )

    # -- refill-side internals ------------------------------------------------

    def _serve_elapsed(self) -> float:
        now = time.perf_counter()
        return now - (self._serve_start or now)

    def _stored_counts(self) -> list[int]:
        """Precomputes each client has in the store right now."""
        return [
            len(self.store.names(self.store_key(self.client_id(c)), KIND_OFFLINE))
            for c in range(self.num_clients)
        ]

    def _next_refill_mint(self):
        """Claim the most urgent owed refill: (client, mint index, seed)."""
        with self._state_lock:
            if not any(self.ledger.credits):
                return None  # nothing owed: skip the store scan
            c, index = self.ledger.claim(
                self._stored_counts(), self._serve_elapsed()
            )
        return c, index, self.mint_seed(c, index)

    def _admit(self, c: int, index: int, blob: bytes) -> None:
        """Store one minted blob in the client's namespace (any thread).

        The caller tells the ledger the mint landed only afterwards, so a
        held offer never sees "nothing stored, nothing in flight" in
        between.
        """
        self.store.put(
            self.store_key(self.client_id(c)),
            KIND_OFFLINE,
            blob,
            name=f"{index:08d}",
        )
        self._sample("mint", self.client_id(c))

    def _settle_refill(self, c: int, seconds: float, landed: bool) -> None:
        """Book a refill mint that landed (after ``_admit``) or failed, then
        wake whoever waits on it: ``drain_refills`` and the selector, whose
        next round offers the blob to a held request."""
        with self._refills_settled:
            self.ledger.mint_took(seconds)
            (self.ledger.landed if landed else self.ledger.failed)(c)
            self._refills_settled.notify_all()
        self._waker.wake()
