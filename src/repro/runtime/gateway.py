"""Concurrent serving gateway: many live sockets, background refill workers.

:class:`ServingGateway` is the one functional serving path. It overlaps
mint and serve in wall-clock, in the deployment shape the paper's
client/server characterization assumes: one selectors-based thread hosts a
:class:`~repro.core.session.ServerSession` per client socket and
multiplexes them at message granularity (the sessions' resumable
``step()`` machines over length-prefixed frames), while a refill driver
thread ships whole offline mints to
:class:`~repro.runtime.pool.PrecomputePool` worker *processes*. On a
multi-core host online CPU work and offline garbling overlap
(``refill_overlap_seconds``), and the client whose buffer will run dry
first is refilled first (GrASP's demand-driven prefetching, applied to
the offline phase; JSPIM-style skew-awareness).

Wire protocol: a client sends one HELLO naming its ``client_id``, then
any number of REQ frames on the same keep-alive socket. Each REQ is
answered by an OFFER — a stored precompute (split per role via
:func:`~repro.core.protocol.split_offline_state`) and the online phase,
or a miss and the full offline phase over the wire — closed by DONE; or
by BUSY{retry_after}, after which the client backs off and re-issues;
or by GOAWAY, which ends the connection. The connection-scoped
:class:`~repro.core.session.ServerSession` is recycled between requests
(``reset_for_request()``); a ``GWS1`` stats probe works standalone or
between two requests.

This module is I/O only: frames, sessions, the selector and the refill
thread. Each connection's request cycle is a
:class:`~repro.runtime.connection.ConnectionMachine` over the one
:class:`~repro.runtime.policy.RefillLedger`, on which the refill thread
books its mints; the gateway feeds the machine decoded frames and phase
ends and carries out its actions. The frame vocabulary is
:mod:`repro.network.frames`; the peer is :mod:`repro.runtime.client`.

Fidelity note: on a hit the gateway ships the *whole* stored transcript
(both role halves) to the client, mirroring what
``HybridProtocol.import_offline`` does in-process; it demonstrates the
system shape, not a security property (see ARCHITECTURE.md).
"""

from __future__ import annotations

import selectors
import socket
import threading
import time

from repro.network import frames
from repro.network.transport import SocketListener, SocketTransport, TransportError
from repro.runtime.client import GatewayClient  # noqa: F401 - bench_e2e imports it here
from repro.runtime.connection import (
    ADMIT,
    BUSY,
    DONE,
    GOAWAY,
    OFFER,
    START_ONLINE,
    ConnectionMachine,
)
from repro.runtime.policy import DEFAULT_MAX_QUEUE, OUTCOMES, RefillLedger
from repro.runtime.pool import PrecomputePool, mint_offline_job
from repro.runtime.serving import (
    ServedRequest,
    ServingReport,
    client_id as client_name,  # ``client_id`` is a str everywhere below
    mint_seed,
    occupancy,
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
    """One live client socket: the I/O adapter of a :class:`ConnectionMachine`.

    Decodes control frames into the machine's inputs and carries out its
    actions: frames, spans, metrics, and one connection-scoped
    :class:`~repro.core.session.ServerSession`, recycled between requests.
    """

    def __init__(self, gateway: "ServingGateway", transport: SocketTransport):
        self.gateway = gateway
        self.transport = transport
        self.session = None
        self.machine = ConnectionMachine(
            gateway.ledger, gateway._take_precompute, time.perf_counter,
            gateway._state_lock,
        )
        self.registered_events = selectors.EVENT_READ
        # Under tracing, a per-connection virtual track carrying the
        # connection -> request* -> offline/online spans, by start time.
        self._track = TRACER.new_track("gateway-conn") if TRACER.enabled else None
        self._opened: dict[str, int] = {}
        self._open("connection")

    def _open(self, span: str) -> None:
        if self._track is not None and TRACER.enabled:
            self._opened[span] = now_us()

    def _close(self, span: str, **labels) -> None:
        start = self._opened.pop(span, None)
        if start is not None:
            TRACER.emit_since(
                f"gateway.{span}", start, tid=self._track,
                client=self.machine.client_id, **labels,
            )

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
        """Feed buffered frames through the machine, never blocking."""
        from repro.core.session import DONE as PHASE_DONE

        machine = self.machine
        while self in self.gateway._connections:
            state = machine.state
            if state in (machine.OFFLINE, machine.ONLINE):
                with TRACER.span(
                    "gateway.step", client=machine.client_id, state=state
                ):
                    done = self.session.step() == PHASE_DONE
                if not done:
                    return
                self.carry_out(machine.phase_done())
                continue
            # An admitted request reads nothing: its peer waits for the OFFER.
            looking = state in (machine.ADMITTED, machine.WAIT_STORE)
            frame = None if looking else self.transport.recv(wait=False)
            if frame is None:
                # A request looks in the store (again, if held); a queued
                # REQ may start.
                self.carry_out(machine.retry())
                if machine.state == state:
                    return
                continue
            head = bytes(frame[:4])
            if head == frames.STATS:
                # In place of a HELLO: a monitoring peer, answered and closed
                # with no session made, so probes cannot perturb transcripts.
                # Between two requests: answered inline; the connection lives.
                self.transport.send(frames.encode_stats_reply(self.gateway.stats()))
                if state == machine.HELLO:
                    self.gateway._drop(self, error=None)
            elif state == machine.HELLO:
                client_id = frames.decode_hello(frame)
                machine.hello(client_id, self.gateway._client_index.get(client_id))
                self.gateway.connections_accepted += 1
            elif head == frames.GOAWAY:
                self.gateway._drop(self, error=None)  # the client is done
            else:
                self.carry_out(machine.request(frames.decode_request(frame)))

    def carry_out(self, actions) -> None:
        """Do what the machine asked, in order."""
        gateway, machine = self.gateway, self.machine
        for action, value in actions:
            if action in (ADMIT, BUSY, GOAWAY):
                gateway._record(
                    "gateway_requests_total", client=machine.client_id,
                    outcome=OUTCOMES[OFFER if action == ADMIT else action],
                )
            if action == ADMIT:
                self._open("request")
            elif action == BUSY:
                self.transport.send(frames.encode_busy(value))
            elif action == GOAWAY:
                gateway._goodbye(self, value)
            elif action == OFFER:
                self._offer(value)
            elif action == START_ONLINE:
                self._close("offline")
                self.session.start_online()
                machine.started()
                self._open("online")
            elif action == DONE:
                self._done(value)

    def _offer(self, taken) -> None:
        """OFFER the admitted request: adopt a precompute or go offline. The
        session is made at the first OFFER and recycled at every DONE."""
        if self.session is None:
            self.session = self.gateway._make_session(self.transport)
        if taken is not None:
            blob, server_state = taken
            self.transport.send(frames.encode_offer(True, blob))
            self.session.load_offline_state(*server_state)
        else:
            # Miss: the demand mint runs over the wire, on this request's
            # critical path, multiplexed with the other sessions — the
            # measured miss penalty.
            self.transport.send(frames.encode_offer(False))
            self._open("offline")
            self.session.start_offline()
            self.machine.started()

    def _done(self, served: ServedRequest) -> None:
        gateway, client_id = self.gateway, served.client
        latency = time.perf_counter() - self.machine.admitted_at
        gateway._record("gateway_request_seconds", latency, client=client_id)
        gateway._record("gateway_hold_seconds", served.hold_seconds, client=client_id)
        result = "hit" if served.hit else "miss"
        gateway._record("gateway_served_total", client=client_id, result=result)
        self._close("online")
        self._close("request", index=served.index, hit=served.hit)
        served.store_bytes = gateway.store.total_bytes
        gateway._served.append(served)
        gateway._occupancy.append(occupancy("serve", client_id, gateway.store))
        self.transport.send(frames.encode_done(served.index, served.hit))
        if gateway._refill_worker is not None:
            gateway._refill_worker.kick()  # a refill credit may be owed
        # Keep-alive: recycle the session (connection-scoped state stays)
        # for queued or future REQs on this socket.
        self.session.reset_for_request()


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

    Client names and mint seeds are :mod:`repro.runtime.serving`'s
    (one shared definition), which is what makes gateway-served logits
    comparable per ``(client, index)`` against the per-client sequential
    reference. ``expected_per_client`` caps refills so a bounded run
    mints exactly one precompute per request.
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
        # guarded by _state_lock. The refill cap is one scalar for uniform
        # drains, or one per client for skewed schedules.
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
        self.ledger.max_request_deferrals = max_request_deferrals

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
        self.connections_accepted = 0
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
        # Look again at held offers (a refill may have landed since last
        # round), then at idle connections with queued requests (a
        # completion or a drained backlog may have made them admissible).
        due = [c for c in self._connections if c.machine.due]
        for conn in sorted(due, key=lambda c: c.machine.state != c.machine.WAIT_STORE):
            conn.on_event(selectors.EVENT_READ)
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
        ``throughput_rps``'s denominator, directly comparable with a
        sequential mint-then-serve loop's. ``abort`` is polled each round,
        so at least every ``IDLE_TICK_SECONDS``; returning True ends the
        loop early (a driver thread hit an error).
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
            # Tell live keep-alive peers the gateway is going away.
            self._goodbye(conn, "gateway shutting down")
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
            refill_overlap_seconds=worker.overlap_seconds if worker else 0.0,
            peak_live_sessions=self.peak_live_sessions,
            dropped_sessions=self.dropped_sessions,
            connections_accepted=self.connections_accepted,
            **{
                f"requests_{name}": count
                for name, count in self.ledger.admission().items()
            },
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
            inflight = ledger.in_flight()
            admission = {
                "max_queue": ledger.max_queue,
                "backlog": ledger.backlog(),
                # What the *next* deferred request would be told to wait,
                # and the measured mean mint time behind it.
                "retry_after": round(ledger.retry_after(), 6),
                "mean_mint_seconds": round(ledger.mean_mint_seconds, 6),
                "connections_accepted": self.connections_accepted,
                **ledger.admission(),
            }
            # Sessions, not sockets: a stats probe (or a pre-hello
            # connection) holds no session and must not count itself.
            live = sum(1 for conn in connections if conn.session is not None)
            machines = [conn.machine for conn in connections]
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
            "queue_depth": inflight + sum(len(m.pending) for m in machines),
            "refill_inflight": sum(pending),
            "admission": admission,
            "connections": [
                {
                    "client": m.client_id,
                    "state": m.state,
                    "requests_completed": m.completed,
                    "queued": len(m.pending),
                }
                for conn, m in zip(connections, machines)
                if conn.session is not None or m.state != m.HELLO
            ],
            "store": {
                "budget": self.store.byte_budget,
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

        The entry leaves the store on one fetch-and-delete
        (:meth:`PrecomputeStore.take`, one index write), before it is
        split. An entry that does not split against this network (torn,
        or minted for another shape) is therefore already gone when the
        error is re-raised, so the request holding it loses its
        connection and the client's next request is served. The
        namespace holds only this gateway's own mints, so an entry
        refused once would be refused every time;
        ``HybridProtocol.import_offline``, whose store may be shared,
        keeps such an entry buffered instead.
        """
        from repro.core.protocol import split_offline_state

        # Charged wholesale to the "store" bucket: the split is part of
        # the price of serving from storage (the nested store.take
        # section is fine — exclusive accounting handles re-entry).
        with section("store", "gateway.take_precompute", client=client_id):
            blob = self.store.take(self.store_key(client_id), KIND_OFFLINE)
            if blob is None:
                return None
            _, server_state = split_offline_state(
                blob, self.lowered, self._circuit, self.garbler,
                self.truncate_bits,
            )
            return blob, server_state

    def _goodbye(self, conn: _Connection, reason: str) -> None:
        """GOAWAY (delivered on a best-effort close-flush), then close."""
        try:
            conn.transport.send(frames.encode_goaway(reason))
        except TransportError:  # pragma: no cover - peer already gone
            pass
        self._drop(conn, error=None)

    def _drop(self, conn: _Connection, error) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        greeted = conn.machine.state != conn.machine.HELLO
        # A request dying with the connection frees its in-flight slot, so
        # the client's later connections are not queued behind it.
        had_active_request = conn.machine.closed()
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
        if greeted:
            conn._close(
                "connection", requests=conn.machine.completed,
                error=repr(error) if error is not None else None,
            )
        if error is not None and had_active_request:
            self.dropped_sessions += 1

    # -- refill-side internals ------------------------------------------------

    def _serve_elapsed(self) -> float:
        now = time.perf_counter()
        return now - (self._serve_start or now)

    def _stored_counts(self) -> list[int]:
        """Precomputes each client has in the store right now."""
        return [
            self.store.count(self.store_key(self.client_id(c)), KIND_OFFLINE)
            for c in range(self.num_clients)
        ]

    def _next_refill_mint(self):
        """Claim the most urgent owed refill: (client, mint index, seed)."""
        with self._state_lock:
            if not any(self.ledger.credits):
                return None  # nothing owed: skip the store counts
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
        self._occupancy.append(occupancy("mint", self.client_id(c), self.store))

    def _settle_refill(self, c: int, seconds: float, landed: bool) -> None:
        """Book a refill mint that landed (after ``_admit``) or failed, then
        wake whoever waits on it: ``drain_refills`` and the selector, whose
        next round offers the blob to a held request."""
        with self._refills_settled:
            (self.ledger.landed if landed else self.ledger.failed)(c, seconds)
            self._refills_settled.notify_all()
        self._waker.wake()
