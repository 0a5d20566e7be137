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
  SHA-256-bound garbling runs in pool worker *processes* while the
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

Fidelity note: on a hit the gateway ships the *whole* stored transcript
(both role halves) to the client, mirroring what
``HybridProtocol.import_offline`` does in-process. A hardened deployment
would mint and store the halves separately; this functional shortcut
demonstrates the system shape — storage drain, refill pipelines, socket
multiplexing — not a security property (see ARCHITECTURE.md).
"""

from __future__ import annotations

import json
import random
import selectors
import struct
import threading
import time
from collections import deque

from repro.network.transport import (
    SocketListener,
    SocketTransport,
    TransportClosed,
    TransportError,
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

# -- wire frames -----------------------------------------------------------------
#
# Gateway control frames ride the same length-prefixed transport as the
# protocol messages; a 4-byte magic keeps them unmistakable for (and
# versioned independently of) the serialize.py payload formats.

_HELLO_MAGIC = b"GWH2"  # connection-scoped — client_id only, no index
_REQ_MAGIC = b"GWR1"
_OFFER_MAGIC = b"GWO1"
_DONE_MAGIC = b"GWD1"
_BUSY_MAGIC = b"GWB1"
_GOAWAY_MAGIC = b"GWG1"
_STATS_MAGIC = b"GWS1"


def encode_hello(client_id: str) -> bytes:
    """Client -> gateway, once per connection: who I am."""
    return _HELLO_MAGIC + client_id.encode()


def decode_hello(frame: bytes) -> str:
    if frame[:4] != _HELLO_MAGIC:
        raise TransportError("not a gateway hello frame")
    return bytes(frame[4:]).decode()


def encode_request(request_index: int) -> bytes:
    """Client -> gateway, once per request: which of my requests this is."""
    return _REQ_MAGIC + struct.pack("<I", request_index)


def decode_request(frame: bytes) -> int:
    if frame[:4] != _REQ_MAGIC:
        raise TransportError("not a gateway request frame")
    (request_index,) = struct.unpack_from("<I", frame, 4)
    return request_index


def encode_offer(hit: bool, blob: bytes = b"") -> bytes:
    """Gateway -> client: buffered precompute (hit) or run offline (miss)."""
    return _OFFER_MAGIC + struct.pack("<B", 1 if hit else 0) + blob


def decode_offer(frame: bytes) -> tuple[bool, bytes]:
    if frame[:4] != _OFFER_MAGIC:
        raise TransportError("not a gateway offer frame")
    return frame[4] == 1, bytes(frame[5:])


def encode_done(request_index: int, hit: bool) -> bytes:
    """Gateway -> client: the request's final share shipped; cycle over."""
    return _DONE_MAGIC + struct.pack("<IB", request_index, 1 if hit else 0)


def decode_done(frame: bytes) -> tuple[int, bool]:
    if frame[:4] != _DONE_MAGIC:
        raise TransportError("not a gateway done frame")
    request_index, hit = struct.unpack_from("<IB", frame, 4)
    return request_index, hit == 1


def encode_busy(retry_after: float) -> bytes:
    """Gateway -> client: request deferred; retry after this many seconds."""
    return _BUSY_MAGIC + struct.pack("<d", max(0.0, retry_after))


def decode_busy(frame: bytes) -> float:
    if frame[:4] != _BUSY_MAGIC:
        raise TransportError("not a gateway busy frame")
    (retry_after,) = struct.unpack_from("<d", frame, 4)
    return retry_after


def encode_goaway(reason: str = "") -> bytes:
    """Either direction: this connection is over (reject or graceful bye)."""
    return _GOAWAY_MAGIC + reason.encode()


def decode_goaway(frame: bytes) -> str:
    if frame[:4] != _GOAWAY_MAGIC:
        raise TransportError("not a gateway goaway frame")
    return bytes(frame[4:]).decode()


def encode_stats_request() -> bytes:
    """Client -> gateway: asks for a live stats snapshot (no session)."""
    return _STATS_MAGIC


def encode_stats_reply(stats: dict) -> bytes:
    return _STATS_MAGIC + json.dumps(stats, sort_keys=True).encode()


def decode_stats_reply(frame: bytes) -> dict:
    if frame[:4] != _STATS_MAGIC:
        raise TransportError("not a gateway stats frame")
    return json.loads(bytes(frame[4:]).decode())


# -- admission configuration -----------------------------------------------------

DEFAULT_WAIT_SECONDS = 60.0  # a missed offer holds this long for a refill
DEFAULT_MAX_QUEUE = 8  # refill backlog above which new requests get BUSY
MAX_INFLIGHT_PER_CLIENT = 1  # admitted requests one client may have active
MAX_RETRY_AFTER = 5.0


def adaptive_retry_after(
    backlog: int,
    max_queue: int,
    mean_mint_seconds: float,
    mint_parallelism: int,
    floor: float,
    cap: float = MAX_RETRY_AFTER,
) -> float:
    """How long a deferred client should wait before re-issuing its REQ.

    The backlog the admission check just measured drains at roughly
    ``mint_parallelism / mean_mint_seconds`` mints per second, so the
    *excess* over ``max_queue`` clears in about
    ``excess * mean_mint_seconds / mint_parallelism`` — that is when a
    retry has a real chance of being admitted. Telling the client
    anything shorter buys nothing but wasted BUSY round-trips; anything
    longer leaves admission slots idle. ``floor`` (the old fixed
    ``busy_retry_after``) is both the fallback before any mint has been
    timed and the lower clamp; ``cap`` bounds the hint when a burst
    piles the backlog sky-high.
    """
    if mean_mint_seconds <= 0.0:
        return floor  # no measured mints yet: the fixed constant stands
    excess = max(1, backlog - max_queue)
    drain = excess * mean_mint_seconds / max(1, mint_parallelism)
    return min(cap, max(floor, drain))


# -- refill policy --------------------------------------------------------------


def pick_refill_client(
    credits: list[int], buffered: list[float], rates: list[float]
) -> int | None:
    """The refill policy: smallest expected time to miss wins.

    ``credits[c]`` counts refills owed to client c, ``buffered[c]`` its
    buffer depth (stored + in-flight mints), ``rates[c]`` its measured
    consumption rate. Expected time to miss is ``buffered / rate``; a
    client that has never consumed (rate 0) can't miss soon, so it ranks
    last among credited clients, tie-broken by shallowest buffer. Returns
    None when no client holds a credit.
    """
    best = None
    best_rank = None
    for c, credit in enumerate(credits):
        if credit <= 0:
            continue
        rate = rates[c]
        ettm = buffered[c] / rate if rate > 0 else float("inf")
        rank = (ettm, buffered[c], c)
        if best_rank is None or rank < best_rank:
            best, best_rank = c, rank
    return best


class _RefillWorker(threading.Thread):
    """Background driver keeping per-client store namespaces warm.

    Submits up to ``inflight_limit`` offline-mint jobs through the shared
    pool's async surface and admits completed blobs into the store. All
    mint-index reservation and credit accounting lives in the gateway
    (under its state lock); this thread only schedules and admits.
    """

    def __init__(self, gateway: "ServingGateway", inflight_limit: int):
        super().__init__(name="gateway-refill", daemon=True)
        self.gateway = gateway
        self.inflight_limit = max(1, inflight_limit)
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
        inflight: dict = {}  # AsyncJob -> (client, mint index, submit time)
        overlap_start: float | None = None
        while True:
            while len(inflight) < self.inflight_limit and not self._stop_evt.is_set():
                reserved = gateway._next_refill_mint()
                if reserved is None:
                    break
                c, index, seed = reserved
                t0 = time.perf_counter()
                if overlap_start is None:
                    overlap_start = t0
                job = gateway._submit_mint(seed)
                inflight[job] = (c, index, t0)
            for job in [j for j in inflight if j.ready()]:
                c, index, t0 = inflight.pop(job)
                elapsed = time.perf_counter() - t0
                self.refill_seconds += elapsed
                gateway._note_mint_seconds(elapsed)
                try:
                    blob = job.get()
                    gateway._admit(c, index, blob)
                except Exception as exc:  # surfaced via gateway.check_refills()
                    gateway._mint_failed(c)
                    self.errors.append((c, exc))
            if not inflight and overlap_start is not None:
                self.overlap_seconds += time.perf_counter() - overlap_start
                overlap_start = None
            if self._stop_evt.is_set() and not inflight:
                return
            if inflight:
                time.sleep(0.005)
            else:
                self._wake.wait(timeout=0.05)
                self._wake.clear()


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
        self.request_index = -1
        self.pending: deque[int] = deque()  # REQs queued behind the active one
        self.requests_completed = 0
        self.deferrals = 0  # consecutive BUSY replies on this connection
        self.queue_depth = 0
        self.hit = False
        self.mint_seconds = 0.0
        self.wait_deadline = 0.0
        self.request_started = 0.0
        self._mint_start = 0.0
        self._online_start = 0.0
        self.registered_events = selectors.EVENT_READ
        # Request-latency clock (always on: feeds the live stats
        # histograms) plus, under tracing, a per-connection virtual
        # track carrying the accept -> request* -> close spans.
        self.accepted = time.perf_counter()
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
                if frame[:4] == _STATS_MAGIC:
                    # A monitoring peer, not a protocol client: answer
                    # with a live snapshot and close. No session is
                    # created and the session seed counter never
                    # advances, so stats probes cannot perturb a serving
                    # run's transcripts.
                    self.transport.send(
                        encode_stats_reply(self.gateway.stats())
                    )
                    self.gateway._drop(self, error=None)
                    return
                self.client_id = decode_hello(frame)
                self.gateway._register_hello(self)
                self.state = self.IDLE
                continue
            if self.state == self.IDLE:
                frame = self.transport.recv(wait=False)
                if frame is None:
                    if not self.gateway._maybe_start(self):
                        return
                    continue  # a queued request started: run its phase
                head = bytes(frame[:4])
                if head == _STATS_MAGIC:
                    # Mid-stream probe between two requests on a live
                    # keep-alive connection: answered inline, the
                    # connection (and its recycled session) lives on.
                    self.transport.send(
                        encode_stats_reply(self.gateway.stats())
                    )
                    continue
                if head == _GOAWAY_MAGIC:
                    # The client is done with this connection.
                    self.gateway._drop(self, error=None)
                    return
                self.pending.append(decode_request(frame))
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

        if self.session is None:
            self.session = self.gateway._make_session(self.transport)
        elif self.session.lifecycle != LIFE_NEW:
            self.session.reset_for_request()
        if taken is not None:
            blob, server_state = taken
            self.hit = True
            self.transport.send(encode_offer(True, blob))
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
            self.transport.send(encode_offer(False))
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
        expected_per_client: int | None = None,
        miss_wait_seconds: float = DEFAULT_WAIT_SECONDS,
        max_queue: int | None = None,
        max_request_deferrals: int | None = None,
        busy_retry_after: float = 0.05,
    ):
        if num_clients < 1:
            raise ValueError("need at least one client")
        self.network = network
        self.params = params
        self.num_clients = num_clients
        self.store = store
        self.garbler = garbler
        self.prefill = prefill
        self.refill = refill
        self.base_seed = base_seed
        self.model_id = model_id
        self.truncate_bits = truncate_bits
        self.host = host
        # Refill cap: one scalar for uniform drains, or one cap per client
        # for skewed schedules whose clients carry unequal request counts.
        if isinstance(expected_per_client, (list, tuple)):
            if len(expected_per_client) != num_clients:
                raise ValueError(
                    "per-client refill caps must match num_clients"
                )
            expected_per_client = list(expected_per_client)
        self.expected_per_client = expected_per_client
        self.minted = [0] * num_clients  # per-client mint counter (monotonic)
        if pool is None:
            pool = self._own_pool = PrecomputePool()
        else:
            self._own_pool = None
        self.pool = pool
        self._refill_inflight = pool.workers

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
        self.params = template.params  # overrides resolved once
        self._circuit = template.relu_circuit()
        self._client_index = {self.client_id(c): c for c in range(num_clients)}

        self._state_lock = threading.Lock()
        self._credits = [0] * num_clients
        self._pending_mints = [0] * num_clients
        self._consumed = [0] * num_clients
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
        self._waiting: set[_Connection] = set()
        self.miss_wait_seconds = miss_wait_seconds
        self.max_queue = (
            DEFAULT_MAX_QUEUE if max_queue is None else max(0, max_queue)
        )
        self.max_request_deferrals = max_request_deferrals
        self.busy_retry_after = busy_retry_after
        # Measured mint wall-clock (refill and demand mints alike) feeding
        # the adaptive BUSY retry hint; busy_retry_after stays the floor
        # and the fallback until the first mint completes.
        self._mint_time_total = 0.0
        self._mint_time_count = 0
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
        self._refill_worker = _RefillWorker(self, self._refill_inflight)
        self._refill_worker.start()

    def _submit_mint(self, seed: int):
        """Ship one whole-mint job to the pool; returns its AsyncJob."""
        return self.pool.apply_async(
            mint_offline_job,
            (self.network, self.params, self.garbler, seed, self.truncate_bits),
        )

    def _prefill(self) -> None:
        jobs = []
        for _ in range(self.prefill):
            for c in range(self.num_clients):
                index = self._reserve_mint(c)
                jobs.append((c, index, self._submit_mint(self.mint_seed(c, index))))
        # Admit in submission order: round-robin, so budget pressure hits
        # all clients evenly — same admission order as the serial loop.
        for c, index, job in jobs:
            self._admit(c, index, job.get())

    def poll(self, timeout: float = 0.05) -> None:
        """One selector round: accept, step ready sessions, flush outboxes."""
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
            if taken is None and self._mint_pending(conn.client_id) and (
                time.perf_counter() < conn.wait_deadline
            ):
                continue  # still worth holding for the in-flight mint
            self._waiting.discard(conn)
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
        serialized loop's. ``abort`` is polled each round; returning True
        ends the loop early (a driver thread hit an error).
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
                self.poll(0.05)
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
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._state_lock:
                idle = not any(self._credits) and not any(self._pending_mints)
            if idle:
                return
            time.sleep(0.01)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Tear down: refill worker, live connections, listener, own pool."""
        if self._refill_worker is not None:
            if drain:
                self.drain_refills(timeout)
            self._refill_worker.stop()
            self._refill_worker.join(timeout=timeout)
        for conn in list(self._connections):
            # Tell live keep-alive peers the gateway is going away; the
            # bounded close-flush makes a best effort to deliver it.
            try:
                conn.transport.send(encode_goaway("gateway shutting down"))
            except TransportError:  # pragma: no cover - peer already gone
                pass
            self._drop(conn, error=None)
        if self._selector is not None:
            try:
                self._selector.unregister(self.listener)
            except (KeyError, ValueError):  # pragma: no cover - already gone
                pass
            self._selector.close()
            self._selector = None
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
            minted=sum(self.minted),
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
        with self._state_lock:
            rates, buffered = self._rates_and_buffered_locked()
            pending = list(self._pending_mints)
            credits = list(self._credits)
            backlog = self._backlog_locked()
            retry_after = self._retry_after_locked()
            mean_mint = (
                self._mint_time_total / self._mint_time_count
                if self._mint_time_count
                else 0.0
            )
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
            rate = rates[c]
            clients[cid] = {
                "requests": hist.count,
                "latency_p50": round(hist.quantile(0.50), 6),
                "latency_p95": round(hist.quantile(0.95), 6),
                "latency_p99": round(hist.quantile(0.99), 6),
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
                "max_queue": self.max_queue,
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

    def _live_count(self) -> int:
        return len(self._connections)

    def _register_hello(self, conn: _Connection) -> None:
        """A protocol client introduced itself (stats probes never land here)."""
        self.connections_accepted += 1

    def _backlog_locked(self) -> int:
        """The admission pressure signal (state lock held).

        Held WAIT_STORE offers plus refill work still owed or in flight:
        when this crosses ``max_queue`` the refill pipeline is behind and
        new requests are deferred rather than silently piling on.
        """
        return (
            len(self._waiting)
            + sum(self._credits)
            + sum(self._pending_mints)
        )

    def _note_outcome(self, client_id: str, outcome: str) -> None:
        """Admission outcome counters (always-on stats + opt-in telemetry)."""
        self._stats_registry.counter(
            "gateway_requests_total", client=client_id, outcome=outcome
        ).inc()
        if METRICS.enabled:
            METRICS.counter(
                "gateway_requests_total", client=client_id, outcome=outcome
            ).inc()

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
            over = self._backlog_locked() > self.max_queue
            retry_after = self._retry_after_locked() if over else 0.0
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
                self._note_outcome(conn.client_id, "rejected")
                try:
                    conn.transport.send(
                        encode_goaway("admission backlog over max_queue")
                    )
                except TransportError:  # pragma: no cover - peer gone
                    pass
                self._drop(conn, error=None)
                return False
            self.requests_deferred += 1
            self._note_outcome(conn.client_id, "deferred")
            conn.transport.send(encode_busy(retry_after))
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
        self._note_outcome(conn.client_id, "admitted")
        taken = self._take_precompute(conn.client_id)
        if taken is None and self._mint_pending(conn.client_id):
            # A refill for this client is already underway: hold the
            # offer instead of duplicating the whole offline phase over
            # the wire. poll() retries us each round; other sessions
            # keep flowing meanwhile.
            conn.state = conn.WAIT_STORE
            conn.wait_deadline = time.perf_counter() + self.miss_wait_seconds
            self._waiting.add(conn)
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
        if not conn.hit and conn.mint_seconds > 0.0:
            # Demand mints count toward the retry estimator too: under
            # sustained misses they are the honest drain rate.
            self._note_mint_seconds(conn.mint_seconds)
        latency = time.perf_counter() - conn.request_started
        self._stats_registry.histogram(
            "gateway_request_seconds", client=conn.client_id
        ).observe(latency)
        self._stats_registry.counter(
            "gateway_served_total",
            client=conn.client_id,
            result="hit" if conn.hit else "miss",
        ).inc()
        if METRICS.enabled:
            METRICS.histogram(
                "gateway_request_seconds", client=conn.client_id
            ).observe(latency)
            METRICS.counter(
                "gateway_served_total",
                client=conn.client_id,
                result="hit" if conn.hit else "miss",
            ).inc()
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
                logits=[],  # logits materialize client-side; drivers merge them
            )
        )
        self._sample("serve", conn.client_id)
        conn.transport.send(encode_done(conn.request_index, conn.hit))
        c = self._client_index.get(conn.client_id)
        with self._state_lock:
            self._inflight[conn.client_id] = max(
                0, self._inflight.get(conn.client_id, 0) - 1
            )
            if c is not None:
                self._consumed[c] += 1
                if self.refill and self._may_mint_locked(c):
                    self._credits[c] += 1
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

    def _mint_pending(self, client_id: str) -> bool:
        """Is a refill for this client credited or already in flight?"""
        c = self._client_index.get(client_id)
        if c is None or not self.refill:
            return False
        with self._state_lock:
            return self._credits[c] > 0 or self._pending_mints[c] > 0

    def _drop(self, conn: _Connection, error) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        self._waiting.discard(conn)
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

    def _may_mint_locked(self, c: int) -> bool:
        if self.expected_per_client is None:
            return True
        cap = self.expected_per_client
        if isinstance(cap, list):
            cap = cap[c]
        return self.minted[c] < cap

    def _note_mint_seconds(self, seconds: float) -> None:
        """Fold one completed mint's wall-clock into the retry estimator."""
        with self._state_lock:
            self._mint_time_total += seconds
            self._mint_time_count += 1

    def _retry_after_locked(self) -> float:
        """The adaptive BUSY hint for the backlog just measured."""
        mean = (
            self._mint_time_total / self._mint_time_count
            if self._mint_time_count
            else 0.0
        )
        return adaptive_retry_after(
            self._backlog_locked(),
            self.max_queue,
            mean,
            self._refill_inflight,
            self.busy_retry_after,
        )

    def _reserve_mint(self, c: int) -> int:
        with self._state_lock:
            index = self.minted[c]
            self.minted[c] += 1
            self._pending_mints[c] += 1
            return index

    def _rates_and_buffered_locked(self) -> tuple[list[float], list[int]]:
        """Per-client consumption rates and buffer depths (state lock held).

        Rates are measured over the serve window so far; depth counts
        stored precomputes plus mints already in flight. Shared by the
        refill policy and the live stats snapshot, so ``stats()`` reports
        exactly the numbers ``pick_refill_client`` decides on.
        """
        now = time.perf_counter()
        elapsed = max(now - (self._serve_start or now), 1e-9)
        rates = [self._consumed[c] / elapsed for c in range(self.num_clients)]
        buffered = [
            len(self.store.names(self.store_key(self.client_id(c)), KIND_OFFLINE))
            + self._pending_mints[c]
            for c in range(self.num_clients)
        ]
        return rates, buffered

    def _next_refill_mint(self):
        """Claim the most urgent owed refill: (client, mint index, seed)."""
        with self._state_lock:
            if not any(self._credits):
                return None
            rates, buffered = self._rates_and_buffered_locked()
            c = pick_refill_client(self._credits, buffered, rates)
            if c is None:
                return None
            self._credits[c] -= 1
            index = self.minted[c]
            self.minted[c] += 1
            self._pending_mints[c] += 1
        return c, index, self.mint_seed(c, index)

    def _admit(self, c: int, index: int, blob: bytes) -> None:
        """Admit one minted blob into the client's namespace (any thread)."""
        try:
            self.store.put(
                self.store_key(self.client_id(c)),
                KIND_OFFLINE,
                blob,
                name=f"{index:08d}",
            )
        finally:
            with self._state_lock:
                self._pending_mints[c] = max(0, self._pending_mints[c] - 1)
        self._sample("mint", self.client_id(c))

    def _mint_failed(self, c: int) -> None:
        with self._state_lock:
            self._pending_mints[c] = max(0, self._pending_mints[c] - 1)


# -- client side -----------------------------------------------------------------


class GatewayClient:
    """Keep-alive client: one connection, any number of requests.

    Wire lifecycle: HELLO once at connect, then per request
    ``REQ → (BUSY backoff → REQ)* → OFFER → protocol → DONE``; GOAWAY
    (either direction) ends the connection. The underlying
    :class:`~repro.core.session.ClientSession` is connection-scoped and
    recycled between requests via ``reset_for_request()``, so transport,
    channel accounting, counters, and the shape-only lowering are all
    amortized across requests. The ``issued``/``admitted``/``deferred``/
    ``rejected`` attributes mirror the gateway's admission ledger from
    this side of the wire.
    """

    def __init__(
        self,
        host: str,
        port: int,
        network,
        params,
        *,
        garbler: str = "client",
        client_id: str = "client0",
        seed: int | None = None,
        truncate_bits: int = 0,
        lowered=None,
        retries: int = 40,
        max_busy_retries: int = 1000,
    ):
        from repro.core.session import ClientSession

        self.client_id = client_id
        self.garbler = garbler
        self.truncate_bits = truncate_bits
        self.max_busy_retries = max_busy_retries
        self.issued = 0
        self.admitted = 0
        self.deferred = 0
        self.rejected = 0
        self.retry_sleep_seconds = 0.0  # total time spent in BUSY backoff
        self._next_index = 0
        self._closed = False
        # Backoff jitter stream: seeded clients get deterministic sleeps
        # (protocol randomness is untouched — logits never depend on it).
        self._backoff_rng = random.Random(seed)
        self._backoff_cap = 2 * MAX_RETRY_AFTER
        self.transport = SocketTransport.connect(host, port, retries=retries)
        self.session = ClientSession(
            network,
            params=params,
            garbler=garbler,
            seed=seed,
            truncate_bits=truncate_bits,
            transport=self.transport,
            lowered=lowered,
        )
        self.transport.send(encode_hello(client_id))

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, x: list[int], request_index: int | None = None) -> list[int]:
        """One inference over the live connection; returns the logits.

        Issues a REQ (honoring BUSY backoff with the server-suggested
        retry-after), adopts the offered precompute half on a hit or runs
        the full offline phase over the wire on a miss, drives the online
        phase, and consumes the DONE acknowledgement.
        """
        from repro.core.protocol import split_offline_state
        from repro.core.session import LIFE_NEW

        if request_index is None:
            request_index = self._next_index
        self._next_index = request_index + 1
        deferrals = 0
        backoff = 0.0
        while True:
            self.transport.send(encode_request(request_index))
            self.issued += 1
            frame = self.transport.recv(wait=True)
            head = bytes(frame[:4])
            if head == _BUSY_MAGIC:
                self.deferred += 1
                deferrals += 1
                if deferrals > self.max_busy_retries:
                    raise TransportError(
                        f"request {request_index} deferred {deferrals} "
                        "times; giving up"
                    )
                # Decorrelated jitter seeded by the server's hint: the
                # first retry sleeps exactly retry_after (the server's
                # best estimate of when the backlog clears); repeat
                # deferrals spread out uniformly in [hint, 3 * previous]
                # so a crowd of deferred clients doesn't re-stampede the
                # gateway on one synchronized beat.
                hint = max(0.0, decode_busy(frame))
                backoff = min(
                    self._backoff_cap,
                    self._backoff_rng.uniform(hint, max(hint, 3.0 * backoff)),
                )
                self.retry_sleep_seconds += backoff
                time.sleep(backoff)
                continue
            if head == _GOAWAY_MAGIC:
                self.rejected += 1
                self._closed = True
                reason = decode_goaway(frame) or "no reason given"
                raise TransportError(
                    f"gateway rejected request {request_index}: {reason}"
                )
            hit, blob = decode_offer(frame)
            break
        self.admitted += 1
        session = self.session
        if session.lifecycle != LIFE_NEW:
            session.reset_for_request()
        if hit:
            client_state, _ = split_offline_state(
                blob,
                session.lowered,
                session.relu_circuit(),
                self.garbler,
                self.truncate_bits,
            )
            session.load_offline_state(*client_state)
        else:
            session.run_offline()
        logits = session.run_online(x)
        done_index, _ = decode_done(self.transport.recv(wait=True))
        if done_index != request_index:
            raise TransportError(
                f"gateway acknowledged request {done_index}, "
                f"expected {request_index}"
            )
        return logits

    def stats(self) -> dict:
        """Mid-stream ``GWS1`` stats snapshot (only between requests)."""
        self.transport.send(encode_stats_request())
        return decode_stats_reply(self.transport.recv(wait=True))

    def local_stats(self) -> dict:
        """This side of the admission ledger, plus backoff accounting."""
        return {
            "issued": self.issued,
            "admitted": self.admitted,
            "deferred": self.deferred,
            "rejected": self.rejected,
            "busy_retries": self.deferred,
            "retry_sleep_seconds": round(self.retry_sleep_seconds, 6),
        }

    def close(self) -> None:
        """Graceful bye: best-effort GOAWAY, then close the socket."""
        if not self._closed:
            self._closed = True
            try:
                self.transport.send(encode_goaway("client done"))
            except TransportError:  # pragma: no cover - peer already gone
                pass
        self.transport.close()


def request_inference(
    host: str,
    port: int,
    network,
    params,
    x: list[int],
    *,
    garbler: str = "client",
    client_id: str = "client0",
    request_index: int = 0,
    seed: int | None = None,
    truncate_bits: int = 0,
    lowered=None,
    retries: int = 40,
) -> list[int]:
    """One inference against a running gateway, from the client's side.

    A thin single-request wrapper over :class:`GatewayClient`: connect,
    HELLO, one REQ cycle, GOAWAY, close. ``lowered`` may carry a
    pre-built *shape-only* lowering to amortize across calls; weights
    never materialize client-side either way.
    """
    client = GatewayClient(
        host,
        port,
        network,
        params,
        garbler=garbler,
        client_id=client_id,
        seed=seed,
        truncate_bits=truncate_bits,
        lowered=lowered,
        retries=retries,
    )
    try:
        return client.request(x, request_index=request_index)
    finally:
        client.close()


def request_stats(host: str, port: int, *, retries: int = 40) -> dict:
    """Fetch a live stats snapshot from a running gateway.

    Speaks the ``GWS1`` wire op: connect, send the 4-byte stats magic
    where a hello would normally go, read back one JSON frame. The
    gateway answers from its selector thread without minting a session,
    so probing is free of transcript side effects.
    """
    transport = SocketTransport.connect(host, port, retries=retries)
    try:
        transport.send(encode_stats_request())
        return decode_stats_reply(transport.recv(wait=True))
    finally:
        transport.close()
