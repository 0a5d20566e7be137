"""Serialized multi-client serving reference over the precompute store (§5.2).

The paper's closing multi-client argument is a statement about *buffers*:
one server mints offline precomputes for N clients, each client buffers
only its own, and end-to-end throughput is governed by how fast the mint
pipeline refills what the online phase drains.
:mod:`repro.core.system` models that analytically (``num_clients``);
:class:`~repro.runtime.gateway.ServingGateway` driven by
:func:`repro.workload.drivers.replay_functional` serves it concurrently.
:class:`ServingLoop` is the strictly serialized oracle both are checked
against — one thread, one request at a time:

* **Mint** — a client's offline phase (garbling, IKNP OT, Galois keys)
  runs to completion in the serving thread.
* **Admit** — the minted transcript lands in the client's namespace of
  one :class:`~repro.runtime.store.PrecomputeStore` under a single global
  byte budget, so admitting one client's precompute can evict another's
  least-recently-used entry.
* **Drain** — round-robin online requests consume stored precomputes
  through :meth:`~repro.core.protocol.HybridProtocol.import_offline`. A
  request whose precompute was evicted (or never minted) demand-mints a
  fresh one on the spot — a *miss*.

The identity functions below (:func:`client_id`, :func:`mint_seed`,
:func:`draw_inputs`) are the one definition the loop, the gateway and
the workload drivers share, so the same ``base_seed``/``input_seed``
names the same precomputes and inputs on every path and gateway-served
logits can be compared with the loop's per ``(client, index)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.crypto.rng import SecureRandom
from repro.runtime.state import derive_worker_seed
from repro.runtime.store import PrecomputeStore, StoreKey
from repro.telemetry import PHASES, TRACER


@dataclass
class ServedRequest:
    """One drained online request and everything measured around it."""

    client: str
    index: int  # per-client request index
    hit: bool  # served from a buffered precompute (False = demand mint)
    queue_depth: int  # requests still pending when this one started
    mint_seconds: float  # demand-mint wall-clock (0.0 on a hit)
    online_seconds: float  # run_online wall-clock
    store_bytes: int  # buffer occupancy right after the drain
    # Admission -> OFFER of a request held for an in-flight refill
    # (gateway WAIT_STORE); 0.0 for every other request.
    hold_seconds: float = 0.0
    logits: list[int] = field(repr=False, default_factory=list)


@dataclass
class ServingReport:
    """Measured outcome of one serving run.

    The analytic :class:`~repro.core.system.PiSystemSimulator` reports
    the same quantities (hit rate, queue, latency decomposition) from its
    discrete-event model; this report is the measured ground truth it can
    be validated against.
    """

    num_clients: int
    requests: list[ServedRequest]
    minted: int  # total precomputes minted (prefill + refill + demand)
    demand_mints: int  # mints forced onto a request's critical path
    evictions: int  # store evictions during the run
    prefill_seconds: float
    refill_seconds: float = 0.0  # background-refill mints (off critical path)
    serve_seconds: float = 0.0  # wall-clock of the whole drain window
    concurrent: bool = False  # served through the socket gateway
    refill_overlap_seconds: float = 0.0  # window with a mint in flight
    peak_live_sessions: int = 0  # most sockets live at once (gateway)
    dropped_sessions: int = 0  # client sockets that died mid-protocol
    # Keep-alive admission tallies (gateway runs only; zero elsewhere).
    # Invariant: requests_admitted + requests_deferred + requests_rejected
    # == requests_issued, the REQs the gateway's ledger has decided.
    connections_accepted: int = 0  # HELLO handshakes completed
    requests_issued: int = 0  # REQ frames answered
    requests_admitted: int = 0  # answered with an OFFER
    requests_deferred: int = 0  # answered with BUSY (backlog over max_queue)
    requests_rejected: int = 0  # answered with GOAWAY (deferral cap hit)
    occupancy: list[dict] = field(default_factory=list)
    # Exclusive-time latency decomposition of the drain window
    # (queue/store/he_linear/gc/ot/wire -> seconds; sums to
    # serve_seconds). Populated only when telemetry is enabled.
    phase_seconds: dict = field(default_factory=dict)
    # Live gateway stats snapshot (per-client latency quantiles, queue
    # depth, store occupancy, refill in-flight). Concurrent runs only.
    gateway_stats: dict = field(default_factory=dict)
    # Per-workload columns keyed by schedule name (latency p50/p95/p99,
    # deferral rate, goodput). Populated by the workload drivers.
    workloads: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        if not self.requests:
            return 0.0
        return sum(1 for r in self.requests if r.hit) / len(self.requests)

    @property
    def max_queue_depth(self) -> int:
        return max((r.queue_depth for r in self.requests), default=0)

    @property
    def mean_queue_depth(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.queue_depth for r in self.requests) / len(self.requests)

    @property
    def mean_online_seconds(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.online_seconds for r in self.requests) / len(self.requests)

    @property
    def mean_hold_seconds(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.hold_seconds for r in self.requests) / len(self.requests)

    @property
    def total_mint_seconds(self) -> float:
        return (
            self.prefill_seconds
            + self.refill_seconds
            + sum(r.mint_seconds for r in self.requests)
        )

    @property
    def throughput_rps(self) -> float:
        """Steady-state requests/second over the drain window.

        The drain window covers online serving plus whatever minting the
        schedule put inside it — serialized in :class:`ServingLoop`,
        overlapped by the gateway's refill workers — so this is the
        number the two are compared on.
        """
        if not self.requests or self.serve_seconds <= 0:
            return 0.0
        return len(self.requests) / self.serve_seconds

    def summary(self) -> dict:
        """JSON-serializable digest (what the CI smoke job uploads)."""
        return {
            "clients": self.num_clients,
            "requests": len(self.requests),
            "hit_rate": round(self.hit_rate, 4),
            "minted": self.minted,
            "demand_mints": self.demand_mints,
            "evictions": self.evictions,
            "max_queue_depth": self.max_queue_depth,
            "mean_queue_depth": round(self.mean_queue_depth, 3),
            "mean_online_seconds": round(self.mean_online_seconds, 6),
            "mean_hold_seconds": round(self.mean_hold_seconds, 6),
            "prefill_seconds": round(self.prefill_seconds, 6),
            "refill_seconds": round(self.refill_seconds, 6),
            "serve_seconds": round(self.serve_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "concurrent": self.concurrent,
            "refill_overlap_seconds": round(self.refill_overlap_seconds, 6),
            "peak_live_sessions": self.peak_live_sessions,
            "dropped_sessions": self.dropped_sessions,
            "connections_accepted": self.connections_accepted,
            "requests_issued": self.requests_issued,
            "requests_admitted": self.requests_admitted,
            "requests_deferred": self.requests_deferred,
            "requests_rejected": self.requests_rejected,
            "total_mint_seconds": round(self.total_mint_seconds, 6),
            "queue_depths": [r.queue_depth for r in self.requests],
            "occupancy": self.occupancy,
            "phase_seconds": {
                k: round(v, 6) for k, v in self.phase_seconds.items()
            },
            "gateway_stats": self.gateway_stats,
            "workloads": self.workloads,
        }


def client_id(index: int) -> str:
    """The store namespace / wire identity of the index-th client."""
    return f"client{index}"


def occupancy(event: str, client: str, store: PrecomputeStore) -> dict:
    """One ``ServingReport.occupancy`` sample: the store after an event."""
    return {"event": event, "client": client, "bytes": store.total_bytes,
            "entries": store.entry_count}


def mint_seed(base_seed: int, client_index: int, mint_index: int) -> int:
    """The seed of one client's j-th minted precompute.

    Hash-derived per (base seed, client, mint index), so a per-client
    *sequential* rerun — mint j with this seed, serve request j — is the
    reproducible reference every serving path's outputs are tested
    against.
    """
    client_stream = derive_worker_seed(base_seed, client_index)
    return derive_worker_seed(client_stream, mint_index)


def draw_inputs(
    network, params, counts: list[int], input_seed: int = 1
) -> list[list[list[int]]]:
    """Deterministic per-client input vectors (field elements).

    Client c's j-th input is the j-th consecutive draw of
    ``SecureRandom(derive_worker_seed(input_seed, c))``; ``counts[c]`` is
    how many that client gets.
    """
    size = network.input_shape.elements
    inputs = []
    for c, count in enumerate(counts):
        rng = SecureRandom(derive_worker_seed(input_seed, c))
        inputs.append([rng.field_vector(size, params.t) for _ in range(count)])
    return inputs


class ServingLoop:
    """Serialized mint → admit → drain reference serving N clients.

    One :class:`~repro.runtime.store.PrecomputeStore` holds every
    client's precomputes in its own namespace under the store's *global*
    byte budget. Mints run in the serving thread, one after another.

    ``prefill`` precomputes are minted per client before serving starts
    (round-robin, so budget pressure hits all clients evenly — the
    admission analogue of a fair partition split); with ``refill`` each
    consumed precompute is re-minted after the request completes while
    that client still has demand. Mint and serve stay strictly
    serialized, so the admission order is deterministic.

    ``transport`` selects the session transport for every minted/served
    protocol ("memory" default; "socket" runs each one over a loopback
    TCP pair).
    """

    def __init__(
        self,
        network,
        params,
        num_clients: int,
        store: PrecomputeStore,
        garbler: str = "client",
        prefill: int = 1,
        refill: bool = True,
        base_seed: int = 0,
        model_id: str = "serving",
        transport: str | None = None,
    ):
        if num_clients < 1:
            raise ValueError("need at least one client")
        if prefill < 0:
            raise ValueError("prefill must be >= 0")
        self.network = network
        self.params = params
        self.num_clients = num_clients
        self.store = store
        self.garbler = garbler
        self.prefill = prefill
        self.refill = refill
        self.base_seed = base_seed
        self.model_id = model_id
        self.transport = transport
        self.minted = [0] * num_clients  # per-client mint counter (monotonic)
        self._occupancy: list[dict] = []

    client_id = staticmethod(client_id)

    def mint_seed(self, client_index: int, mint_index: int) -> int:
        return mint_seed(self.base_seed, client_index, mint_index)

    def draw_inputs(
        self, requests_per_client: int, input_seed: int = 1
    ) -> list[list[list[int]]]:
        return draw_inputs(
            self.network, self.params,
            [requests_per_client] * self.num_clients, input_seed,
        )

    def _protocol(self, seed: int):
        from repro.core.protocol import HybridProtocol

        return HybridProtocol(
            self.network,
            self.params,
            garbler=self.garbler,
            seed=seed,
            transport=self.transport,
        )

    # -- mint + admit -------------------------------------------------------

    def mint_one(self, client_index: int) -> float:
        """Mint one precompute for a client; returns wall-clock seconds.

        The offline phase runs here, in the serving thread; the resulting
        transcript is admitted into the client's store namespace under
        the global budget (possibly evicting another client's LRU entry).
        Raises ``ValueError`` if a single precompute exceeds the budget —
        the paper's ``buffer_capacity == 0`` regime, where serving from
        storage is impossible.
        """
        client = self.client_id(client_index)
        index = self.minted[client_index]
        with TRACER.timed_span("serving.mint", client=client) as span:
            minter = self._protocol(self.mint_seed(client_index, index))
            try:
                minter.run_offline()
                minter.export_offline(
                    self.store, self.model_id, client_id=client,
                    name=f"{index:08d}",
                )
            finally:
                minter.shutdown()
            self.minted[client_index] += 1
            self._occupancy.append(occupancy("mint", client, self.store))
        return span.seconds

    def prefill_buffers(self) -> float:
        """Mint ``prefill`` precomputes per client, interleaved round-robin."""
        with TRACER.timed_span("serving.prefill", prefill=self.prefill) as span:
            for _ in range(self.prefill):
                for c in range(self.num_clients):
                    self.mint_one(c)
        return span.seconds

    # -- drain --------------------------------------------------------------

    def serve_one(
        self, client_index: int, x: list[int], request_index: int,
        queue_depth: int = 0,
    ) -> ServedRequest:
        """Serve one online request, demand-minting on a miss.

        The import (and any demand mint) happens up front on the
        request's critical path; the online phase then runs to
        completion.
        """
        server = self._protocol(
            derive_worker_seed(self.base_seed + 0x5EED, request_index)
        )
        client = self.client_id(client_index)
        try:
            hit = server.import_offline(self.store, self.model_id, client_id=client)
            mint_seconds = 0.0
            if not hit:
                # Evicted (another client's admission) or never minted: mint
                # on the request's critical path — the measured miss penalty.
                mint_seconds = self.mint_one(client_index)
                if not server.import_offline(
                    self.store, self.model_id, client_id=client
                ):
                    raise RuntimeError(
                        f"{client}: freshly minted precompute immediately "
                        "unavailable — store budget admits no entry"
                    )
            with TRACER.timed_span(
                "serving.online", client=client, index=request_index, hit=hit,
            ) as span:
                logits = server.run_online(x)
            # Measured before teardown (transport close flushes sockets).
            online_seconds = span.seconds
        finally:
            server.shutdown()
        self._occupancy.append(occupancy("serve", client, self.store))
        return ServedRequest(
            client=client,
            index=request_index,
            hit=hit,
            queue_depth=queue_depth,
            mint_seconds=mint_seconds,
            online_seconds=online_seconds,
            store_bytes=self.store.total_bytes,
            logits=logits,
        )

    def run(
        self,
        requests_per_client: int,
        inputs: list[list[list[int]]] | None = None,
        input_seed: int = 1,
    ) -> ServingReport:
        """Serve ``requests_per_client`` interleaved requests per client.

        Requests are drained round-robin (client0's j-th, client1's j-th,
        ...), the schedule under which per-client buffers contend hardest
        for the global budget. ``inputs[c][j]`` supplies client c's j-th
        input vector; by default inputs are drawn deterministically from
        ``input_seed`` so runs are reproducible end to end.
        """
        if inputs is None:
            inputs = self.draw_inputs(requests_per_client, input_seed)
        if len(inputs) < self.num_clients or any(
            len(per_client) < requests_per_client
            for per_client in inputs[: self.num_clients]
        ):
            raise ValueError(
                f"inputs must provide >= {requests_per_client} vector(s) for "
                f"each of {self.num_clients} clients"
            )
        # Deltas/slices against the pre-run state, so a reused loop's
        # second run() reports only its own activity.
        evictions_before = self.store.evictions
        minted_before = sum(self.minted)
        occupancy_before = len(self._occupancy)
        prefill_seconds = self.prefill_buffers()

        total = requests_per_client * self.num_clients
        served: list[ServedRequest] = []
        refill_seconds = 0.0
        # The phase window brackets exactly the perf_counter reads that
        # define serve_seconds, so its exclusive-time buckets decompose
        # that very number (they sum to the window by construction).
        window = PHASES.open_window(root="wire") if TRACER.enabled else None
        phase_seconds: dict[str, float] = {}
        serve_start = time.perf_counter()
        try:
            for j in range(requests_per_client):
                for c in range(self.num_clients):
                    served.append(
                        self.serve_one(
                            c, inputs[c][j], request_index=j,
                            queue_depth=total - len(served) - 1,
                        )
                    )
                    # Background-worker analogue: replace the drained
                    # entry while this client still has demand — on the
                    # request schedule, not len(inputs), so an oversized
                    # inputs array mints nothing for requests that will
                    # never arrive.
                    if self.refill and j + 1 < requests_per_client:
                        refill_seconds += self.mint_one(c)
        finally:
            serve_seconds = time.perf_counter() - serve_start
            if window is not None:
                phase_seconds = window.close()
        return ServingReport(
            num_clients=self.num_clients,
            requests=served,
            minted=sum(self.minted) - minted_before,
            demand_mints=sum(1 for r in served if not r.hit),
            evictions=self.store.evictions - evictions_before,
            prefill_seconds=prefill_seconds,
            refill_seconds=refill_seconds,
            serve_seconds=serve_seconds,
            occupancy=list(self._occupancy[occupancy_before:]),
            phase_seconds=phase_seconds,
        )


def demo_network_and_params():
    """The tiny model every serving demo runs (shared with the examples).

    One definition, so the in-process serving demo, the two-process
    socket demo, and its server process all execute the same network.
    """
    import numpy as np

    from repro.he.params import fast_params
    from repro.nn.datasets import tiny_dataset
    from repro.nn.models import tiny_mlp

    params = fast_params(n=256)
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
    network.randomize_weights(params.t, np.random.default_rng(0))
    return network, params


def demo(
    num_clients: int = 4,
    requests_per_client: int = 1,
    workers: int | None = None,
    budget_mb: float = 8.0,
    store_dir: str | None = None,
    summary_path: str | None = None,
    concurrent: bool = False,
    transport: str | None = None,
    gateway_max_queue: int | None = None,
) -> ServingReport:
    """Self-contained serving run on a tiny network.

    Drives the whole mint → admit → drain lifecycle, checks every served
    logit vector against the plaintext oracle (eviction pressure must
    never surface a stale result), and optionally writes the queue-depth
    summary JSON. Both ``python -m repro --serve N`` and
    ``examples/multi_client_serving.py`` are thin wrappers over this.
    ``budget_mb=0`` means unbounded. The default is the serialized
    :class:`ServingLoop` (``transport="socket"`` runs every session pair
    over loopback TCP); ``concurrent`` replays the same requests as a
    zero-think closed-loop schedule through the socket gateway (driver
    threads over loopback TCP, refill mints in ``workers`` worker
    processes — the serialized loop ignores ``workers``).
    When ``store_dir`` is None the temporary store directory is removed
    before returning (after the summary, if any, is written).
    """
    import json
    import tempfile

    from repro.core.lowering import lower_network, plaintext_reference

    network, params = demo_network_and_params()
    made_tempdir = store_dir is None
    root = store_dir or tempfile.mkdtemp(prefix="repro-serving-")
    store = PrecomputeStore(root, byte_budget=int(budget_mb * 1e6) or None)
    inputs = draw_inputs(network, params, [requests_per_client] * num_clients)
    print(
        f"serving {num_clients} clients x {requests_per_client} requests "
        f"(budget {budget_mb:g} MB, {transport or 'memory'} transport, "
        f"{'concurrent gateway' if concurrent else 'serialized'} refills, "
        f"store {root})"
    )
    if concurrent:
        from repro.runtime.pool import PrecomputePool
        from repro.workload.drivers import replay_functional
        from repro.workload.generators import closed_schedule

        with PrecomputePool(workers=workers) as pool:
            print(f"  {pool.workers} whole-mint worker process(es)")
            report = replay_functional(
                closed_schedule(num_clients, requests_per_client, 0.0),
                network, params, store, pool=pool, inputs=inputs,
                gateway_max_queue=gateway_max_queue,
            )
    else:
        loop = ServingLoop(
            network, params, num_clients, store, transport=transport
        )
        report = loop.run(requests_per_client, inputs=inputs)

    lowered = lower_network(network, params.t)
    for request in report.requests:
        c = int(request.client[len("client"):])
        assert request.logits == plaintext_reference(
            lowered, inputs[c][request.index]
        )
    print(f"all {len(report.requests)} results match the plaintext reference")
    print(
        f"  hit rate {report.hit_rate:.2f}  demand mints "
        f"{report.demand_mints}  evictions {report.evictions}  "
        f"max queue depth {report.max_queue_depth}"
    )
    print(
        f"  mint {report.total_mint_seconds:.2f}s total, online "
        f"{report.mean_online_seconds * 1e3:.0f} ms mean, steady-state "
        f"{report.throughput_rps:.2f} req/s"
    )
    if report.concurrent:
        print(
            f"  refill overlap {report.refill_overlap_seconds:.2f}s, peak "
            f"{report.peak_live_sessions} live session(s), "
            f"{report.dropped_sessions} dropped"
        )
        print(
            f"  admission: {report.connections_accepted} connection(s), "
            f"{report.requests_issued} issued = "
            f"{report.requests_admitted} admitted + "
            f"{report.requests_deferred} deferred + "
            f"{report.requests_rejected} rejected"
        )
    if summary_path:
        summary = report.summary()
        summary["store_dir"] = root
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"  queue-depth summary written to {summary_path}")
    if made_tempdir:
        # The demo created this directory; a long-lived host running the
        # smoke entry point repeatedly must not accrete orphaned stores.
        import shutil

        shutil.rmtree(root, ignore_errors=True)
    return report
