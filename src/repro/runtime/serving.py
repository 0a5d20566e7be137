"""Multi-client serving: the report, shared identities, demo model (§5.2).

The paper's closing multi-client argument is a statement about *buffers*:
one server mints offline precomputes for N clients, each client buffers
only its own, and end-to-end throughput is governed by how fast the mint
pipeline refills what the online phase drains.
:mod:`repro.core.system` models that analytically (``num_clients``);
:class:`~repro.runtime.gateway.ServingGateway`, driven by
:func:`repro.workload.drivers.replay_functional`, serves it for real and
measures it in a :class:`ServingReport`.

The identity functions below (:func:`client_id`, :func:`mint_seed`,
:func:`draw_inputs`) are the one definition the gateway, the workload
drivers and the tests share, so the same ``base_seed``/``input_seed``
names the same precomputes and inputs on every path. The reference a
served logit vector is checked against is the per-client *sequential*
run — ``HybridProtocol(seed=mint_seed(base, c, j))``, offline then
online on request j's input — or, equivalently, the plaintext oracle.
:func:`repro.workload.cli.demo_workload` is the one functional serving
run; ``python -m repro --workload closed --workload-think 0`` is its
zero-think closed loop, each client issuing its next request as soon as
the last one is answered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import SecureRandom
from repro.runtime.state import derive_worker_seed
from repro.runtime.store import PrecomputeStore


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
    refill_overlap_seconds: float = 0.0  # window with a mint in flight
    peak_live_sessions: int = 0  # most sockets live at once
    dropped_sessions: int = 0  # client sockets that died mid-protocol
    # Keep-alive admission tallies. Invariant: requests_admitted +
    # requests_deferred + requests_rejected == requests_issued, the REQs
    # the gateway's ledger has decided.
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
    # depth, store occupancy, refill in-flight).
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
        schedule put inside it (demand mints inline, refills overlapped in
        the pool's workers), so this is the number a sequential
        mint-then-serve baseline is compared against.
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

