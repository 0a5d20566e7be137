"""Multi-core offline precompute runtime.

Executes the offline phase — ReLU garbling, Galois key products, whole
refill mints — across worker processes
(:class:`~repro.runtime.pool.PrecomputePool`) and persists the minted
precomputes in a disk-backed, LRU-evicted buffer
(:class:`~repro.runtime.store.PrecomputeStore`), mirroring the paper's
client-storage buffer that the streaming simulator models analytically.
:class:`~repro.runtime.serving.ServingLoop` closes the loop as the
serialized reference: N clients' precomputes minted on one shared pool,
admitted into per-client store namespaces under a global byte budget,
drained by interleaved online requests (§5.2's multi-client serving,
measured instead of modeled).
:class:`~repro.runtime.gateway.ServingGateway` is the concurrent
deployment shape: one selector thread multiplexing many live client
sockets while refill mints run in pool worker processes.

Transcript parity is the design invariant: a pooled offline phase is
byte-identical to the sequential one under the same seeds, because all
randomness is drawn by the parent in sequential order and jobs are pure
functions of pre-drawn material (see :mod:`repro.runtime.pool`).
"""

from repro.runtime.gateway import (
    GatewayClient,
    ServingGateway,
    request_inference,
    request_stats,
)
from repro.runtime.pool import (
    AsyncJob,
    PrecomputePool,
    plan_shards,
    resolve_workers,
)
from repro.runtime.serving import ServedRequest, ServingLoop, ServingReport
from repro.runtime.state import (
    derive_worker_seed,
    reset_process_state,
    worker_index,
    worker_rng,
)
from repro.runtime.store import PrecomputeStore, StoreKey, params_fingerprint

__all__ = [
    "AsyncJob",
    "GatewayClient",
    "PrecomputePool",
    "PrecomputeStore",
    "ServedRequest",
    "ServingGateway",
    "ServingLoop",
    "ServingReport",
    "StoreKey",
    "derive_worker_seed",
    "params_fingerprint",
    "plan_shards",
    "request_inference",
    "request_stats",
    "reset_process_state",
    "resolve_workers",
    "worker_index",
    "worker_rng",
]
