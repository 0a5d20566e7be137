"""Multi-core offline precompute runtime.

Executes whole offline mints side by side in worker processes
(:class:`~repro.runtime.pool.PrecomputePool`) and persists the minted
precomputes in a disk-backed, LRU-evicted buffer
(:class:`~repro.runtime.store.PrecomputeStore`), mirroring the paper's
client-storage buffer that the streaming simulator models analytically.
:class:`~repro.runtime.serving.ServingLoop` closes the loop as the
serialized reference: N clients' precomputes minted in the serving thread,
admitted into per-client store namespaces under a global byte budget,
drained by interleaved online requests (§5.2's multi-client serving,
measured instead of modeled).
:class:`~repro.runtime.gateway.ServingGateway` is the concurrent
deployment shape: one selector thread multiplexing many live client
sockets while refill mints run in pool worker processes.

A mint is a pure function of its seed and compute backend, so a blob
minted in a worker is byte-identical to the same mint run in-process
(see :mod:`repro.runtime.pool`).
"""

from repro.runtime.client import GatewayClient, request_inference, request_stats
from repro.runtime.gateway import ServingGateway
from repro.runtime.pool import (
    AsyncJob,
    PrecomputePool,
    mint_offline_job,
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
    "mint_offline_job",
    "params_fingerprint",
    "request_inference",
    "request_stats",
    "reset_process_state",
    "resolve_workers",
    "worker_index",
    "worker_rng",
]
