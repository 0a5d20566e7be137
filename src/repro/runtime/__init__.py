"""Multi-core offline precompute runtime.

Executes whole offline mints side by side in worker processes
(:class:`~repro.runtime.pool.PrecomputePool`) and persists the minted
precomputes in a disk-backed, LRU-evicted buffer
(:class:`~repro.runtime.store.PrecomputeStore`), mirroring the paper's
client-storage buffer that the streaming simulator models analytically.
:class:`~repro.runtime.gateway.ServingGateway` closes the loop (§5.2's
multi-client serving, measured instead of modeled): one selector thread
multiplexes many live client sockets, N clients' precomputes are minted
in pool worker processes and admitted into per-client store namespaces
under a global byte budget, and each request drains its client's oldest.

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
from repro.runtime.serving import ServedRequest, ServingReport
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
