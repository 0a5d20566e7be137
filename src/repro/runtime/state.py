"""Per-process state management for pool workers (fork-safety).

The crypto substrate keeps process-global state for speed: the NTT-context
LRU in :mod:`repro.he.polynomial`, the :class:`~repro.backend.rns.RnsContext`
share cache, the encoded-diagonal cache in :mod:`repro.he.linear`, and
the module-level backend selection in
:mod:`repro.backend`. Under ``fork`` start methods a worker inherits all of
it, which is *correct* for derived data (twiddle tables, CRT constants,
the modulus-factor registry — pure functions of their keys) but wrong for
*selections*: a worker must honor its own ``REPRO_BACKEND`` environment,
and must never continue the parent's RNG streams.

:func:`reset_process_state` is the one hook pool worker initializers call;
it drops the caches (cheap to rebuild, and rebuilding re-resolves backends
under the worker's own selection) and re-reads the backend environment.
Worker RNG state lives here too: each worker derives an independent
:class:`~repro.crypto.rng.SecureRandom` from (base seed, worker index) so
no two workers — and never the parent — share a stream.
"""

from __future__ import annotations

import hashlib

from repro.crypto.rng import SecureRandom

_worker_rng: SecureRandom | None = None
_worker_index: int | None = None


def reset_process_state() -> None:
    """Reset process-global crypto state after a fork (or fresh spawn).

    Clears the NTT-context LRU, the RnsContext share cache and the
    matvec's cache of encoded weight diagonals, and re-reads the backend
    selection from ``REPRO_BACKEND`` (dropping any programmatic
    ``set_backend`` the parent made). A worker therefore encodes a
    model's diagonals on its first mint and reuses them for every later
    one. The
    modulus-factor registry in :mod:`repro.crypto.modmath` is
    deliberately *not* cleared: it holds derived, input-independent data
    (a factorization is a pure property of the modulus), so inherited
    copies are safe, and workers re-register on demand anyway.
    """
    from repro.backend import RnsContext, reset_backend_selection
    from repro.he.linear import clear_plain_cache
    from repro.he.polynomial import clear_ntt_cache

    clear_ntt_cache()
    clear_plain_cache()
    RnsContext.clear_cache()
    reset_backend_selection()


def derive_worker_seed(base_seed: int, worker_index: int) -> int:
    """Independent 128-bit seed for one worker, stable across runs.

    Hash-derived rather than ``base_seed + index`` so adjacent worker
    seeds share no structure with each other or with a parent that seeds
    its own generators from the same base.
    """
    material = b"repro.runtime.worker" + base_seed.to_bytes(
        32, "little", signed=False
    ) + worker_index.to_bytes(8, "little")
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "little")


def init_worker_rng(base_seed: int | None, worker_index: int) -> None:
    """Install this worker's private RNG (None base = OS entropy)."""
    global _worker_rng, _worker_index
    _worker_index = worker_index
    if base_seed is None:
        _worker_rng = SecureRandom()
    else:
        _worker_rng = SecureRandom(derive_worker_seed(base_seed, worker_index))


def worker_rng() -> SecureRandom:
    """The per-worker RNG; falls back to OS entropy outside a pool worker."""
    global _worker_rng
    if _worker_rng is None:
        _worker_rng = SecureRandom()
    return _worker_rng


def worker_index() -> int | None:
    """This process's pool worker index (None outside a pool worker)."""
    return _worker_index
