"""Pluggable vectorized compute backends for the crypto/HE/GC hot path.

The functional substrate (NTT, ring polynomials, BFV, garbled-circuit
label batches, lowered linear layers) runs on whichever
:class:`~repro.backend.base.ComputeBackend` the registry resolves:

* ``python`` — exact arbitrary-precision reference (any modulus).
* ``numpy``  — vectorized ``uint64`` residue arithmetic (moduli < 2^62),
  typically 10-100x faster; only registered when numpy imports.

Selection precedence, highest first:

1. an explicit ``backend=`` argument on the constructor being called
   (``RingPoly``, ``Ntt``, ``BfvParams.backend``, ``HybridProtocol``),
2. :func:`set_backend` (what the ``--backend`` CLI flag calls),
3. the ``REPRO_BACKEND`` environment variable (read at import),
4. ``auto``: numpy when available, python otherwise.

Whatever is selected, :func:`backend_for` silently falls back to the
python backend for any modulus the chosen backend cannot compute exactly
(q >= 2^62), so correctness never depends on configuration. Wide
ciphertext moduli avoid that fallback via :class:`RnsContext`
(:mod:`repro.backend.rns`): parameter sets carrying a CRT prime chain
represent ring elements as per-prime residues, every one of which the
vectorized backend handles exactly — see
:class:`repro.he.polynomial.RnsPoly`.
"""

from __future__ import annotations

import contextlib
import os

from repro.backend.base import ComputeBackend, NttPlan
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.python_backend import PythonBackend

__all__ = [
    "ComputeBackend",
    "NttPlan",
    "RnsContext",
    "available_backends",
    "active_backend_name",
    "backend_for",
    "get_backend",
    "reset_backend_selection",
    "set_backend",
    "using_backend",
]

_REGISTRY: dict[str, ComputeBackend] = {"python": PythonBackend()}
if NumpyBackend is not None:
    _REGISTRY["numpy"] = NumpyBackend()

_VALID = ("auto",) + tuple(sorted(_REGISTRY))

def _selection_from_env() -> str:
    name = os.environ.get("REPRO_BACKEND", "").strip().lower() or "auto"
    return name if name in _VALID else "auto"  # fail soft, stay functional


_active: str = _selection_from_env()


def reset_backend_selection() -> str:
    """Re-read the selection from ``REPRO_BACKEND``, dropping set_backend().

    Pool worker initializers call this (via
    :func:`repro.runtime.reset_process_state`) so a forked worker's
    selection is governed by the environment it actually runs in rather
    than whatever the parent last set programmatically.
    """
    global _active
    _active = _selection_from_env()
    return _active


def available_backends() -> tuple[str, ...]:
    """Names of the backends this interpreter can actually run."""
    return tuple(sorted(_REGISTRY))


def active_backend_name() -> str:
    """The current selection ('auto', 'python', or 'numpy')."""
    return _active


def set_backend(name: str) -> None:
    """Select the compute backend for subsequently built objects.

    Cached NTT contexts are keyed by backend, so switching is safe at any
    point; existing ``RingPoly`` instances keep the backend they were
    built with.
    """
    global _active
    name = name.strip().lower()
    if name not in _VALID:
        raise ValueError(
            f"unknown backend {name!r}; choose one of {', '.join(_VALID)}"
        )
    _active = name


@contextlib.contextmanager
def using_backend(name: str):
    """Select ``name`` for a block, then restore the previous selection.

    The scoped form of :func:`set_backend`: whatever was active before —
    an environment choice, an earlier ``set_backend`` — is active again
    afterwards, so code that mints in this process and in pool workers
    (which re-read the environment) keeps agreeing on the backend.
    """
    global _active
    previous = _active
    set_backend(name)
    try:
        yield
    finally:
        _active = previous


def get_backend(name: str | None = None) -> ComputeBackend:
    """Resolve a backend name ('auto'/None means the active selection)."""
    name = (name or _active).strip().lower()
    if name == "auto":
        return _REGISTRY.get("numpy", _REGISTRY["python"])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose one of {', '.join(_VALID)}"
        ) from None


def backend_for(q: int, prefer: str | None = None) -> ComputeBackend:
    """The backend that will compute exactly for modulus ``q``.

    ``prefer`` overrides the active selection (used to honor
    ``BfvParams.backend``); an unavailable or unknown preference fails
    soft to the 'auto' resolution so configs stay portable across
    machines. Oversized moduli always fall back to the python reference
    backend regardless of selection.
    """
    name = prefer if prefer and prefer != "auto" else _active
    if name == "auto":
        backend = _REGISTRY.get("numpy", _REGISTRY["python"])
    else:
        backend = _REGISTRY.get(name.strip().lower())
        if backend is None:
            backend = _REGISTRY.get("numpy", _REGISTRY["python"])
    if backend.supports_modulus(q):
        return backend
    return _REGISTRY["python"]


# Imported last: repro.backend.rns resolves its chain's backend through
# backend_for above, so it needs this module's registry to exist first.
from repro.backend.rns import RnsContext  # noqa: E402
