"""Residue-number-system (CRT) representation of a wide ciphertext modulus.

The numpy backend is exact only for moduli below 2^62, so the
paper-faithful 100/180-bit ciphertext moduli historically fell back to
the arbitrary-precision python ring. The standard fix — what SEAL and
every production HE library do — is to pick q as a *product* of small
NTT-friendly primes and keep ring elements as one residue vector per
prime: every ring operation (add, negacyclic multiply, automorphism,
scalar lift) commutes with the CRT isomorphism

    Z_q[X]/(X^n + 1)  ≅  ⨉_i  Z_{q_i}[X]/(X^n + 1),

so the whole chain runs on the vectorized backend — key switching
included, whose digits are built from the residues of a few chain primes
at a time in a 64-bit lane (see
:meth:`repro.he.params.BfvParams.gadget_factors`). Only two places need
the *integer representative* of a coefficient: decryption rounding, which
reconstructs through the CRT (:meth:`RnsContext.from_rns`), and the wire,
whose format is the little-endian representative. The wire codec
(:meth:`RnsContext.pack_le` / :meth:`RnsContext.unpack_le`) gets there
without Python ints: outbound through :meth:`RnsContext.decompose_digits`,
an exact fast base conversion that produces the base-2^16 digits of the
representative directly from the residues on small-int vectorized kernels
(bit-identical to reconstruction, see
:meth:`repro.backend.base.ComputeBackend.rns_digit_split`); inbound
through one byte-matrix product against the powers of 256 mod each prime.

:class:`RnsContext` owns the chain: the primes, the compute backend all
of its residues live on, and the precomputed CRT garbage (Q/q_i and its
inverse mod q_i). The ring element itself lives in
:class:`repro.he.polynomial.RnsPoly`, which pairs these residues with
the chain's NTT context from the shared LRU cache.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Sequence

from repro.backend import backend_for
from repro.backend.base import ComputeBackend
from repro.crypto.modmath import mod_inverse


class RnsContext:
    """Precomputed constants for one RNS prime chain.

    Cheap to build but typically shared: use :meth:`for_primes` to get a
    cached instance keyed by (primes, resolved backend names) — a bounded
    LRU, so parameter sweeps over many chains cannot grow it without
    limit (same policy as the NTT-context cache).

    The whole chain computes on ONE backend — the one that is exact for
    its largest prime — because a chain's residues are transformed
    together, as one stack.
    """

    __slots__ = (
        "primes", "q", "backend", "_m", "_m_inv", "_digit_plans", "_switch_plans"
    )

    _cache: OrderedDict[tuple, "RnsContext"] = OrderedDict()
    _cache_max = 16
    # Same compound get -> move_to_end / insert -> evict sequence, from the
    # same threads, as the NTT-context LRU (repro.he.polynomial): an
    # eviction racing a move_to_end is a KeyError without the lock.
    _cache_lock = threading.Lock()

    def __init__(self, primes: Sequence[int], prefer: str | None = None):
        primes = tuple(int(p) for p in primes)
        if not primes:
            raise ValueError("RNS chain needs at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError("RNS chain primes must be distinct")
        self.primes = primes
        q = 1
        for p in primes:
            q *= p
        self.q = q
        self.backend: ComputeBackend = backend_for(max(primes), prefer=prefer)
        self._m = tuple(q // p for p in primes)
        self._m_inv = tuple(
            mod_inverse(m % p, p) for m, p in zip(self._m, primes)
        )
        self._digit_plans: dict[int, object] = {}
        self._switch_plans: dict[tuple[int, int], tuple] = {}
        # Note: the composite q's factorization is registered with the
        # root finder by BfvParams.__post_init__, not here — RNS itself
        # never transforms at the composite modulus (only per prime), so
        # a standalone context has no use for it.

    @classmethod
    def for_primes(
        cls, primes: Sequence[int], prefer: str | None = None
    ) -> "RnsContext":
        """Shared context for a chain (re-resolves if the backend changed)."""
        primes = tuple(int(p) for p in primes)
        key = (primes, backend_for(max(primes), prefer=prefer).name)
        with cls._cache_lock:
            ctx = cls._cache.get(key)
            if ctx is not None:
                cls._cache.move_to_end(key)
                return ctx
        ctx = cls(primes, prefer=prefer)  # built outside the lock
        with cls._cache_lock:
            cls._cache[key] = ctx
            while len(cls._cache) > cls._cache_max:
                cls._cache.popitem(last=False)
        return ctx

    @classmethod
    def clear_cache(cls) -> None:
        """Drop all shared contexts (fork-safety / test isolation hook).

        A context caches its backend resolution; pool workers clear
        it so their contexts re-resolve under the worker's own backend
        selection instead of state inherited across fork().
        """
        with cls._cache_lock:
            cls._cache.clear()

    def __len__(self) -> int:
        return len(self.primes)

    # -- base conversion ----------------------------------------------------

    def to_rns(self, values) -> list:
        """Residue vectors of ``values`` (ints, a list, or a native vector).

        The backend's ``asvec`` handles the reduction, so small inputs
        (plaintext coefficients, key-switch digits, noise draws) take the
        vectorized path and only genuinely wide integers pay for
        arbitrary-precision reduction.
        """
        return [self.backend.asvec(values, p) for p in self.primes]

    def from_rns(self, residues: Sequence) -> list[int]:
        """CRT reconstruction to integer coefficients in [0, q).

        The per-prime half (r_i * (Q/q_i)^-1 mod q_i) runs vectorized; only
        the final combination against the wide Q/q_i constants is
        arbitrary-precision, so reconstruction costs O(n*k) bigint
        multiply-adds for a chain of k primes.
        """
        be = self.backend
        parts = [
            be.tolist(be.scalar_mul(r, inv, p))
            for r, inv, p in zip(residues, self._m_inv, self.primes)
        ]
        q = self.q
        big = self._m
        return [
            sum(part[j] * m for part, m in zip(parts, big)) % q
            for j in range(len(parts[0]))
        ]

    def pack_le(self, residues: Sequence, width: int) -> bytes:
        """The integer representatives as ``width``-byte little-endian
        words — the wire form of a ring element, byte-identical to
        packing ``from_rns(residues)`` one integer at a time."""
        digits = self.decompose_digits(residues, 16, -(-width // 2))
        if digits is not None:
            return self.backend.pack_le(digits, 2, width)
        exact = backend_for(self.q, prefer="python")
        return exact.pack_le([self.from_rns(residues)], width, width)

    def unpack_le(self, data, width: int) -> list:
        """Residue vectors of the ``width``-byte little-endian integers in
        ``data`` (inverse of :meth:`pack_le`; out-of-range integers are
        reduced, as every constructor from integers does)."""
        return self.backend.unpack_le(data, width, self.primes)

    def decompose_digits(
        self, residues: Sequence, base_bits: int, num_digits: int
    ) -> list | None:
        """Base-2^w digits of the integer representative, backend-native.

        The outbound half of the wire codec: equivalent to
        ``from_rns(residues)`` followed by a mask/shift split, but runs
        entirely on the backend's small-int kernels when all residues
        backend has a fast :meth:`rns_digit_split`. Returns
        ``None`` when no exact fast kernel applies (the
        python backend, or a chain/width shape the backend declined);
        :meth:`pack_le` then takes the reconstruction path. Each returned
        digit is a native vector of values < 2^base_bits and is REQUIRED
        (and tested) to be bit-identical to the reconstruction path.
        """
        be = self.backend
        plan = self._digit_plans.get(base_bits)
        if plan is None:
            plan = be.make_rns_digit_plan(self.primes, self.q, base_bits)
            self._digit_plans[base_bits] = False if plan is None else plan
        if not plan:
            return None  # backend declined this shape (refusal is cached)
        ys = [
            be.scalar_mul(r, inv, p)
            for r, inv, p in zip(residues, self._m_inv, self.primes)
        ]
        return be.rns_digit_split(ys, plan, num_digits)

    # -- modulus switching ----------------------------------------------------

    def divide_round(self, residues: Sequence, kept: int) -> list:
        """Residues mod the first ``kept`` primes of round(x / P), x the
        integer representative and P the product of the primes dropped,
        which the caller guarantees is below 2^62: the modulus switch
        from this chain to its first ``kept`` primes.

        Adding h = (P - 1)/2 turns the floor into the rounding (P is odd,
        so no coefficient sits on a tie): y = (x + h) mod P comes out of
        the dropped residues through the lane CRT the key-switch digits
        use (:meth:`~repro.backend.base.ComputeBackend.crt_lift`), and
        round(x / P) = (x + h - y) / P is exact, so per kept prime it is
        (r + h - y)·P^-1. No integer mod q anywhere.
        """
        be = self.backend
        n = be.veclen(residues[0])
        plan = self._switch_plans.get((kept, n))
        if plan is None:
            dropped = self.primes[kept:]
            product = math.prod(dropped)
            half = product // 2
            plan = self._switch_plans[(kept, n)] = (
                dropped,
                [be.asvec([half % p] * n, p) for p in self.primes],
                [mod_inverse(product % p, p) for p in self.primes[:kept]],
            )
        dropped, halves, inverses = plan
        shifted = [be.add(r, h, p) for r, h, p in zip(residues, halves, self.primes)]
        y = be.crt_lift(shifted[kept:], dropped)
        return [
            be.scalar_mul(be.sub(r, be.asvec(y, p), p), inv, p)
            for r, inv, p in zip(shifted[:kept], inverses, self.primes)
        ]
