"""Regression tests for the bounded NTT-context LRU cache.

The cache (`repro.he.polynomial._NTT_CACHE`) backs every RingPoly/RnsPoly
multiplication; these tests pin the behaviours the rest of the system
relies on: clearing, the LRU eviction order (recently used entries
survive), per-backend keying, and that an RNS chain is ONE context in
ONE slot — keyed (n, primes, backend), dropped by ``clear_ntt_cache()``
and by ``repro.runtime.reset_process_state()`` — reused in steady state.
"""

import random
import sys
import threading

import pytest

from repro.backend import RnsContext, available_backends, get_backend
from repro.crypto.modmath import find_ntt_prime
from repro.crypto.rng import SecureRandom
from repro.he import polynomial
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.params import toy_params
from repro.he.polynomial import (
    RingPoly,
    clear_ntt_cache,
    ntt_cache_keys,
    ntt_cache_size,
)

N = 16


def _mul_at(q):
    RingPoly([1] * N, q) * RingPoly([2] * N, q)
    return q


def _distinct_primes(count, start_bits=20):
    primes, bits = [], start_bits
    while len(primes) < count:
        p = find_ntt_prime(bits, N)
        if p not in primes:
            primes.append(p)
        bits += 1
    return primes


class TestLruBasics:
    def test_clear_resets(self):
        _mul_at(find_ntt_prime(20, N))
        assert ntt_cache_size() > 0
        clear_ntt_cache()
        assert ntt_cache_size() == 0
        assert ntt_cache_keys() == ()

    def test_hit_does_not_grow_cache(self):
        clear_ntt_cache()
        q = find_ntt_prime(21, N)
        _mul_at(q)
        size = ntt_cache_size()
        for _ in range(5):
            _mul_at(q)
        assert ntt_cache_size() == size

    def test_eviction_is_oldest_first(self):
        clear_ntt_cache()
        primes = _distinct_primes(polynomial._NTT_CACHE_MAX + 2)
        fill = primes[: polynomial._NTT_CACHE_MAX]
        for q in fill:
            _mul_at(q)
        assert ntt_cache_size() == polynomial._NTT_CACHE_MAX
        # One more insert evicts exactly the oldest entry.
        _mul_at(primes[polynomial._NTT_CACHE_MAX])
        keys = ntt_cache_keys()
        assert len(keys) == polynomial._NTT_CACHE_MAX
        assert all(key[1] != fill[0] for key in keys)
        assert any(key[1] == fill[1] for key in keys)

    def test_reuse_refreshes_lru_position(self):
        clear_ntt_cache()
        primes = _distinct_primes(polynomial._NTT_CACHE_MAX)
        for q in primes:
            _mul_at(q)
        _mul_at(primes[0])  # touch the oldest: it must now survive
        # A fresh prime outside the fill range evicts primes[1] instead.
        _mul_at(find_ntt_prime(60, N))
        keys = ntt_cache_keys()
        assert any(key[1] == primes[0] for key in keys)
        assert all(key[1] != primes[1] for key in keys)
        # The touched entry sits ahead of the new insert, at the MRU end.
        assert keys[-2][1] == primes[0]

    def test_keys_are_per_backend(self):
        clear_ntt_cache()
        q = find_ntt_prime(22, N)
        names = available_backends()
        for name in names:
            be = get_backend(name)
            RingPoly([1] * N, q, backend=be) * RingPoly([2] * N, q, backend=be)
        assert ntt_cache_size() == len(names)
        assert {key[2] for key in ntt_cache_keys()} == set(names)


class TestConcurrentLru:
    """Both shared LRUs — NTT contexts here, RNS chains in
    ``RnsContext.for_primes`` — run a compound get -> move_to_end /
    insert -> evict sequence, and the gateway's refill and selector
    threads both run HE work: hammer each from two threads over more keys
    than it holds, so hits, inserts and evictions interleave."""

    @staticmethod
    def _hammer(lookup, keys, rounds):
        errors = []

        def worker(seed):
            # Random picks: mostly hits, steady evictions — the lost race
            # is a hit whose entry the other thread evicts before the
            # move_to_end (a sequential sweep would never hit at all).
            rng = random.Random(seed)
            try:
                for _ in range(rounds):
                    lookup(rng.choice(keys))
            except Exception as exc:  # surfaces as a KeyError
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in (1, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_ntt_context_cache(self):
        clear_ntt_cache()
        be = get_backend("python")  # cheap contexts: the race is in the dict
        primes = _distinct_primes(polynomial._NTT_CACHE_MAX + 6, start_bits=14)
        self._hammer(lambda q: polynomial._context(N, q, be), primes, 20000)
        assert ntt_cache_size() == polynomial._NTT_CACHE_MAX
        assert len(set(ntt_cache_keys())) == polynomial._NTT_CACHE_MAX
        clear_ntt_cache()

    def test_rns_context_cache(self):
        RnsContext.clear_cache()
        primes = _distinct_primes(RnsContext._cache_max + 7, start_bits=14)
        chains = [tuple(primes[i : i + 2]) for i in range(len(primes) - 1)]
        assert len(chains) > RnsContext._cache_max
        self._hammer(RnsContext.for_primes, chains, 60000)
        assert len(RnsContext._cache) == RnsContext._cache_max
        for chain in chains[-3:]:
            assert RnsContext.for_primes(chain).primes == chain
        RnsContext.clear_cache()


class TestRnsChainCaching:
    @pytest.fixture()
    def rig(self):
        import dataclasses

        clear_ntt_cache()
        params = dataclasses.replace(toy_params(n=128), representation="rns")
        ctx = BfvContext(params, SecureRandom(11))
        encoder = BatchEncoder(params)
        sk, pk = ctx.keygen()
        return params, ctx, encoder, sk, pk

    def test_one_slot_for_the_whole_chain(self, rig):
        params, ctx, encoder, sk, pk = rig
        ctx.encrypt(pk, encoder.encode([1, 2, 3]))
        backend = ctx._rns.backend.name
        # The chain's slot is keyed by its primes; the encoder's mod-t
        # transform has its own. No per-prime contexts beside them, and
        # nothing built a context at the wide composite q.
        assert set(ntt_cache_keys()) == {
            (params.n, params.rns_primes, backend),
            (params.n, params.t, encoder.backend.name),
        }
        chain = polynomial._context(params.n, params.rns_primes, ctx._rns.backend)
        assert chain.moduli == params.rns_primes
        assert ntt_cache_size() == 2  # a hit, not a new slot

    def test_clear_and_process_reset_drop_the_chain_slot(self, rig):
        from repro.runtime import reset_process_state

        params, ctx, encoder, sk, pk = rig
        for drop in (clear_ntt_cache, reset_process_state):
            ctx.encrypt(pk, encoder.encode([1, 2, 3]))
            assert any(key[1] == params.rns_primes for key in ntt_cache_keys())
            drop()
            assert ntt_cache_keys() == ()

    def test_steady_state_does_not_thrash(self, rig):
        params, ctx, encoder, sk, pk = rig
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        ct = ctx.encrypt(pk, encoder.encode(list(range(10))))
        before = set(ntt_cache_keys())
        size_before = ntt_cache_size()
        for _ in range(3):
            ct = ctx.rotate(ctx.mul_plain(ct, encoder.encode([3] * params.n)), g, gk)
        # Repeated full-width ciphertext ops reuse the chain's context:
        # no new entries, no evictions, no rebuild churn.
        assert set(ntt_cache_keys()) == before
        assert ntt_cache_size() == size_before
        assert encoder.decode(ctx.decrypt(sk, ct))[:3] == [
            27 * v % params.t for v in (3, 4, 5)
        ]


class TestCacheCorrectnessUnderEviction:
    def test_results_survive_eviction_and_rebuild(self):
        """Evicting a context and rebuilding it gives identical products."""
        clear_ntt_cache()
        rng = random.Random(9)
        q = find_ntt_prime(26, N)
        a = [rng.randrange(q) for _ in range(N)]
        b = [rng.randrange(q) for _ in range(N)]
        first = (RingPoly(a, q) * RingPoly(b, q)).coeffs
        for p in _distinct_primes(polynomial._NTT_CACHE_MAX + 1, start_bits=27):
            _mul_at(p)
        assert all(key[1] != q for key in ntt_cache_keys())  # evicted
        assert (RingPoly(a, q) * RingPoly(b, q)).coeffs == first
