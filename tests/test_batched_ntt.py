"""The paired c0/c1 transform: correctness and pinned NTT op-counts.

``mul_plain`` and ``rotate`` multiply one shared operand (the lifted
plaintext, a key-switch digit) into both ciphertext components. The
shared operand must be forward-transformed once, and all transforms must
land in batched plan calls (`forward_many` / `inverse_unscaled_many`)
rather than per-product passes. A call-counting stub wrapped around the
cached NTT plan pins the exact op counts so the batching cannot silently
regress to the 4-forward/2-inverse shape — and pins the transform-row
ledger of the evaluation-domain matvec, so a reintroduced domain round
trip fails a test, not a benchmark.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.backend import available_backends, get_backend
from repro.crypto.modmath import find_ntt_prime
from repro.crypto.rng import SecureRandom
from repro.he import polynomial
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator
from repro.he.ntt import NegacyclicNtt
from repro.he.params import delphi_params, fast_params, toy_params
from repro.he.polynomial import RingPoly, clear_ntt_cache, multiply_shared


class CountingPlan:
    """Wraps an NttPlan, counting calls and transformed vectors."""

    def __init__(self, plan):
        self._plan = plan
        self.calls = Counter()
        self.vectors = Counter()

    def _wrap(self, name, vecs_counted):
        def call(*args, **kwargs):
            self.calls[name] += 1
            self.vectors[name] += vecs_counted(*args)
            return getattr(self._plan, name)(*args, **kwargs)

        return call

    FORWARDS = ("forward", "forward_many")
    INVERSES = ("inverse", "inverse_unscaled", "inverse_unscaled_many")

    def rows(self, names):
        """Vectors transformed through any of the named entry points."""
        return sum(self.vectors[name] for name in names)

    def __getattr__(self, name):
        if name in ("forward", "inverse", "inverse_unscaled"):
            return self._wrap(name, lambda vec: 1)
        if name in ("forward_many", "inverse_unscaled_many"):
            return self._wrap(name, lambda vecs: len(vecs))
        return getattr(self._plan, name)


def _counted_context(n, q, backend):
    """The cached NegacyclicNtt for (n, q, backend) with a counting plan."""
    ctx = polynomial._context(n, q, backend)
    counter = CountingPlan(ctx._ntt._plan)
    ctx._ntt._plan = counter
    return ctx, counter


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_ntt_cache()
    yield
    clear_ntt_cache()


class TestMultiplySharedCorrectness:
    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("q_bits", (24, 40))
    def test_matches_separate_multiplies(self, backend_name, q_bits):
        rng = random.Random(q_bits)
        n = 64
        q = find_ntt_prime(q_bits, n)
        be = get_backend(backend_name)
        ntt = NegacyclicNtt(n, q, backend=be)
        shared = [rng.randrange(q) for _ in range(n)]
        others = [[rng.randrange(q) for _ in range(n)] for _ in range(3)]
        sv = be.asvec(shared, q)
        ov = [be.asvec(o, q) for o in others]
        batched = [be.tolist(v) for v in ntt.multiply_shared_vec(sv, ov)]
        separate = [ntt.multiply(shared, o) for o in others]
        assert batched == separate

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_ring_poly_helper(self, backend_name):
        rng = random.Random(8)
        n = 32
        q = find_ntt_prime(30, n)
        be = get_backend(backend_name)
        shared = RingPoly([rng.randrange(q) for _ in range(n)], q, backend=be)
        others = [
            RingPoly([rng.randrange(q) for _ in range(n)], q, backend=be)
            for _ in range(2)
        ]
        got = multiply_shared(shared, others)
        assert [p.coeffs for p in got] == [(shared * o).coeffs for o in others]

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_empty_others_returns_empty(self, backend_name):
        n = 32
        q = find_ntt_prime(28, n)
        be = get_backend(backend_name)
        ntt = NegacyclicNtt(n, q, backend=be)
        shared = be.asvec(list(range(n)), q)
        assert ntt.multiply_shared_vec(shared, []) == []
        poly = RingPoly(list(range(n)), q, backend=be)
        assert multiply_shared(poly, []) == []

    def test_ring_mismatch_raises_like_elementwise_path(self):
        rng = random.Random(3)
        n = 32
        q_a, q_b = find_ntt_prime(28, n), find_ntt_prime(29, n)
        shared = RingPoly([rng.randrange(q_a) for _ in range(n)], q_a)
        other = RingPoly([rng.randrange(q_b) for _ in range(n)], q_b)
        with pytest.raises(ValueError):
            multiply_shared(shared, [other])
        with pytest.raises(ValueError):
            shared * other  # the contract multiply_shared mirrors

    def test_rns_poly_helper(self):
        from repro.backend import RnsContext
        from repro.he.polynomial import RnsPoly

        params = toy_params(n=64)
        rng = random.Random(12)
        ctx = RnsContext.for_primes(params.rns_primes)
        mk = lambda: RnsPoly.from_coeffs(
            ctx, [rng.randrange(params.q) for _ in range(64)]
        )
        shared, a, b = mk(), mk(), mk()
        got = multiply_shared(shared, [a, b])
        assert [p.coeffs for p in got] == [
            (shared * a).coeffs,
            (shared * b).coeffs,
        ]


class TestPinnedOpCounts:
    def _rig(self, params):
        ctx = BfvContext(params, SecureRandom(4))
        encoder = BatchEncoder(params)
        sk, pk = ctx.keygen()
        ct = ctx.encrypt(pk, encoder.encode(list(range(8))))
        return ctx, encoder, sk, ct

    def test_mul_plain_is_one_batched_forward_and_inverse(self):
        params = fast_params(n=64)
        ctx, encoder, sk, ct = self._rig(params)
        _, counter = _counted_context(params.n, params.q, ctx._rq)
        ctx.mul_plain(ct, encoder.encode([5] * params.n))
        # One stacked forward of {lifted plaintext, c0, c1}; one stacked
        # inverse of the two products. No per-vector transform calls.
        assert counter.calls == Counter(
            {"forward_many": 1, "inverse_unscaled_many": 1}
        )
        assert counter.vectors["forward_many"] == 3
        assert counter.vectors["inverse_unscaled_many"] == 2

    def test_rotate_batches_per_key_digit(self):
        params = fast_params(n=64)
        ctx, encoder, sk, ct = self._rig(params)
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        _, counter = _counted_context(params.n, params.q, ctx._rq)
        ctx.rotate(ct, g, gk)
        digits = params.num_decomp_digits
        # Fused key switch: every digit forward lands in ONE stacked pass,
        # the key components arrive pre-transformed (eval-domain storage,
        # zero key-side forwards here), and the eval-domain accumulation
        # needs just one two-vector inverse for (c0_delta, c1_delta).
        assert counter.calls == Counter(
            {"forward_many": 1, "inverse_unscaled_many": 1}
        )
        assert counter.vectors["forward_many"] == digits
        assert counter.vectors["inverse_unscaled_many"] == 2

    def test_rotate_skips_key_side_forward_transforms(self):
        # The eval-domain cache is built at keygen; rotations afterwards
        # never forward-transform key material, only the decomposed digits.
        params = fast_params(n=64)
        ctx, encoder, sk, ct = self._rig(params)
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        # Eager population at keygen: per ring, a (K0, K1) pair of stacks.
        ((k0, k1),) = gk._eval[g]
        assert len(k0) == len(k1) == params.num_decomp_digits
        _, counter = _counted_context(params.n, params.q, ctx._rq)
        for _ in range(3):
            ctx.rotate(ct, g, gk)
        digits = params.num_decomp_digits
        assert counter.vectors["forward_many"] == 3 * digits
        assert counter.calls["forward"] == 0  # no per-key transforms at all

    def test_rns_mul_plain_batches_every_residue_ring(self):
        params = dataclasses.replace(toy_params(n=64), representation="rns")
        ctx, encoder, sk, ct = self._rig(params)
        counters = []
        for prime, be in zip(ctx._rns.primes, ctx._rns.backends):
            counters.append(_counted_context(params.n, prime, be)[1])
        ctx.mul_plain(ct, encoder.encode([3] * params.n))
        for counter in counters:
            assert counter.calls == Counter(
                {"forward_many": 1, "inverse_unscaled_many": 1}
            )
            assert counter.vectors["forward_many"] == 3

    def test_rns_rotate_is_one_digit_per_chain_prime(self):
        """On a chain the key-switch digits are the residues: every
        residue ring forwards exactly len(chain) digit rows in one stacked
        pass and inverts two — no base conversion, no extra transforms."""
        params = dataclasses.replace(toy_params(n=64), representation="rns")
        ctx, encoder, sk, ct = self._rig(params)
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        counters = [
            _counted_context(params.n, prime, be)[1]
            for prime, be in zip(ctx._rns.primes, ctx._rns.backends)
        ]
        rotated = ctx.rotate(ct, g, gk)
        assert params.num_decomp_digits == len(params.rns_primes) == 4
        for counter in counters:
            assert counter.calls == Counter(
                {"forward_many": 1, "inverse_unscaled_many": 1}
            )
            assert counter.vectors["forward_many"] == 4
            assert counter.vectors["inverse_unscaled_many"] == 2
        assert encoder.decode(ctx.decrypt(sk, rotated))[:7] == list(range(1, 8))

    FAMILIES = {
        # One digit per chain prime (D = 4), prime pairs (the delphi
        # chain at degree 64: D = 3), three positional digits.
        "chain": lambda: dataclasses.replace(toy_params(n=64), representation="rns"),
        "pairs": lambda: dataclasses.replace(
            delphi_params(), n=64, representation="rns"
        ),
        "chainless": lambda: fast_params(n=64),
    }

    def _matvec_rows(self, params, width):
        """Transform rows of one width-w matvec: per ciphertext residue
        ring (forwards, inverses), and the same pair mod t."""
        ctx = BfvContext(params, SecureRandom(4))
        encoder = BatchEncoder(params)
        sk, pk = ctx.keygen()
        gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        x = list(range(1, width + 1))
        ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
        if ctx._rns is not None:
            rings = list(zip(ctx._rns.primes, ctx._rns.backends))
        else:
            rings = [(params.q, ctx._rq)]
        counters = [_counted_context(params.n, q, be)[1] for q, be in rings]
        _, plain_counter = _counted_context(params.n, params.t, encoder.backend)
        matrix = [[(3 * i + j) % params.t for j in range(width)] for i in range(2)]
        out = evaluator.matvec(ct, matrix)
        (*per_ring, mod_t) = [
            (c.rows(c.FORWARDS), c.rows(c.INVERSES))
            for c in (*counters, plain_counter)
        ]
        assert encoder.decode(ctx.decrypt(sk, out))[:2] == [
            sum(w * v for w, v in zip(row, x)) % params.t for row in matrix
        ]
        return per_ring, mod_t

    @pytest.mark.parametrize("width", (1, 2, 8))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matvec_row_ledger(self, family, width):
        """Transform rows of one width-w evaluation-domain matvec, per
        residue ring: forwards 2 (c0, c1 of the input) + (w-1) rotations
        x the digits + w plaintexts, inverses one accumulator c1 per
        rotation + the two accumulators at the end. On a chain a rotation
        forwards D-1 digits — the ring's own group's digit is a
        permutation of the eval form it holds — and D without one.
        Encoding costs w inverse rows mod t.
        """
        params = self.FAMILIES[family]()
        digits = params.num_decomp_digits
        forwarded_digits = digits - 1 if params.rns_primes else digits
        per_ring, mod_t = self._matvec_rows(params, width)
        assert len(per_ring) == len(params.rns_primes or (params.q,))
        for forwards, inverses in per_ring:
            assert forwards == 2 + (width - 1) * forwarded_digits + width
            assert inverses == (width - 1) + 2
        assert mod_t == (0, width)

    @pytest.mark.parametrize(
        "family, rows", [("pairs", 25), ("chainless", 6), ("chain", 21)]
    )
    def test_rows_per_diagonal(self, family, rows):
        """What one more diagonal costs, all rings and the encode: 25
        rows on the delphi chain (6 x (2 digits + the accumulator's c1 +
        the plaintext) + 1), 6 at fast_params (3 + 1 + 1 + 1)."""
        params = self.FAMILIES[family]()

        def total(width):
            per_ring, mod_t = self._matvec_rows(params, width)
            return sum(map(sum, per_ring)) + sum(mod_t)

        assert total(8) - total(2) == 6 * rows

    def test_batched_output_still_decrypts(self):
        params = fast_params(n=64)
        ctx, encoder, sk, ct = self._rig(params)
        ct = ctx.mul_plain(ct, encoder.encode([5] * params.n))
        assert encoder.decode(ctx.decrypt(sk, ct))[:8] == [
            5 * v % params.t for v in range(8)
        ]
