"""The paired c0/c1 transform: correctness and pinned NTT op-counts.

``mul_plain`` and ``rotate`` multiply one shared operand (the lifted
plaintext, a key-switch digit) into both ciphertext components. The
shared operand must be forward-transformed once, and all transforms —
of every residue ring of a chain — must land in one plan call per
transform step (`NttPlan.forward` / `NttPlan.inverse` on a
``[ring][row]`` stack) rather than per-product or per-ring passes. A
call-counting stub wrapped around the cached context's plan pins the
exact call and row counts so the batching cannot silently regress to the
4-forward/2-inverse shape or to one call per ring — and pins the
transform-row and plan-call ledgers of the evaluation-domain matvec, cold
and warm (its encoded diagonals cached), so a reintroduced domain round
trip or a cache that stops hitting fails a test, not a benchmark.
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
from repro.he.linear import HomomorphicLinearEvaluator, clear_plain_cache, slot_layout
from repro.he.ntt import NegacyclicNtt
from repro.he.params import delphi_params, fast_params, toy_params
from repro.he.polynomial import RingPoly, clear_ntt_cache, multiply_shared


class CountingPlan:
    """Wraps a chain NttPlan, counting calls and — per residue ring — the
    rows each direction transformed."""

    def __init__(self, plan):
        self._plan = plan
        self.calls = Counter()
        self.ring_rows = {"forward": Counter(), "inverse": Counter()}

    def rows(self, name):
        """Rows transformed in one direction, all rings together."""
        return sum(self.ring_rows[name].values())

    def _counted(self, name, stack, *args):
        stack = [list(rows) for rows in stack]
        self.calls[name] += 1
        for ring, rows in enumerate(stack):
            self.ring_rows[name][ring] += len(rows)
        return getattr(self._plan, name)(stack, *args)

    def forward(self, stack, lazy=False):
        return self._counted("forward", stack, lazy)

    def inverse(self, stack):
        return self._counted("inverse", stack)


def _counted_context(n, q, backend):
    """The cached NegacyclicNtt for (n, q, backend) — q one modulus or a
    chain's primes — with a counting plan."""
    ctx = polynomial._context(n, q, backend)
    counter = CountingPlan(ctx._plan)
    ctx._plan = counter
    return ctx, counter


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Cold NTT contexts and cold encoded diagonals: no ledger depends on
    what an earlier test left behind."""
    clear_ntt_cache()
    clear_plain_cache()
    yield
    clear_ntt_cache()
    clear_plain_cache()


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
        batched = [
            be.tolist(v) for (v,) in ntt.multiply_shared([sv], [[o] for o in ov])
        ]
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
        assert ntt.multiply_shared([shared], []) == []
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


def on_numpy(params):
    """``params`` on the numpy backend, where a chain's ring is RNS
    residues (the python backend computes it as bigints)."""
    if "numpy" not in available_backends():
        pytest.skip("an RNS ring needs the vectorized backend")
    return dataclasses.replace(params, backend="numpy")


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
        assert counter.calls == Counter({"forward": 1, "inverse": 1})
        assert counter.rows("forward") == 3
        assert counter.rows("inverse") == 2

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
        assert counter.calls == Counter({"forward": 1, "inverse": 1})
        assert counter.rows("forward") == digits
        assert counter.rows("inverse") == 2

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
        # One forward call per rotation, digits only: no key transforms.
        assert counter.calls["forward"] == 3
        assert counter.rows("forward") == 3 * digits

    def _chain_counter(self, ctx):
        rns = ctx._rns
        return _counted_context(ctx.params.n, rns.primes, rns.backend)[1]

    def test_rns_mul_plain_is_one_call_for_every_residue_ring(self):
        params = on_numpy(toy_params(n=64))
        ctx, encoder, sk, ct = self._rig(params)
        counter = self._chain_counter(ctx)
        ctx.mul_plain(ct, encoder.encode([3] * params.n))
        # The whole chain in the two calls a single ring makes.
        assert counter.calls == Counter({"forward": 1, "inverse": 1})
        rings = range(len(params.rns_primes))
        assert counter.ring_rows["forward"] == Counter({i: 3 for i in rings})
        assert counter.ring_rows["inverse"] == Counter({i: 2 for i in rings})

    def test_rns_rotate_is_one_digit_per_chain_prime(self):
        """On a chain the key-switch digits are the residues: every
        residue ring forwards exactly len(chain) digit rows and inverts
        two, all rings in one call each way — no base conversion, no
        extra transforms."""
        params = on_numpy(toy_params(n=64))
        ctx, encoder, sk, ct = self._rig(params)
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        counter = self._chain_counter(ctx)
        rotated = ctx.rotate(ct, g, gk)
        assert params.num_decomp_digits == len(params.rns_primes) == 4
        assert counter.calls == Counter({"forward": 1, "inverse": 1})
        assert counter.ring_rows["forward"] == Counter({i: 4 for i in range(4)})
        assert counter.ring_rows["inverse"] == Counter({i: 2 for i in range(4)})
        assert encoder.decode(ctx.decrypt(sk, rotated))[:7] == list(range(1, 8))

    FAMILIES = {
        # One digit per chain prime (D = 4), prime pairs (the delphi
        # chain at degree 64: D = 3), three positional digits.
        "chain": lambda: on_numpy(toy_params(n=64)),
        "pairs": lambda: on_numpy(dataclasses.replace(delphi_params(), n=64)),
        "chainless": lambda: fast_params(n=64),
    }

    def _matvec_ledger(self, params, width, warm=False, height=None):
        """One width-w matvec at the plans: transform rows per ciphertext
        residue ring (forwards, inverses), the same pair mod t, and the
        ciphertext-ring plan calls — of a cold matvec, or ``warm``: of a
        second one on the same matrix, its diagonals already encoded.
        The matrix fills both batching rows unless ``height`` says
        otherwise, so its product takes all w steps (the full-width
        layout)."""
        ctx = BfvContext(params, SecureRandom(4))
        encoder = BatchEncoder(params)
        sk, pk = ctx.keygen()
        gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        x = list(range(1, width + 1))
        ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
        height = height or 2 * encoder.row_size
        matrix = [
            [(3 * i + j) % params.t for j in range(width)] for i in range(height)
        ]
        layout = slot_layout(height, width, encoder.row_size)
        assert layout.steps == (width if height > encoder.row_size else 1)
        if warm:
            evaluator.matvec(ct, matrix)
        if ctx._rns is not None:
            counter = self._chain_counter(ctx)
        else:
            _, counter = _counted_context(params.n, params.q, ctx._rq)
        _, plain_counter = _counted_context(params.n, params.t, encoder.backend)
        out = evaluator.matvec(ct, matrix)
        per_ring = [
            (counter.ring_rows["forward"][i], counter.ring_rows["inverse"][i])
            for i in range(len(params.rns_primes or (params.q,)))
        ]
        mod_t = (plain_counter.rows("forward"), plain_counter.rows("inverse"))
        calls = Counter(counter.calls)  # before the decryption below adds its own
        assert layout.reduce(encoder.decode(ctx.decrypt(sk, out)), params.t) == [
            sum(w * v for w, v in zip(row, x)) % params.t for row in matrix
        ]
        return per_ring, mod_t, calls

    def _matvec_rows(self, params, width):
        return self._matvec_ledger(params, width)[:2]

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

    @pytest.mark.parametrize("width", (1, 2, 8))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matvec_call_ledger(self, family, width):
        """Ciphertext-ring plan calls of one width-w matvec: an inverse
        (the accumulator's c1) and a forward (the digits) per rotation,
        plus three — the input pair forward, the diagonals' plaintexts
        forward (one block at this degree), the accumulators inverse.
        2(w - 1) + 3 whatever the chain length: four primes, six, or a
        single modulus make the same calls."""
        params = self.FAMILIES[family]()
        _, _, calls = self._matvec_ledger(params, width)
        assert calls == Counter({"forward": width + 1, "inverse": width})
        assert sum(calls.values()) == 2 * (width - 1) + 3

    @pytest.mark.parametrize("width", (1, 2, 8))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_warm_matvec_ledger(self, family, width):
        """A second matvec on the same matrix takes its plaintexts from
        the cache: per ring no plaintext forwards — 2 + (w-1) x the
        forwarded digits — and the same w + 1 inverses; nothing mod t;
        2(w - 1) + 2 ciphertext-ring plan calls."""
        params = self.FAMILIES[family]()
        digits = params.num_decomp_digits
        forwarded_digits = digits - 1 if params.rns_primes else digits
        per_ring, mod_t, calls = self._matvec_ledger(params, width, warm=True)
        assert len(per_ring) == len(params.rns_primes or (params.q,))
        for forwards, inverses in per_ring:
            assert forwards == 2 + (width - 1) * forwarded_digits
            assert inverses == width + 1
        assert mod_t == (0, 0)
        assert calls == Counter({"forward": width, "inverse": width})
        assert sum(calls.values()) == 2 * (width - 1) + 2

    @pytest.mark.parametrize("width", (2, 8))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_product_that_fits_the_slots_is_one_step(self, family, width):
        """Two outputs of any width fit the slots unrotated: the ledger of
        a width-1 matvec, cold and warm, whatever the width."""
        params = self.FAMILIES[family]()
        for warm in (False, True):
            assert self._matvec_ledger(
                params, width, warm, height=2
            ) == self._matvec_ledger(params, 1, warm)

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
