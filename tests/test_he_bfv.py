"""Tests for the BFV scheme: correctness, homomorphism, noise, rotations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import SecureRandom
from repro.he.bfv import BfvContext, Ciphertext, make_ring_element
from repro.he.encoder import BatchEncoder
from repro.he.params import BfvParams, delphi_params, fast_params, toy_params
from repro.he.polynomial import RingPoly


@pytest.fixture(scope="module")
def setup():
    params = toy_params(n=128)
    ctx = BfvContext(params, SecureRandom(42))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    return params, ctx, encoder, sk, pk


class TestParams:
    def test_toy_params_valid(self):
        p = toy_params(n=128)
        assert (p.q - 1) % (2 * p.n) == 0
        assert (p.t - 1) % (2 * p.n) == 0

    def test_delta(self):
        p = toy_params(n=128)
        assert p.delta == p.q // p.t

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            BfvParams(n=100, q=401, t=11)

    def test_t_not_below_q_rejected(self):
        p = toy_params(n=128)
        with pytest.raises(ValueError):
            BfvParams(n=p.n, q=p.t, t=p.q)

    def test_ciphertext_bytes(self):
        p = toy_params(n=128)
        assert p.ciphertext_bytes == 2 * 128 * ((p.q_bits + 7) // 8)

    def test_delphi_params_shape(self):
        p = delphi_params()
        assert p.n == 2048
        assert p.t.bit_length() == 41
        # SEAL-style ~180-bit RNS chain: six distinct 30-bit NTT primes.
        assert p.q.bit_length() == 180
        assert len(p.rns_primes) == 6
        assert len(set(p.rns_primes)) == 6
        product = 1
        for prime in p.rns_primes:
            assert prime.bit_length() == 30
            assert prime < 1 << 31
            assert (prime - 1) % (2 * p.n) == 0
            product *= prime
        assert product == p.q

    def test_toy_params_carry_rns_chain(self):
        p = toy_params(n=128)
        assert p.rns_primes is not None
        product = 1
        for prime in p.rns_primes:
            assert (prime - 1) % (2 * p.n) == 0
            product *= prime
        assert product == p.q
        assert p.resolve_representation() in ("bigint", "rns")


class TestEncryptDecrypt:
    def test_roundtrip(self, setup):
        params, ctx, encoder, sk, pk = setup
        values = list(range(50))
        ct = ctx.encrypt(pk, encoder.encode(values))
        assert encoder.decode(ctx.decrypt(sk, ct))[:50] == values

    @given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, setup, values):
        params, ctx, encoder, sk, pk = setup
        values = [v % params.t for v in values]
        ct = ctx.encrypt(pk, encoder.encode(values))
        assert encoder.decode(ctx.decrypt(sk, ct))[: len(values)] == values

    def test_fresh_ciphertext_has_budget(self, setup):
        params, ctx, encoder, sk, pk = setup
        ct = ctx.encrypt(pk, encoder.encode([1, 2, 3]))
        assert ctx.noise_budget_bits(sk, ct) > 40

    def test_unreduced_plaintext_rejected(self, setup):
        params, ctx, encoder, sk, pk = setup
        bad = RingPoly([params.t] + [0] * (params.n - 1), params.t + 1)
        with pytest.raises(ValueError):
            ctx.encrypt(pk, bad)

    def test_wrong_degree_rejected(self, setup):
        params, ctx, encoder, sk, pk = setup
        bad = RingPoly([1] * (params.n // 2), params.t)
        with pytest.raises(ValueError):
            ctx.encrypt(pk, bad)


class TestNoiseBudget:
    """Measured at the ciphertext's own modulus q: the scheme's maximum
    ``(q // 2t).bit_length()`` when noiseless, one bit less per bit of
    noise."""

    @staticmethod
    def trivial(params, message, noise, primes=None):
        """``(Δm + noise, 0)`` at the product of ``primes``, a prefix of the
        chain (all of it by default)."""
        q = params.q if primes is None else math.prod(primes)
        c0 = [(q // params.t) * m + noise for m in message.coeffs]
        pair = [make_ring_element(v, params) for v in (c0, [0] * params.n)]
        if primes is not None:
            pair = [poly.reduce_to(primes) for poly in pair]
        return Ciphertext(params, *pair)

    @pytest.mark.parametrize("switched", [False, True], ids=["q", "switched"])
    def test_noiseless_is_the_maximum_and_noise_one_a_bit_less(self, setup, switched):
        params, ctx, encoder, sk, pk = setup
        primes = params.switched_primes if switched else None
        q = params.switched_q if switched else params.q
        maximum = (q // (2 * params.t)).bit_length()
        assert maximum < q.bit_length()
        message = encoder.encode([5, 6, 7])
        for noise in (0, 1):
            ct = self.trivial(params, message, noise, primes)
            assert ct.q == q
            assert ctx.decrypt(sk, ct) == message
            assert ctx.noise_budget_bits(sk, ct) == maximum - noise


class TestModSwitch:
    def test_a_switched_ciphertext_decrypts_at_its_own_modulus(self, setup):
        params, ctx, encoder, sk, pk = setup
        values = list(range(40))
        ct = ctx.mod_switch(ctx.encrypt(sk, encoder.encode(values)))
        assert ct.seed is None
        assert ct.q == params.switched_q == math.prod(params.rns_primes[:3])
        assert ct.byte_size == params.switched_ciphertext_bytes
        assert params.switched_ciphertext_bytes < params.ciphertext_bytes
        assert encoder.decode(ctx.decrypt(sk, ct))[:40] == values

    def test_nothing_dropped_is_the_identity(self):
        params = fast_params(n=128)
        assert params.switched_primes is None
        assert params.switched_q == params.q
        assert params.switched_ciphertext_bytes == params.ciphertext_bytes
        ctx = BfvContext(params, SecureRandom(3))
        sk = ctx.secret_keygen()
        ct = ctx.encrypt(sk, BatchEncoder(params).encode([1, 2]))
        assert ctx.mod_switch(ct) is ct

    def test_delphi_keeps_two_of_its_three_groups(self):
        params = delphi_params()
        assert params.switched_primes == params.rns_primes[:4]
        assert params.switched_q.bit_length() == 120
        assert params.switched_ciphertext_bytes == 2 * 2048 * 15


class TestHomomorphism:
    def test_ciphertext_addition(self, setup):
        params, ctx, encoder, sk, pk = setup
        a, b = [5, 10, 15], [1, 2, 3]
        ct = ctx.encrypt(pk, encoder.encode(a)) + ctx.encrypt(pk, encoder.encode(b))
        assert encoder.decode(ctx.decrypt(sk, ct))[:3] == [6, 12, 18]

    def test_ciphertext_subtraction(self, setup):
        params, ctx, encoder, sk, pk = setup
        a, b = [5, 10, 15], [1, 2, 3]
        ct = ctx.encrypt(pk, encoder.encode(a)) - ctx.encrypt(pk, encoder.encode(b))
        assert encoder.decode(ctx.decrypt(sk, ct))[:3] == [4, 8, 12]

    def test_negation(self, setup):
        params, ctx, encoder, sk, pk = setup
        ct = -ctx.encrypt(pk, encoder.encode([7]))
        assert encoder.decode(ctx.decrypt(sk, ct))[0] == params.t - 7

    def test_add_plain(self, setup):
        params, ctx, encoder, sk, pk = setup
        ct = ctx.add_plain(ctx.encrypt(pk, encoder.encode([5])), encoder.encode([3]))
        assert encoder.decode(ctx.decrypt(sk, ct))[0] == 8

    def test_sub_plain(self, setup):
        params, ctx, encoder, sk, pk = setup
        ct = ctx.sub_plain(ctx.encrypt(pk, encoder.encode([5])), encoder.encode([3]))
        assert encoder.decode(ctx.decrypt(sk, ct))[0] == 2

    def test_mul_plain(self, setup):
        params, ctx, encoder, sk, pk = setup
        values = [1, 2, 3, 4]
        weights = [9, 8, 7, 6]
        ct = ctx.mul_plain(
            ctx.encrypt(pk, encoder.encode(values)),
            encoder.encode(weights + [0] * (params.n - 4)),
        )
        decoded = encoder.decode(ctx.decrypt(sk, ct))[:4]
        assert decoded == [v * w % params.t for v, w in zip(values, weights)]

    @given(
        st.integers(min_value=0, max_value=2**17 - 1),
        st.integers(min_value=0, max_value=2**17 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_mul_plain_property(self, setup, a, b):
        params, ctx, encoder, sk, pk = setup
        a, b = a % params.t, b % params.t
        ct = ctx.mul_plain(ctx.encrypt(pk, encoder.encode([a])), encoder.encode([b] * params.n))
        assert encoder.decode(ctx.decrypt(sk, ct))[0] == a * b % params.t

    def test_wrap_around_modulus(self, setup):
        params, ctx, encoder, sk, pk = setup
        v = params.t - 1
        ct = ctx.add_plain(ctx.encrypt(pk, encoder.encode([v])), encoder.encode([2]))
        assert encoder.decode(ctx.decrypt(sk, ct))[0] == 1


class TestRotations:
    def test_rotate_by_one(self, setup):
        params, ctx, encoder, sk, pk = setup
        row = params.row_size
        values = list(range(row)) * 2
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        ct = ctx.rotate(ctx.encrypt(pk, encoder.encode(values)), g, gk)
        decoded = encoder.decode(ctx.decrypt(sk, ct))
        assert decoded[:row] == [(i + 1) % row for i in range(row)]

    def test_rotate_rows_independently(self, setup):
        params, ctx, encoder, sk, pk = setup
        row = params.row_size
        values = [1] * row + [2] * row
        g = encoder.galois_element_for_rotation(3)
        gk = ctx.galois_keygen(sk, [g])
        ct = ctx.rotate(ctx.encrypt(pk, encoder.encode(values)), g, gk)
        decoded = encoder.decode(ctx.decrypt(sk, ct))
        assert decoded[:row] == [1] * row
        assert decoded[row:] == [2] * row

    def test_missing_galois_key_raises(self, setup):
        params, ctx, encoder, sk, pk = setup
        gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
        ct = ctx.encrypt(pk, encoder.encode([1]))
        with pytest.raises(KeyError):
            ctx.rotate(ct, encoder.galois_element_for_rotation(2), gk)

    def test_full_row_rotation_is_identity(self, setup):
        params, ctx, encoder, sk, pk = setup
        row = params.row_size
        values = list(range(row)) * 2
        ct = ctx.encrypt(pk, encoder.encode(values))
        g1 = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g1])
        for _ in range(row):
            ct = ctx.rotate(ct, g1, gk)
        assert encoder.decode(ctx.decrypt(sk, ct)) == values

    def test_row_swap(self, setup):
        params, ctx, encoder, sk, pk = setup
        row = params.row_size
        values = [1] * row + [2] * row
        g = encoder.galois_element_for_row_swap()
        gk = ctx.galois_keygen(sk, [g])
        ct = ctx.rotate(ctx.encrypt(pk, encoder.encode(values)), g, gk)
        decoded = encoder.decode(ctx.decrypt(sk, ct))
        assert decoded[:row] == [2] * row
        assert decoded[row:] == [1] * row
