"""SecureRandom's whole-vector draws: what key material is sampled from.

The vector draws replace per-coefficient ``getrandbits``/``randrange``
loops. They must be a pure function of the seed (plain ints, no backend
in sight), land in the right support with the right distribution, and
really draw in bulk.
"""

import random
import struct
from collections import Counter

import numpy as np
import pytest

from repro.crypto.rng import SecureRandom
from repro.he.params import delphi_params, fast_params


class CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def counted(seed):
    rng = SecureRandom(seed)
    rng._rng = CountingRandom(seed)
    return rng


class TestFieldVector:
    @pytest.mark.parametrize(
        "modulus",
        [
            3,
            (1 << 30) - 35,
            (1 << 30) + 3,  # just over a power of two: half the draws rejected
            (1 << 41) - 21,
            (1 << 62) - 57,
            (1 << 64) + 13,
            (1 << 180) - 47,
        ],
    )
    def test_range_determinism_and_length(self, modulus):
        got = SecureRandom(7).field_vector(500, modulus)
        assert len(got) == 500
        assert all(type(v) is int and 0 <= v < modulus for v in got)
        assert got == SecureRandom(7).field_vector(500, modulus)
        assert got != SecureRandom(8).field_vector(500, modulus)
        assert SecureRandom(7).field_vector(0, modulus) == []

    def test_uniform_over_a_small_field(self):
        counts = Counter(SecureRandom(1).field_vector(30000, 5))
        assert set(counts) == set(range(5))
        for value in range(5):  # 6000 expected, sigma ~ 69
            assert abs(counts[value] - 6000) < 400

    def test_uniform_just_above_a_power_of_two(self):
        """Rejection, not reduction: mod-reducing 31-bit words into
        [0, 2^30 + 3) would make the low values twice as likely."""
        modulus = (1 << 30) + 3
        got = SecureRandom(2).field_vector(20000, modulus)
        low = sum(v < modulus // 2 for v in got)
        assert abs(low - 10000) < 500

    def test_draws_in_bulk(self):
        rng = counted(3)
        rng.field_vector(2048, (1 << 30) - 35)
        # One pass plus the few top-up passes rejection needs — not 2048.
        assert rng._rng.calls <= 4


class TestTernaryVector:
    def test_support_and_balance(self):
        got = SecureRandom(4).ternary_vector(30000)
        counts = Counter(got)
        assert set(counts) == {-1, 0, 1}
        for value in (-1, 0, 1):
            assert abs(counts[value] - 10000) < 500

    def test_one_draw_per_polynomial(self):
        rng = counted(5)
        assert len(rng.ternary_vector(2048)) == 2048
        assert rng._rng.calls == 1

    def test_seeded_stream(self):
        a, b = SecureRandom(5), SecureRandom(5)
        assert a.ternary_vector(64) == b.ternary_vector(64)
        assert a.ternary_vector(64) == b.ternary_vector(64)  # and advances
        assert SecureRandom(5).ternary_vector(64) != a.ternary_vector(64)


def reference_field_vector(rng, n, modulus):
    """The per-word loop the numpy pass replaces: same bytes, same order.
    Up to 2^63, 64-bit words below the largest multiple of the modulus,
    reduced; beyond, words masked to the modulus' bit length, below it."""
    bits = modulus.bit_length()
    width = 8 if modulus <= 1 << 63 else (bits + 7) // 8
    limit = (1 << 64) // modulus * modulus
    out = []
    while len(out) < n:
        data = rng.bytes((n - len(out)) * width)
        words = [int.from_bytes(data[i : i + width], "little")
                 for i in range(0, len(data), width)]
        if modulus <= 1 << 63:
            out += [w % modulus for w in words if w < limit]
        else:
            out += [v for v in (w & ((1 << bits) - 1) for w in words) if v < modulus]
    return out


def reference_ternary_vector(rng, n):
    return [w % 3 - 1 for w in struct.unpack(f"<{n}I", rng.bytes(4 * n))]


class TestOnePassDraws:
    """Moduli up to 64 bits and the ternary draw read their words as one
    array: the values, their order and the stream position afterwards are
    the reference loop's."""

    MODULI = [
        *delphi_params().rns_primes,
        fast_params().q,
        fast_params().t,
        (1 << 41) - 21,
        3,
        (1 << 30) + 3,
        (1 << 32) - 5,
        (1 << 62) + 1,  # a quarter of the words rejected: retry passes
        1 << 63,  # every word kept
        (1 << 64) - 59,  # past 2^63: masked words
    ]

    @pytest.mark.parametrize("n", (0, 1, 16, 2048))
    @pytest.mark.parametrize("modulus", MODULI)
    def test_field_vector_is_the_reference_loop(self, modulus, n):
        fast, slow = SecureRandom(11), SecureRandom(11)
        got = fast.field_vector(n, modulus)
        assert got == reference_field_vector(slow, n, modulus)
        assert all(type(v) is int for v in got)
        assert fast.bytes(16) == slow.bytes(16)  # the same stream position

    def test_rejection_retries_take_the_same_words(self):
        modulus = (1 << 62) + 1  # a quarter of the 64-bit words rejected
        fast, slow = counted(12), counted(12)
        got = fast.field_vector(2048, modulus)
        assert got == reference_field_vector(slow, 2048, modulus)
        assert fast._rng.calls == slow._rng.calls > 1
        assert fast.field_vector(5, modulus) == reference_field_vector(slow, 5, modulus)

    @pytest.mark.parametrize("modulus", [*MODULI, (1 << 180) - 47])
    def test_the_array_draws_are_the_list_draws(self, modulus):
        """A caller that computes on a draw gets the same values as an
        array (int64 up to 2^63, Python ints beyond), and the stream moves
        on the same."""
        a, b = SecureRandom(14), SecureRandom(14)
        got = a.field_array(300, modulus)
        assert got.dtype == (np.int64 if modulus <= 1 << 63 else object)
        assert got.tolist() == b.field_vector(300, modulus)
        ternary = a.ternary_array(64)
        assert ternary.dtype == np.int64
        assert ternary.tolist() == b.ternary_vector(64)
        assert a.bytes(16) == b.bytes(16)

    @pytest.mark.parametrize(
        "modulus", [2, 3, delphi_params().t, (1 << 62) - 57, (1 << 62) + 1]
    )
    def test_the_last_kept_word_is_below_the_largest_multiple(self, modulus, monkeypatch):
        """Words up to ``limit - 1`` are kept and reduced, ``limit`` (the
        largest multiple of the modulus under 2^64) and above are redrawn."""
        limit = (1 << 64) // modulus * modulus
        passes = [[limit - 1, limit, 0, modulus], [modulus + 1]]
        if limit == 1 << 64:  # a power of two: every word is kept
            passes = [[limit - 1, 0, modulus, modulus + 1]]
        asked = []

        def words(count, width):
            asked.append((count, width))
            return np.array(passes[len(asked) - 1], dtype=np.uint64)

        rng = SecureRandom(0)
        monkeypatch.setattr(rng, "_words", words)
        got = rng.field_vector(4, modulus)
        assert got == [modulus - 1, 0, 0, 1 % modulus]
        assert all(0 <= v < modulus for v in got)
        assert asked == [(4, 8), (1, 8)][: len(passes)]

    @pytest.mark.parametrize("n", (0, 1, 16, 2048))
    def test_ternary_vector_is_the_reference_loop(self, n):
        fast, slow = SecureRandom(13), SecureRandom(13)
        got = fast.ternary_vector(n)
        assert got == reference_ternary_vector(slow, n)
        assert all(type(v) is int for v in got)
        assert fast.ternary_vector(7) == reference_ternary_vector(slow, 7)


class TestCenteredBinomialVector:
    @pytest.mark.parametrize("eta", (1, 2, 4, 8))
    def test_support_mean_and_variance(self, eta):
        got = SecureRandom(6).centered_binomial_vector(40000, eta)
        assert min(got) >= -eta and max(got) <= eta
        mean = sum(got) / len(got)
        variance = sum(v * v for v in got) / len(got) - mean * mean
        assert abs(mean) < 0.05
        assert abs(variance - eta / 2) < 0.08 * max(1, eta / 2)  # Var = eta/2

    def test_extremes_occur_at_the_default_width(self):
        got = Counter(SecureRandom(7).centered_binomial_vector(60000, 4))
        assert got[4] > 0 and got[-4] > 0  # P = 2^-8 each

    def test_one_draw_per_polynomial_and_determinism(self):
        rng = counted(8)
        first = rng.centered_binomial_vector(2048, 4)
        assert rng._rng.calls == 1
        assert first == SecureRandom(8).centered_binomial_vector(2048, 4)

    def test_width_out_of_range_rejected(self):
        for eta in (0, 9):
            with pytest.raises(ValueError):
                SecureRandom(9).centered_binomial_vector(8, eta)


class TestScalarDraws:
    """The draws outside the vector path: base-OT secrets and choice
    bits, per-stream spawns, and the workload generators' clocks."""

    def test_field_element_range_and_seed(self):
        draws = [SecureRandom(3).field_element(7) for _ in range(2)]
        assert draws[0] == draws[1]
        rng = SecureRandom(4)
        assert set(rng.field_element(7) for _ in range(700)) == set(range(7))

    def test_bits_are_binary_balanced_and_seeded(self):
        bits = SecureRandom(5).bits(4000)
        assert set(bits) == {0, 1}
        assert 1800 < sum(bits) < 2200
        assert bits == SecureRandom(5).bits(4000)
        assert SecureRandom(5).bits(0) == []

    def test_bytes_length_and_seed(self):
        for n in (0, 1, 16, 33):
            data = SecureRandom(6).bytes(n)
            assert isinstance(data, bytes) and len(data) == n
            assert data == SecureRandom(6).bytes(n)
        assert SecureRandom(6).bytes(32) != SecureRandom(7).bytes(32)

    def test_exponential_mean(self):
        rng = SecureRandom(8)
        draws = [rng.exponential(2.5) for _ in range(20000)]
        assert min(draws) >= 0
        assert sum(draws) / len(draws) == pytest.approx(2.5, rel=0.05)

    def test_uniform_bounds_and_mean(self):
        rng = SecureRandom(9)
        draws = [rng.uniform(-1.0, 3.0) for _ in range(20000)]
        assert all(-1.0 <= d < 3.0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(1.0, abs=0.05)
        assert 0.0 <= SecureRandom(9).uniform() < 1.0

    def test_spawn_is_seeded_and_independent_of_the_parent(self):
        parent, twin = SecureRandom(10), SecureRandom(10)
        child, twin_child = parent.spawn(), twin.spawn()
        assert child.bytes(32) == twin_child.bytes(32)
        # The child is a new stream, not the parent's continuation, and a
        # second spawn is a different stream again.
        assert parent.bytes(32) != child.bytes(32)
        assert parent.spawn().bytes(32) != SecureRandom(10).spawn().bytes(32)
