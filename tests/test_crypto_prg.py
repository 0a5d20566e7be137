"""Tests for the PRG and hashing primitives used by the GC/OT substrates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.prg import (
    LABEL_BYTES,
    SEED_BYTES,
    Prg,
    expand_uniform,
    hash_label,
    key_derivation,
    xor_bytes,
)


class TestHashLabel:
    def test_output_length(self):
        assert len(hash_label(b"\x00" * 16, 0)) == LABEL_BYTES

    def test_deterministic(self):
        assert hash_label(b"a" * 16, 5) == hash_label(b"a" * 16, 5)

    def test_tweak_separates_domains(self):
        assert hash_label(b"a" * 16, 0) != hash_label(b"a" * 16, 1)

    def test_label_sensitivity(self):
        assert hash_label(b"a" * 16, 0) != hash_label(b"b" * 16, 0)


class TestXorBytes:
    @given(st.binary(min_size=1, max_size=64))
    def test_self_inverse(self, data):
        zero = bytes(len(data))
        assert xor_bytes(data, data) == zero
        assert xor_bytes(data, zero) == data

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_commutative(self, a, b):
        assert xor_bytes(a, b) == xor_bytes(b, a)

    @given(
        st.binary(min_size=8, max_size=8),
        st.binary(min_size=8, max_size=8),
        st.binary(min_size=8, max_size=8),
    )
    def test_associative(self, a, b, c):
        assert xor_bytes(xor_bytes(a, b), c) == xor_bytes(a, xor_bytes(b, c))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")


class TestPrg:
    def test_deterministic(self):
        assert Prg(b"seed").read(100) == Prg(b"seed").read(100)

    def test_different_seeds_differ(self):
        assert Prg(b"seed1").read(32) != Prg(b"seed2").read(32)

    def test_stream_continuity(self):
        """Reading 10+10 bytes equals reading 20 bytes once."""
        p1 = Prg(b"s")
        combined = p1.read(10) + p1.read(10)
        assert combined == Prg(b"s").read(20)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            Prg(b"")

    def test_negative_read_rejected(self):
        with pytest.raises(ValueError):
            Prg(b"s").read(-1)


class TestKeyDerivation:
    def test_length(self):
        assert len(key_derivation(b"a", b"b")) == LABEL_BYTES

    def test_part_boundaries_matter(self):
        # ("ab", "c") must differ from ("a", "bc") — length framing works.
        assert key_derivation(b"ab", b"c") != key_derivation(b"a", b"bc")


def reference_expand(seed: bytes, n: int, moduli) -> list[list[int]]:
    """The expansion spelled out word by word: one SHAKE-256 stream, per
    modulus the next width-byte words masked to its bit length, the first
    n below it kept."""
    import hashlib

    stream = hashlib.shake_256(seed).digest(1 << 18)
    pos, out = 0, []
    for m in moduli:
        bits = m.bit_length()
        width = 4 if bits <= 32 else 8 if bits <= 64 else (bits + 7) // 8
        kept = []
        while len(kept) < n:
            word = int.from_bytes(stream[pos : pos + width], "little")
            pos += width
            if word & ((1 << bits) - 1) < m:
                kept.append(word & ((1 << bits) - 1))
        out.append(kept)
    return out


class TestExpandUniform:
    SEED = bytes(range(SEED_BYTES))

    @pytest.mark.parametrize(
        "moduli",
        [
            (65537,),  # 4-byte words
            ((1 << 30) - 35, (1 << 29) - 3),  # a chain, read on in order
            ((1 << 62) - 57,),  # 8-byte words
            ((1 << 100) - 15,),  # wide: byte-width words
            ((1 << 32) + 15,),  # a third of its words rejected
        ],
    )
    def test_equals_the_word_by_word_reference(self, moduli):
        got = expand_uniform(self.SEED, 300, moduli)
        want = reference_expand(self.SEED, 300, moduli)
        assert [[int(v) for v in row] for row in got] == want

    def test_a_run_past_the_margin_rereads_a_longer_digest(self, monkeypatch):
        """A first digest cut to a quarter of its size stands in for a
        rejection run past the margin: the longer digest read next
        continues the same stream, so nothing changes."""
        import hashlib

        from repro.crypto import prg

        class FirstDigestShort:
            def __init__(self, seed):
                self._shake, self._calls = hashlib.shake_256(seed), 0

            def digest(self, length):
                self._calls += 1
                return self._shake.digest(length // 4 if self._calls == 1 else length)

        class Hashlib:
            shake_256 = FirstDigestShort

        moduli = ((1 << 32) + 1, (1 << 30) - 35)
        want = reference_expand(self.SEED, 500, moduli)
        monkeypatch.setattr(prg, "hashlib", Hashlib)
        got = expand_uniform(self.SEED, 500, moduli)
        assert [row.tolist() for row in got] == want

    def test_seed_separates_and_fixes_the_element(self):
        moduli = ((1 << 30) - 35,)
        a = expand_uniform(self.SEED, 64, moduli)[0]
        assert (a == expand_uniform(self.SEED, 64, moduli)[0]).all()
        b = expand_uniform(bytes(SEED_BYTES), 64, moduli)[0]
        assert (a != b).any()

    @pytest.mark.parametrize("length", [0, 16, 31, 33])
    def test_seed_length_is_checked(self, length):
        with pytest.raises(ValueError, match="seed"):
            expand_uniform(bytes(length), 8, (97,))

    def test_roughly_uniform(self):
        m = (1 << 30) - 35
        (row,) = expand_uniform(self.SEED, 8192, (m,))
        buckets = [0] * 8
        for v in row.tolist():
            buckets[v * 8 // m] += 1
        assert all(abs(b - 1024) < 5 * 30 for b in buckets), buckets
