"""Tests for the PRG and hashing primitives used by the GC/OT substrates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.prg import (
    LABEL_BYTES,
    Prg,
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
