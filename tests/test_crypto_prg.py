"""Tests for the PRG and hashing primitives used by the GC/OT substrates."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import libcrypto
from repro.crypto.aes import FIXED_KEY, encrypt
from repro.crypto.prg import (
    LABEL_BYTES,
    SEED_BYTES,
    TWEAK_LIMIT,
    Prg,
    expand_seeds,
    expand_uniform,
    hash_label,
    hash_lanes,
    hash_rows,
    key_derivation,
    xor_bytes,
)
from repro.gc.garble import lane_lsb, pack_lanes


class TestAesBinding:
    """AES-128-ECB through hashlib's libcrypto, against the published
    vectors: these need nothing beyond the standard library."""

    def test_fips_197_appendix_c1(self):
        key = bytes(range(16))
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert encrypt(plain, key).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_sp800_38a_f11_ecb_four_blocks_in_one_call(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plain = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        assert encrypt(plain, key).hex() == (
            "3ad77bb40d7a3660a89ecaf32466ef97"
            "f5d3d58503b9699de785895a96fdbaaf"
            "43b1cd7f598ece23881b00e3ed030688"
            "7b0c785e27e8ad3f8223207104725dd4"
        )

    def test_blocks_are_independent(self):
        """ECB: a call over many blocks is the calls over each block."""
        data = random.Random(1).randbytes(16 * 40)
        assert encrypt(data) == b"".join(
            encrypt(data[i : i + 16]) for i in range(0, len(data), 16)
        )
        assert encrypt(b"") == b""

    def test_agrees_with_the_cryptography_package(self):
        ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        rnd = random.Random(2)
        for key in (FIXED_KEY, rnd.randbytes(16)):
            reference = ciphers.Cipher(ciphers.algorithms.AES(key), ciphers.modes.ECB())
            for _ in range(20):
                data = rnd.randbytes(16 * rnd.randint(1, 512))  # 16 B .. 8 KiB
                want = reference.encryptor().update(data)
                assert encrypt(data, key) == want

    @pytest.mark.parametrize("length", [1, 15, 17, 8191])
    def test_partial_blocks_are_refused(self, length):
        with pytest.raises(ValueError, match="whole 16-byte blocks"):
            encrypt(bytes(length))

    @pytest.mark.parametrize("length", [0, 15, 24, 32])
    def test_key_length_is_checked(self, length):
        with pytest.raises(ValueError, match="key"):
            encrypt(bytes(16), bytes(length))

    def test_a_library_without_the_symbols_is_an_import_error(self, monkeypatch):
        monkeypatch.setitem(
            libcrypto._SIGNATURES, "EVP_no_such_cipher", (None, [])
        )
        with pytest.raises(ImportError, match="EVP_no_such_cipher.*libcrypto"):
            libcrypto._bind()


def tccr(label: bytes, tweak: int) -> bytes:
    """H(x, i) = pi(pi(x) xor i) xor pi(x), spelled out block by block."""
    y = encrypt(label)
    z = encrypt(xor_bytes(y, tweak.to_bytes(16, "little")))
    return xor_bytes(z, y)


class TestHashLabel:
    def test_output_length(self):
        assert len(hash_label(b"\x00" * 16, 0)) == LABEL_BYTES

    def test_deterministic(self):
        assert hash_label(b"a" * 16, 5) == hash_label(b"a" * 16, 5)

    def test_tweak_separates_domains(self):
        assert hash_label(b"a" * 16, 0) != hash_label(b"a" * 16, 1)

    def test_label_sensitivity(self):
        assert hash_label(b"a" * 16, 0) != hash_label(b"b" * 16, 0)

    @pytest.mark.parametrize("tweak", [0, 1, 2**32 + 7, TWEAK_LIMIT - 1])
    def test_is_the_tccr_hash_over_fixed_key_aes(self, tweak):
        label = random.Random(tweak).randbytes(16)
        assert hash_label(label, tweak) == tccr(label, tweak)

    @pytest.mark.parametrize("tweak", [-1, TWEAK_LIMIT, TWEAK_LIMIT + 5])
    def test_tweak_out_of_range_is_refused(self, tweak):
        rows = np.zeros((3, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="tweak"):
            hash_label(bytes(16), tweak)
        with pytest.raises(ValueError, match="tweak"):
            hash_rows(rows, tweak)
        with pytest.raises(ValueError, match="tweak"):
            hash_rows(rows, [0, tweak, 1])

    @pytest.mark.parametrize("length", [15, 17, 32])
    def test_label_length_is_checked(self, length):
        with pytest.raises(ValueError, match="label"):
            hash_label(bytes(length), 0)

    def test_one_tweak_per_row_is_checked(self):
        with pytest.raises(ValueError, match="tweaks"):
            hash_rows(np.zeros((3, 16), dtype=np.uint8), [0, 1])


class TestOneHashThreeShapes:
    """hash_label row by row, hash_rows under one tweak or a tweak per
    row, and hash_lanes over the packed rows are one function."""

    @given(
        count=st.sampled_from([1, 8, 64, 65, 128]),
        seed=st.integers(0, 2**32),
        tweak=st.integers(0, TWEAK_LIMIT - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_shape_agrees(self, count, seed, tweak):
        rnd = random.Random(seed)
        rows = np.frombuffer(rnd.randbytes(16 * count), np.uint8).reshape(count, 16)
        labels = [row.tobytes() for row in rows]
        one = [hash_label(label, tweak) for label in labels]
        assert [row.tobytes() for row in hash_rows(rows, tweak)] == one
        assert hash_lanes(pack_lanes(rows), 16 * count, tweak * lane_lsb(count)) == (
            int.from_bytes(b"".join(one), "little")
        )

        tweaks = [rnd.randrange(TWEAK_LIMIT) for _ in range(count)]
        each = [hash_label(label, t) for label, t in zip(labels, tweaks)]
        column = np.array(tweaks, dtype=np.uint64)
        assert [row.tobytes() for row in hash_rows(rows, column)] == each
        packed = sum(t << 128 * i for i, t in enumerate(tweaks))
        assert hash_lanes(pack_lanes(rows), 16 * count, packed) == (
            int.from_bytes(b"".join(each), "little")
        )


class TestSharedContextUnderThreads:
    """Every thread of a process (a gateway's workers and its clients'
    sessions, in the serve workloads) hashes through the one cached
    cipher context: updates interleaved at the finest switch interval
    must each still return what a lone thread gets."""

    def test_four_threads_get_the_single_thread_values(self):
        rnd = random.Random(3)
        jobs = []
        for count in (1, 8, 65, 128):
            rows = np.frombuffer(rnd.randbytes(16 * count), np.uint8).reshape(count, 16)
            tweak = rnd.randrange(TWEAK_LIMIT)
            jobs.append(
                (
                    lambda rows=rows, tweak=tweak: hash_rows(rows, tweak).tobytes(),
                    lambda rows=rows, tweak=tweak, count=count: hash_lanes(
                        pack_lanes(rows), 16 * count, tweak * lane_lsb(count)
                    ),
                )
            )
        want = [[job() for job in pair] for pair in jobs]
        errors = []

        def worker(seed):
            order = random.Random(seed)
            try:
                for _ in range(300):
                    k = order.randrange(len(jobs))
                    for job, value in zip(jobs[k], want[k]):
                        if job() != value:
                            errors.append((seed, k))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []


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


SEED = bytes(range(16))


class TestPrg:
    """G(k) = H(k, 0) || H(k, 1) || ...: the row hash in counter mode."""

    def test_is_the_row_hash_in_counter_mode(self):
        want = b"".join(hash_label(SEED, i) for i in range(7))
        assert Prg(SEED).read(100) == want[:100]

    def test_deterministic(self):
        assert Prg(SEED).read(100) == Prg(SEED).read(100)

    def test_different_seeds_differ(self):
        assert Prg(SEED).read(32) != Prg(bytes(16)).read(32)

    def test_stream_continuity(self):
        """Reads that split blocks anywhere are one long read."""
        prg = Prg(SEED)
        combined = b"".join(prg.read(n) for n in (10, 10, 0, 1, 15, 16, 33))
        assert combined == Prg(SEED).read(85)

    @pytest.mark.parametrize("length", [0, 8, 15, 17, 32])
    def test_a_seed_is_one_label_wide(self, length):
        with pytest.raises(ValueError, match="16 bytes"):
            Prg(bytes(length))

    def test_negative_read_rejected(self):
        with pytest.raises(ValueError):
            Prg(SEED).read(-1)

    @pytest.mark.parametrize("offset,nbytes", [(0, 0), (0, 16), (3, 1), (15, 2),
                                               (16, 48), (21, 100), (40, 0)])
    def test_expand_seeds_reads_every_seeds_stream_at_once(self, offset, nbytes):
        seeds = [bytes([i]) * 16 for i in range(5)]
        got = expand_seeds(np.frombuffer(b"".join(seeds), np.uint8).reshape(5, 16),
                           offset, nbytes)
        assert got.shape == (5, nbytes)
        for row, seed in zip(got, seeds):
            assert row.tobytes() == Prg(seed).read(offset + nbytes)[offset:]


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
