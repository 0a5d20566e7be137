"""Tests for base OT and IKNP OT extension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prg import key_derivation
from repro.crypto.rng import SecureRandom
from repro.network.channel import Channel
from repro.ot import extension
from repro.ot.base import (
    GENERATOR,
    GROUP_PRIME,
    BaseOtReceiver,
    BaseOtSender,
    FixedBaseTable,
    run_base_ot,
)
from repro.ot.extension import (
    KAPPA,
    base_ot_offline_bytes,
    base_seed_ot,
    extend,
    iknp_transcript,
    iknp_transfer,
    iknp_wire_bytes,
    ot_extension_online_bytes,
)


def random_batch(n, msg_len=16, seed=0):
    rnd = random.Random(seed)
    pairs = [(rnd.randbytes(msg_len), rnd.randbytes(msg_len)) for _ in range(n)]
    return pairs, [rnd.getrandbits(1) for _ in range(n)]


class TestFixedBaseTable:
    @given(
        base=st.integers(min_value=1, max_value=GROUP_PRIME - 1),
        exponent=st.one_of(
            st.sampled_from([0, 1, GROUP_PRIME - 2, (1 << 255) - 1]),
            st.integers(min_value=0, max_value=(1 << 256) - 1),
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_pow_matches_builtin(self, base, exponent):
        assert FixedBaseTable(base).pow(exponent) == pow(base, exponent, GROUP_PRIME)

    def test_exponent_wider_than_the_table_is_rejected(self):
        with pytest.raises(OverflowError):
            FixedBaseTable(GENERATOR).pow(1 << 256)


class TestRandomBaseOt:
    def test_receiver_key_is_the_chosen_sender_key_only(self):
        for pattern in range(1 << 4):
            choices = [(pattern >> i) & 1 for i in range(4)]
            sender = BaseOtSender(SecureRandom(pattern))
            receiver = BaseOtReceiver(choices, SecureRandom(100 + pattern))
            sender_keys = sender.keys(receiver.points(sender.public))
            receiver_keys = receiver.keys(sender.public)
            for choice, pair, key in zip(choices, sender_keys, receiver_keys):
                assert key == pair[choice]
                assert key != pair[1 - choice]

    def test_keys_equal_the_two_modexp_definition(self):
        """k0 = KDF(B^a, i), k1 = KDF((B/A)^a, i), receiver KDF(A^b, i)."""
        choices = [0, 1, 1]
        sender = BaseOtSender(SecureRandom(31))
        receiver = BaseOtReceiver(choices, SecureRandom(32))
        a, secrets = sender._a, receiver._secrets
        assert sender.public == pow(GENERATOR, a, GROUP_PRIME)
        points = receiver.points(sender.public)
        a_inverse = pow(sender.public, GROUP_PRIME - 2, GROUP_PRIME)

        def kdf(element, index):
            return key_derivation(
                element.to_bytes(32, "little"), index.to_bytes(4, "little")
            )

        for i, (choice, b, point) in enumerate(zip(choices, secrets, points)):
            expected = pow(GENERATOR, b, GROUP_PRIME)
            if choice:
                expected = expected * sender.public % GROUP_PRIME
            assert point == expected
            shifted = point * a_inverse % GROUP_PRIME
            assert sender.keys(points)[i] == (
                kdf(pow(point, a, GROUP_PRIME), i),
                kdf(pow(shifted, a, GROUP_PRIME), i),
            )
            assert receiver.keys(sender.public)[i] == kdf(
                pow(sender.public, b, GROUP_PRIME), i
            )


class TestBaseOt:
    def test_receiver_gets_chosen_message(self):
        pairs = [(b"zero" + bytes(12), b"one!" + bytes(12)) for _ in range(4)]
        choices = [0, 1, 1, 0]
        got = run_base_ot(pairs, choices, SecureRandom(1))
        for g, c, (m0, m1) in zip(got, choices, pairs):
            assert g == (m1 if c else m0)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=16))
    @settings(max_examples=10, deadline=None)
    def test_all_choice_patterns(self, choices):
        rnd = random.Random(42)
        pairs = [(rnd.randbytes(16), rnd.randbytes(16)) for _ in choices]
        got = run_base_ot(pairs, choices, SecureRandom(2))
        for g, c, (m0, m1) in zip(got, choices, pairs):
            assert g == (m1 if c else m0)

    def test_variable_message_lengths(self):
        pairs = [(b"a" * 5, b"b" * 5), (b"c" * 100, b"d" * 100)]
        got = run_base_ot(pairs, [1, 0], SecureRandom(3))
        assert got == [b"b" * 5, b"c" * 100]

    def test_sender_point_count_validation(self):
        sender = BaseOtSender(SecureRandom(4))
        with pytest.raises(ValueError):
            sender.encrypt([1, 2], [(b"x" * 16, b"y" * 16)])

    def test_unchosen_message_stays_hidden(self):
        """Decrypting the wrong slot must NOT give the other message."""
        pairs = [(b"m0" + bytes(14), b"m1" + bytes(14))]
        sender = BaseOtSender(SecureRandom(5))
        receiver = BaseOtReceiver([0], SecureRandom(6))
        points = receiver.points(sender.public)
        cts = sender.encrypt(points, pairs)
        # Receiver key only opens slot 0; slot 1 under the same key is junk.
        wrong = BaseOtReceiver([1], SecureRandom(6))
        garbage = wrong.decrypt(sender.public, cts)
        assert garbage[0] != pairs[0][1]

    def test_channel_accounting(self):
        channel = Channel()
        pairs = [(b"x" * 16, b"y" * 16)] * 3
        run_base_ot(pairs, [0, 1, 0], SecureRandom(7), channel=channel)
        assert channel.total_bytes > 0
        assert channel.uplink.bytes > 0  # receiver points
        assert channel.downlink.bytes > 0  # public key + ciphertexts


class TestIknpExtension:
    def test_correctness_bulk(self):
        rnd = random.Random(0)
        n = 200
        pairs = [(rnd.randbytes(16), rnd.randbytes(16)) for _ in range(n)]
        choices = [rnd.getrandbits(1) for _ in range(n)]
        got, transcript = iknp_transfer(pairs, choices, SecureRandom(8))
        for g, c, (m0, m1) in zip(got, choices, pairs):
            assert g == (m1 if c else m0)
        assert transcript.total_bytes > 0

    def test_empty_batch(self, monkeypatch, seeds):
        """An empty batch comes back in the form it came in — a list, or
        an empty (0, len) matrix and matrix pair — and runs no base OT.
        A pair of empty matrices used to pay for 128 base OTs and then
        raise IndexError."""
        np = pytest.importorskip("numpy")

        def no_base_ots(rng):
            raise AssertionError("an empty batch ran base OTs")

        monkeypatch.setattr(extension, "base_seed_ot", no_base_ots)
        got, transcript = iknp_transfer([], [], SecureRandom(9))
        assert got == []
        assert transcript.total_bytes == 0
        assert extend(seeds, [], []) == ([], [])

        empty = (np.zeros((0, 16), np.uint8), np.zeros((0, 16), np.uint8))
        got, transcript = iknp_transfer(empty, [], SecureRandom(9))
        assert isinstance(got, np.ndarray) and got.shape == (0, 16)
        assert transcript.total_bytes == 0
        chosen, masked = extend(seeds, empty, [])
        assert chosen.shape == (0, 16)
        assert [side.shape for side in masked] == [(0, 16), (0, 16)]
        with pytest.raises(ValueError):
            iknp_transfer(empty, [1])

    def test_single_ot(self):
        got, _ = iknp_transfer([(b"A" * 16, b"B" * 16)], [1], SecureRandom(10))
        assert got == [b"B" * 16]

    def test_all_zero_choices(self):
        pairs = [(bytes([i] * 16), bytes([255 - i] * 16)) for i in range(50)]
        got, _ = iknp_transfer(pairs, [0] * 50, SecureRandom(11))
        assert got == [p[0] for p in pairs]

    def test_all_one_choices(self):
        pairs = [(bytes([i] * 16), bytes([255 - i] * 16)) for i in range(50)]
        got, _ = iknp_transfer(pairs, [1] * 50, SecureRandom(12))
        assert got == [p[1] for p in pairs]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iknp_transfer([(b"x" * 16, b"y" * 16)], [0, 1])

    def test_ragged_messages_rejected(self):
        with pytest.raises(ValueError):
            iknp_transfer([(b"x" * 16, b"y" * 8)], [0])

    def test_longer_messages(self):
        rnd = random.Random(1)
        pairs = [(rnd.randbytes(48), rnd.randbytes(48)) for _ in range(10)]
        choices = [rnd.getrandbits(1) for _ in range(10)]
        got, _ = iknp_transfer(pairs, choices, SecureRandom(13))
        for g, c, (m0, m1) in zip(got, choices, pairs):
            assert g == (m1 if c else m0)


@pytest.fixture(scope="module")
def seeds():
    return base_seed_ot(SecureRandom(20))


class TestSeedFormExtension:
    def test_base_seeds_are_a_random_ot(self, seeds):
        assert len(seeds.chooser_pairs) == len(seeds.holder_seeds) == KAPPA
        for pair, s_i, seed in zip(
            seeds.chooser_pairs, seeds.holder_bits, seeds.holder_seeds
        ):
            assert seed == pair[s_i] != pair[1 - s_i]

    @pytest.mark.parametrize("msg_len", [16, 48])
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 127, 128, 129, 1000, 4352])
    def test_correct_at_byte_and_kappa_boundaries(self, seeds, m, msg_len):
        pairs, choices = random_batch(m, msg_len, seed=m)
        chosen, masked = extend(seeds, pairs, choices)
        assert chosen == [pair[c] for pair, c in zip(pairs, choices)]
        assert len(masked) == m
        # the pair is really masked, and with two different pads
        assert all(y0 != x0 and y1 != x1 for (y0, y1), (x0, x1) in zip(masked, pairs))
        assert all(
            int.from_bytes(y0, "little") ^ int.from_bytes(x0, "little")
            != int.from_bytes(y1, "little") ^ int.from_bytes(x1, "little")
            for (y0, y1), (x0, x1) in zip(masked, pairs)
        )

    def test_wrong_holder_seed_breaks_the_transfer(self, seeds):
        """The holder's q columns really come from its own k_{s_i} seeds."""
        pairs, choices = random_batch(64)
        broken = extension.BaseSeeds(
            seeds.chooser_pairs,
            seeds.holder_bits,
            [bytes(16)] + seeds.holder_seeds[1:],
        )
        chosen, _ = extend(broken, pairs, choices)
        assert chosen != [pair[c] for pair, c in zip(pairs, choices)]

    @given(
        m=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_numpy_transpose_matches_row_reference(self, m, seed):
        pytest.importorskip("numpy")
        rnd = random.Random(seed)
        columns = [rnd.getrandbits(m) for _ in range(KAPPA)]
        rows = extension._transpose_numpy(columns, m)
        assert rows == extension._transpose_python(columns, m)
        assert rows[:16] == extension._row(columns, 0).to_bytes(16, "little")

    @pytest.mark.parametrize("msg_len", [16, 8, 48])
    @pytest.mark.parametrize("m", [1, 9, 136, 1000])
    def test_numpy_and_python_backends_agree_bit_for_bit(self, seeds, m, msg_len):
        """Matrices or byte pairs in, one-pass masking or the row loop:
        four ways through ``extend``, one set of bytes."""
        np = pytest.importorskip("numpy")
        from repro.backend import using_backend

        pairs, choices = random_batch(m, msg_len, seed=m + msg_len)
        matrices = tuple(
            np.frombuffer(b"".join(side), dtype=np.uint8).reshape(m, msg_len)
            for side in zip(*pairs)
        )
        results = {}
        for backend in ("python", "numpy"):
            with using_backend(backend):
                results[backend, "pairs"] = extend(seeds, pairs, choices)
                chosen, masked = extend(seeds, matrices, choices)
            assert chosen.shape == (m, msg_len) and len(masked) == 2
            results[backend, "matrices"] = (
                [row.tobytes() for row in chosen],
                [(y0.tobytes(), y1.tobytes()) for y0, y1 in zip(*masked)],
            )
        first, *others = results.values()
        assert first[0] == [pair[c] for pair, c in zip(pairs, choices)]
        assert all(other == first for other in others)

    def test_same_seed_same_masked_pairs(self):
        pairs, choices = random_batch(200)
        one = extend(base_seed_ot(SecureRandom(21)), pairs, choices)
        two = extend(base_seed_ot(SecureRandom(21)), pairs, choices)
        other = extend(base_seed_ot(SecureRandom(22)), pairs, choices)
        assert one == two
        assert one[0] == other[0] and one[1] != other[1]

    def test_one_spawn_is_all_a_call_takes_from_the_callers_stream(self):
        pairs, choices = random_batch(10)
        used, fresh = SecureRandom(23), SecureRandom(23)
        iknp_transfer(pairs, choices, used.spawn())
        fresh.spawn()
        assert used.bytes(16) == fresh.bytes(16)


class TestCommunicationModel:
    def test_online_bytes_scale_linearly(self):
        one = ot_extension_online_bytes(1000)
        two = ot_extension_online_bytes(2000)
        assert 1.9 < two / one < 2.1

    def test_online_bytes_formula(self):
        n = 800
        assert ot_extension_online_bytes(n) == KAPPA * (n // 8) + 2 * n * 16

    def test_base_ot_offline_constant(self):
        assert base_ot_offline_bytes() == 32 + KAPPA * 32

    @pytest.mark.parametrize("n,msg_len", [(1, 16), (136, 16), (4352, 16), (10, 48)])
    def test_every_surface_derives_from_the_one_transcript(self, n, msg_len):
        t = iknp_transcript(n, msg_len)
        assert t.base_ot_bytes == base_ot_offline_bytes()
        assert t.column_bytes == KAPPA * ((n + 7) // 8)
        assert t.ciphertext_bytes == 2 * n * msg_len
        assert ot_extension_online_bytes(n, msg_len) == (
            t.column_bytes + t.ciphertext_bytes
        )
        to_holder, to_chooser = iknp_wire_bytes(n, msg_len)
        assert to_holder == 32 + t.column_bytes  # A and the u columns
        assert to_chooser == KAPPA * 32 + t.ciphertext_bytes  # points, pairs
        assert to_holder + to_chooser == t.total_bytes

    def test_transcript_matches_model(self):
        """Measured transcript of the real protocol tracks the analytic model."""
        n = 256
        pairs, choices = random_batch(n, seed=2)
        _, transcript = iknp_transfer(pairs, choices, SecureRandom(14))
        assert transcript == iknp_transcript(n)
        # the u matrix the chooser ships really is kappa columns of n bits
        assert transcript.column_bytes == KAPPA * n // 8
