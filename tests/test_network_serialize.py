"""Round-trip and size tests for the wire serialization codecs."""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import SecureRandom
from repro.gc.circuit import CircuitBuilder
from repro.gc.evaluate import Evaluator
from repro.gc.garble import Garbler
from repro.backend import available_backends
from repro.he.bfv import BfvContext, Ciphertext, make_ring_element
from repro.he.encoder import BatchEncoder
from repro.he.params import delphi_params, fast_params, toy_params
from repro.he.polynomial import RingPoly, RnsPoly
from repro.network.serialize import (
    FMT_CIPHERTEXT,
    WIRE_MAGIC,
    WIRE_VERSION,
    ciphertext_wire_bytes,
    deserialize_bit_vector,
    deserialize_ciphertext,
    deserialize_field_vector,
    deserialize_galois_keys,
    deserialize_garbled_circuit,
    deserialize_label_lists,
    deserialize_labels,
    deserialize_public_key,
    garbled_circuit_wire_bytes,
    serialize_bit_vector,
    serialize_ciphertext,
    serialize_field_vector,
    serialize_galois_keys,
    serialize_garbled_circuit,
    serialize_label_lists,
    serialize_labels,
    serialize_public_key,
    wire_header,
)

PARAMS = toy_params(n=128)


class TestWireHeader:
    """Every format opens with magic + version; skew fails loudly."""

    def test_all_formats_carry_the_header(self):
        blob = serialize_field_vector([1], PARAMS.t)
        assert blob[:2] == WIRE_MAGIC
        assert blob[2] == WIRE_VERSION

    def test_version_mismatch_rejected(self):
        blob = serialize_field_vector([1, 2], PARAMS.t)
        skewed = blob[:2] + bytes([WIRE_VERSION + 1]) + blob[3:]
        with pytest.raises(ValueError, match="version"):
            deserialize_field_vector(skewed)

    def test_bad_magic_rejected(self):
        blob = serialize_labels([b"x" * 16])
        with pytest.raises(ValueError, match="magic"):
            deserialize_labels(b"ZZ" + blob[2:])

    def test_cross_format_confusion_rejected(self):
        blob = serialize_bit_vector([1, 0, 1])
        with pytest.raises(ValueError, match="format"):
            deserialize_labels(blob)


class TestFieldVector:
    @given(st.lists(st.integers(min_value=0, max_value=PARAMS.t - 1), max_size=50))
    @settings(max_examples=30)
    def test_roundtrip(self, values):
        data = serialize_field_vector(values, PARAMS.t)
        assert deserialize_field_vector(data) == values

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            serialize_field_vector([PARAMS.t], PARAMS.t)

    def test_trailing_bytes_rejected(self):
        data = serialize_field_vector([1, 2], PARAMS.t)
        with pytest.raises(ValueError):
            deserialize_field_vector(data + b"\x00")


class TestCiphertext:
    def test_roundtrip_decrypts(self):
        ctx = BfvContext(PARAMS, SecureRandom(1))
        encoder = BatchEncoder(PARAMS)
        sk, pk = ctx.keygen()
        ct = ctx.encrypt(pk, encoder.encode([5, 6, 7]))
        wire = serialize_ciphertext(ct)
        restored = deserialize_ciphertext(wire, PARAMS)
        assert encoder.decode(ctx.decrypt(sk, restored))[:3] == [5, 6, 7]

    def test_wire_size_matches_prediction(self):
        ctx = BfvContext(PARAMS, SecureRandom(2))
        encoder = BatchEncoder(PARAMS)
        _, pk = ctx.keygen()
        ct = ctx.encrypt(pk, encoder.encode([1]))
        assert len(serialize_ciphertext(ct)) == ciphertext_wire_bytes(PARAMS)

    def test_wire_size_close_to_analytic(self):
        """Serialized size ≈ the params.ciphertext_bytes accounting."""
        assert ciphertext_wire_bytes(PARAMS) == pytest.approx(
            PARAMS.ciphertext_bytes, rel=0.01
        )

    def test_degree_mismatch_rejected(self):
        ctx = BfvContext(PARAMS, SecureRandom(3))
        encoder = BatchEncoder(PARAMS)
        _, pk = ctx.keygen()
        wire = serialize_ciphertext(ctx.encrypt(pk, encoder.encode([1])))
        other = toy_params(n=256)
        with pytest.raises(ValueError):
            deserialize_ciphertext(wire, other)


def reference_poly_pair(params, a_coeffs, b_coeffs) -> bytes:
    """The wire format, written out the slow obvious way: ``(n, width)``
    then every integer coefficient as ``width`` little-endian bytes."""
    width = (params.q.bit_length() + 7) // 8
    body = struct.pack("<IB", params.n, width)
    for coeffs in (a_coeffs, b_coeffs):
        body += b"".join(int(c).to_bytes(width, "little") for c in coeffs)
    return body


def ring_codec_cases():
    """(id, params) over every way a ring element is held in memory."""
    cases = []
    for name, params in (
        ("delphi", delphi_params()),
        ("toy", toy_params(n=128)),
        ("fast", fast_params(n=128)),
    ):
        for backend in available_backends():
            pinned = dataclasses.replace(params, backend=backend)
            if params.rns_primes is None:
                cases.append((f"{name}-{backend}", pinned))
                continue
            for rep in ("rns", "bigint"):
                cases.append((
                    f"{name}-{rep}-{backend}",
                    dataclasses.replace(pinned, representation=rep),
                ))
    return cases


RING_CODEC_CASES = ring_codec_cases()


class TestRingCodec:
    """The vectorized RNS <-> wire-bytes codec is the same format, byte
    for byte, as a per-coefficient integer encoder — on every
    representation and backend — and a short frame says so up front."""

    @staticmethod
    def _coeffs(params, seed):
        rng = random.Random(seed)
        q = params.q
        edges = [0, 1, q - 1, q - 2, q // 2, q // 2 + 1, 255, 256, (1 << 64) % q]
        return edges + [rng.randrange(q) for _ in range(params.n - len(edges))]

    @pytest.mark.parametrize(
        "params", [c[1] for c in RING_CODEC_CASES], ids=[c[0] for c in RING_CODEC_CASES]
    )
    def test_bytes_match_the_integer_encoder_and_round_trip(self, params):
        a, b = self._coeffs(params, 1), self._coeffs(params, 2)
        c0, c1 = make_ring_element(a, params), make_ring_element(b, params)
        expected_type = (
            RnsPoly if params.resolve_representation() == "rns" else RingPoly
        )
        assert isinstance(c0, expected_type)
        wire = serialize_ciphertext(Ciphertext(params, c0, c1))
        assert wire[4:] == reference_poly_pair(params, a, b)
        assert len(wire) == ciphertext_wire_bytes(params)
        restored = deserialize_ciphertext(wire, params)
        assert isinstance(restored.c0, expected_type)
        assert restored.c0.coeffs == a and restored.c1.coeffs == b
        assert serialize_ciphertext(restored) == wire

    def test_edge_polynomials(self):
        """All-zero, all-one and all-(q-1) polynomials: the constant rows
        are where a carry or correction bug in the limb conversion hides."""
        for _, params in RING_CODEC_CASES:
            for value in (0, 1, params.q - 1):
                coeffs = [value] * params.n
                poly = make_ring_element(coeffs, params)
                wire = serialize_ciphertext(Ciphertext(params, poly, poly))
                assert wire[4:] == reference_poly_pair(params, coeffs, coeffs)
                assert deserialize_ciphertext(wire, params).c1.coeffs == coeffs

    def test_unreduced_integers_reduce_the_same_everywhere(self):
        """Bytes spelling integers >= q (a hostile or corrupted frame)
        land as the same ring element in every representation."""
        for name in ("toy", "delphi"):
            cases = [p for cid, p in RING_CODEC_CASES if cid.startswith(name)]
            width = (cases[0].q.bit_length() + 7) // 8
            rng = random.Random(5)
            body = bytes(rng.randrange(256) for _ in range(2 * cases[0].n * width))
            body = b"\xff" * width + body[width:]
            frame = (
                wire_header(FMT_CIPHERTEXT)
                + struct.pack("<IB", cases[0].n, width)
                + body
            )
            want = [
                int.from_bytes(body[i : i + width], "little") % cases[0].q
                for i in range(0, cases[0].n * width, width)
            ]
            for params in cases:
                assert deserialize_ciphertext(frame, params).c0.coeffs == want

    @pytest.mark.parametrize(
        "params",
        [c[1] for c in RING_CODEC_CASES if c[0].startswith(("toy", "fast"))],
        ids=[c[0] for c in RING_CODEC_CASES if c[0].startswith(("toy", "fast"))],
    )
    def test_truncated_frame_says_truncated(self, params):
        poly = make_ring_element(self._coeffs(params, 3), params)
        wire = serialize_ciphertext(Ciphertext(params, poly, poly))
        cuts = {4, 6, 8, 9, 10, len(wire) // 2, len(wire) - 1}
        for cut in sorted(cuts):
            with pytest.raises(ValueError, match="truncated"):
                deserialize_ciphertext(wire[:cut], params)
        with pytest.raises(ValueError, match="trailing"):
            deserialize_ciphertext(wire + b"\x00", params)

    def test_truncated_galois_key_says_truncated(self):
        ctx = BfvContext(PARAMS, SecureRandom(24))
        encoder = BatchEncoder(PARAMS)
        sk, _ = ctx.keygen()
        gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
        wire = serialize_galois_keys(gk)
        for cut in (len(wire) - 1, len(wire) - PARAMS.ciphertext_bytes, 40, 12, 6):
            with pytest.raises(ValueError, match="truncated"):
                deserialize_galois_keys(wire[:cut], PARAMS)


class TestKeys:
    def test_public_key_roundtrip_encrypts(self):
        ctx = BfvContext(PARAMS, SecureRandom(21))
        encoder = BatchEncoder(PARAMS)
        sk, pk = ctx.keygen()
        restored = deserialize_public_key(serialize_public_key(pk), PARAMS)
        ct = ctx.encrypt(restored, encoder.encode([9, 8]))
        assert encoder.decode(ctx.decrypt(sk, ct))[:2] == [9, 8]

    def test_galois_keys_roundtrip_rotate(self):
        from repro.he.linear import HomomorphicLinearEvaluator

        ctx = BfvContext(PARAMS, SecureRandom(22))
        encoder = BatchEncoder(PARAMS)
        sk, pk = ctx.keygen()
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        restored = deserialize_galois_keys(serialize_galois_keys(gk), PARAMS)
        values = list(range(8))
        row = encoder.row_size
        packed = values + [0] * (row - len(values))
        ct = ctx.encrypt(pk, encoder.encode(packed + packed))
        rotated = ctx.rotate(ct, g, restored)
        decoded = encoder.decode(ctx.decrypt(sk, rotated))
        assert decoded[:7] == values[1:]
        # Wire sizes match the analytic accounting used by the channel.
        assert restored.byte_size == gk.byte_size

    def test_galois_keys_eval_domain_roundtrip(self):
        """Eval-domain key storage never leaks into the wire format.

        Serialization reads the coefficient-domain ``keys`` only, so the
        bytes are identical whether or not the eval cache is populated;
        a deserialized key set rebuilds its eval form lazily, the
        eval↔coefficient transform round-trips exactly, and rotations
        under original and restored keys are byte-identical.
        """
        ctx = BfvContext(PARAMS, SecureRandom(23))
        encoder = BatchEncoder(PARAMS)
        sk, pk = ctx.keygen()
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        assert g in gk._eval  # keygen populates the eval cache eagerly
        wire = serialize_galois_keys(gk)
        restored = deserialize_galois_keys(wire, PARAMS)
        # Fresh deserialization carries no derived transform state, and
        # the wire bytes do not depend on it.
        assert restored._eval == {}
        assert serialize_galois_keys(restored) == wire
        # Eval form — per residue ring one (K0, K1) pair of stacks, a row
        # per digit — is an exact involution of the stored coefficients.
        rings = gk.keys[g][0][0].ring_ntts()
        for i, (ntt, stacks) in enumerate(
            zip(rings, gk.eval_keys(g), strict=True)
        ):
            for side, stack in enumerate(stacks):
                assert len(stack) == PARAMS.num_decomp_digits
                for pair, row in zip(gk.keys[g], ntt.inverse_stack(stack)):
                    assert ntt.backend.eq(row, pair[side].ring_vecs()[i])
        # Restored keys (lazily rebuilt eval form) rotate identically.
        ct = ctx.encrypt(pk, encoder.encode(list(range(8))))
        a = ctx.rotate(ct, g, gk)
        b = ctx.rotate(ct, g, restored)
        assert a.c0.coeffs == b.c0.coeffs and a.c1.coeffs == b.c1.coeffs
        assert g in restored._eval  # first rotation filled the cache


class TestBitVector:
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=70))
    @settings(max_examples=30)
    def test_roundtrip(self, bits):
        assert deserialize_bit_vector(serialize_bit_vector(bits)) == bits

    def test_truncated_rejected(self):
        blob = serialize_bit_vector([1] * 9)
        with pytest.raises(ValueError):
            deserialize_bit_vector(blob[:-1])


class TestLabelLists:
    def test_roundtrip(self):
        rng = SecureRandom(31)
        lists = [[rng.bytes(16) for _ in range(n)] for n in (0, 3, 1)]
        assert deserialize_label_lists(serialize_label_lists(lists)) == lists

    def test_trailing_bytes_rejected(self):
        blob = serialize_label_lists([[b"y" * 16]])
        with pytest.raises(ValueError):
            deserialize_label_lists(blob + b"\x00")


class TestLabels:
    def test_roundtrip(self):
        rng = SecureRandom(4)
        labels = [rng.bytes(16) for _ in range(10)]
        assert deserialize_labels(serialize_labels(labels)) == labels

    def test_empty(self):
        assert deserialize_labels(serialize_labels([])) == []

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            serialize_labels([b"short"])

    def test_truncated_rejected(self):
        data = serialize_labels([b"x" * 16])
        with pytest.raises(ValueError):
            deserialize_labels(data[:-1])


class TestGarbledCircuit:
    def _garbled(self):
        builder = CircuitBuilder()
        a = builder.garbler_input_word(4)
        b = builder.evaluator_input_word(4)
        total, carry = builder.add(a, b)
        builder.mark_output(total + [carry])
        circuit = builder.build()
        garbled, encoding = Garbler(SecureRandom(5)).garble(circuit)
        return circuit, garbled, encoding

    def test_roundtrip_evaluates(self):
        from repro.gc.circuit import int_to_bits, words_to_int

        circuit, garbled, encoding = self._garbled()
        wire = serialize_garbled_circuit(garbled)
        restored = deserialize_garbled_circuit(wire, circuit)
        labels = Garbler.encode_inputs(encoding, circuit, int_to_bits(9, 4))
        for w, bit in zip(circuit.evaluator_inputs, int_to_bits(5, 4)):
            labels[w] = encoding.label_for(w, bit)
        evaluator = Evaluator()
        bits = evaluator.decode(restored, evaluator.evaluate(restored, labels))
        assert words_to_int(bits) == 14

    def test_wire_size_matches_prediction(self):
        circuit, garbled, _ = self._garbled()
        wire = serialize_garbled_circuit(garbled)
        assert len(wire) == garbled_circuit_wire_bytes(
            circuit.and_count, len(circuit.outputs)
        )

    def test_trailing_bytes_rejected(self):
        circuit, garbled, _ = self._garbled()
        wire = serialize_garbled_circuit(garbled)
        with pytest.raises(ValueError):
            deserialize_garbled_circuit(wire + b"\x00", circuit)

    def test_decode_bits_preserved(self):
        circuit, garbled, _ = self._garbled()
        restored = deserialize_garbled_circuit(
            serialize_garbled_circuit(garbled), circuit
        )
        assert restored.output_decode_bits == garbled.output_decode_bits


class TestHostileGcOtFrames:
    """The GC/OT decoders answer a cut or lying frame with ``ValueError`` —
    the one exception every frame handler catches — before they allocate
    anything sized by a count the peer supplied."""

    @staticmethod
    def _frames():
        from repro.network.serialize import (
            deserialize_circuit_batch,
            serialize_circuit_batch,
        )

        circuit, garbled, _ = TestGarbledCircuit()._garbled()
        labels = [bytes([i]) * 16 for i in range(3)]
        return {
            "field_vector": (
                serialize_field_vector([1, 2, 3], 65537),
                deserialize_field_vector,
            ),
            "bit_vector": (serialize_bit_vector([1, 0] * 9), deserialize_bit_vector),
            "labels": (serialize_labels(labels), deserialize_labels),
            "label_lists": (
                serialize_label_lists([labels, labels[:1]]),
                deserialize_label_lists,
            ),
            "circuit_batch": (
                serialize_circuit_batch([garbled, garbled]),
                lambda data: deserialize_circuit_batch(data, circuit),
            ),
        }

    @pytest.mark.parametrize(
        "name",
        ["field_vector", "bit_vector", "labels", "label_lists", "circuit_batch"],
    )
    def test_every_cut_is_a_value_error(self, name):
        wire, decode = self._frames()[name]
        assert decode(wire) is not None
        # header only, inside the count word(s), and everywhere after:
        # exactly ValueError — pytest.raises would let a struct.error through
        # only as a failure, never as a pass.
        for cut in range(4, len(wire)):
            with pytest.raises(ValueError):
                decode(wire[:cut])

    @pytest.mark.parametrize(
        "name",
        ["field_vector", "bit_vector", "labels", "label_lists", "circuit_batch"],
    )
    def test_count_larger_than_payload(self, name):
        wire, decode = self._frames()[name]
        for count in (len(wire), 1 << 26, (1 << 32) - 1):
            lying = wire[:4] + struct.pack("<I", count) + wire[8:]
            with pytest.raises(ValueError):
                decode(lying)

    def test_inner_count_is_checked_before_any_slice_is_built(self):
        """16 bytes claiming one list of 2^26 (then 2^32 - 1) labels: the
        parent spent 12 s on the first and had no bound on the second."""
        import time

        for n in (1 << 26, (1 << 32) - 1):
            frame = wire_header(0x0A) + struct.pack("<II", 1, n) + b"\x00" * 4
            assert len(frame) == 16
            start = time.perf_counter()
            with pytest.raises(ValueError, match="truncated"):
                deserialize_label_lists(frame)
            assert time.perf_counter() - start < 0.5

    def test_zero_width_field_vector_cannot_claim_elements(self):
        frame = wire_header(0x01) + struct.pack("<IB", (1 << 32) - 1, 0)
        with pytest.raises(ValueError, match="width"):
            deserialize_field_vector(frame)
