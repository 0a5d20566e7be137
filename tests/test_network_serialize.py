"""Round-trip and size tests for the wire serialization codecs."""

import dataclasses
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prg import byte_rows
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import Circuit, CircuitBuilder
from repro.gc.evaluate import Evaluator
from repro.gc.garble import Garbler, LabelBatch
from repro.gc.relu import ReluCircuitSpec, build_relu_circuit
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
    deserialize_circuit_batch,
    deserialize_field_vector,
    deserialize_galois_keys,
    deserialize_garbled_circuit,
    deserialize_label_lists,
    deserialize_labels,
    deserialize_public_key,
    deserialize_relu_bundle,
    garbled_circuit_wire_bytes,
    serialize_bit_vector,
    serialize_ciphertext,
    serialize_circuit_batch,
    serialize_field_vector,
    serialize_galois_keys,
    serialize_garbled_circuit,
    serialize_label_lists,
    serialize_labels,
    serialize_public_key,
    serialize_relu_bundle,
    wire_header,
)

PARAMS = toy_params(n=128)


def label_block(seed, *shape):
    """A (*shape, 16) uint8 block of pseudo-random labels."""
    data = SecureRandom(seed).bytes(16 * int(np.prod(shape)))
    return np.frombuffer(data, dtype=np.uint8).reshape(*shape, 16)


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
        blob = serialize_labels(label_block(0, 1))
        with pytest.raises(ValueError, match="magic"):
            deserialize_labels(b"ZZ" + blob[2:], 1)

    def test_cross_format_confusion_rejected(self):
        blob = serialize_bit_vector([1, 0, 1])
        with pytest.raises(ValueError, match="format"):
            deserialize_labels(blob, 3)


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
        ntt = gk.keys[g][0][0].ring_ntt()
        assert len(gk.eval_keys(g)) == len(ntt.moduli)
        for side in range(2):
            stacks = [pair[side] for pair in gk.eval_keys(g)]
            assert all(len(s) == PARAMS.num_decomp_digits for s in stacks)
            for i, rows in enumerate(ntt.inverse_stack(stacks)):
                for pair, row in zip(gk.keys[g], rows):
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
        for count, width in ((0, 3), (3, 0), (1, 1), (5, 19)):
            block = label_block(31, count, width)
            wire = serialize_label_lists(block)
            assert len(wire) == 8 + count * (4 + 16 * width)
            assert (deserialize_label_lists(wire, count, width) == block).all()

    def test_trailing_bytes_rejected(self):
        blob = serialize_label_lists(label_block(1, 1, 1))
        with pytest.raises(ValueError):
            deserialize_label_lists(blob + b"\x00", 1, 1)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 5), (2, 4), (51, 0), (3, 3)])
    def test_a_frame_of_another_shape_is_rejected_where_it_is_received(self, shape):
        """Same byte count or not, (count, width) must be the layer's."""
        blob = serialize_label_lists(label_block(2, 3, 4))
        with pytest.raises(ValueError, match="label"):
            deserialize_label_lists(blob, *shape)

    def test_one_short_list_among_full_ones_is_rejected(self):
        """Total length right, one list's length word wrong."""
        blob = bytearray(serialize_label_lists(label_block(3, 3, 2)))
        struct.pack_into("<I", blob, 8 + (4 + 32), 1)
        with pytest.raises(ValueError, match="label lists"):
            deserialize_label_lists(bytes(blob), 3, 2)


class TestLabels:
    def test_roundtrip(self):
        labels = label_block(4, 10)
        assert (deserialize_labels(serialize_labels(labels), 10) == labels).all()

    def test_empty(self):
        empty = deserialize_labels(serialize_labels(label_block(0, 0)), 0)
        assert empty.shape == (0, 16)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            serialize_labels(np.zeros((1, 5), dtype=np.uint8))

    def test_truncated_rejected(self):
        data = serialize_labels(label_block(5, 1))
        with pytest.raises(ValueError):
            deserialize_labels(data[:-1], 1)

    def test_another_count_rejected(self):
        data = serialize_labels(label_block(6, 4))
        with pytest.raises(ValueError, match="label frame does not match"):
            deserialize_labels(data, 3)


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

    @staticmethod
    def _with_index_words(wire, indices):
        """``wire`` (one serialized circuit) with its per-gate index words
        replaced — every length and count untouched."""
        out = bytearray(wire)
        for k, index in enumerate(indices):
            struct.pack_into("<I", out, 12 + 36 * k, index)
        return bytes(out)

    def test_index_words_must_be_the_circuits_and_gates_in_order(self):
        """Permuted, duplicated or non-AND index words used to decode
        cleanly and surface online as a KeyError inside the evaluator."""
        circuit, garbled, _ = self._garbled()
        wire = serialize_garbled_circuit(garbled)
        ands = circuit.and_indices
        xor = next(i for i in range(len(circuit.gates)) if i not in ands)
        assert self._with_index_words(wire, ands) == wire
        for hostile in (
            ands[1:2] + ands[:1] + ands[2:],  # permuted
            ands[:1] + ands[:-1],  # duplicated
            [xor] + ands[1:],  # not an AND gate
            ands[:-1] + [len(circuit.gates)],  # not a gate at all
        ):
            with pytest.raises(ValueError, match="gates.index"):
                deserialize_garbled_circuit(
                    self._with_index_words(wire, hostile), circuit
                )
            framing = wire_header(0x0B) + struct.pack("<II", 1, len(wire))
            assert len(deserialize_circuit_batch(framing + wire, circuit)) == 1
            with pytest.raises(ValueError, match="gates.index"):
                deserialize_circuit_batch(
                    framing + self._with_index_words(wire, hostile), circuit
                )

    def test_decode_bit_count_is_all_or_none(self):
        circuit, garbled, _ = self._garbled()
        wire = serialize_garbled_circuit(garbled)
        n_out = len(circuit.outputs)
        stripped = dataclasses.replace(garbled, output_decode_bits=[])
        assert deserialize_garbled_circuit(
            serialize_garbled_circuit(stripped), circuit
        ).output_decode_bits == []
        for n_decode in (1, n_out - 1, n_out + 1, 8 * n_out):
            lying = wire[:8] + struct.pack("<I", n_decode) + wire[12:]
            with pytest.raises(ValueError, match="decode bits"):
                deserialize_garbled_circuit(lying, circuit)

    def test_table_count_must_be_the_circuits(self):
        circuit, garbled, _ = self._garbled()
        wire = serialize_garbled_circuit(garbled)
        fewer = wire[:4] + struct.pack("<I", circuit.and_count - 1) + wire[8:]
        with pytest.raises(ValueError, match="n_tables"):
            deserialize_garbled_circuit(fewer, circuit)

    def test_every_instance_of_a_batch_has_the_one_legal_length(self):
        """A batch that moves bytes between two instances — total length
        right, both length words wrong — is refused by its length words."""
        circuit, garbled, _ = self._garbled()
        one = serialize_garbled_circuit(garbled)
        frame = wire_header(0x0B) + struct.pack("<I", 2)
        frame += struct.pack("<I", len(one) - 4) + one[:-4]
        frame += struct.pack("<I", len(one) + 4) + one + one[-4:]
        with pytest.raises(ValueError, match="circuit_len"):
            deserialize_circuit_batch(frame, circuit)
        good = wire_header(0x0B) + struct.pack("<I", 2) + 2 * (
            struct.pack("<I", len(one)) + one
        )
        assert len(deserialize_circuit_batch(good, circuit)) == 2


# -- the per-instance formats, written out field by field ------------------------
#
# What the codecs wrote before a layer's batch became one record array: the
# reference the columnar encoders must reproduce byte for byte.


def reference_garbled_circuit(garbled) -> bytes:
    out = wire_header(0x06)
    out += struct.pack("<II", len(garbled.tables), len(garbled.output_decode_bits))
    for index in sorted(garbled.tables):
        gate = garbled.tables[index]
        out += struct.pack("<I", index) + gate.generator_half + gate.evaluator_half
    packed = sum((bit & 1) << i for i, bit in enumerate(garbled.output_decode_bits))
    return out + packed.to_bytes((len(garbled.output_decode_bits) + 7) // 8, "little")


def reference_label_map(labels: dict) -> bytes:
    out = wire_header(0x04) + struct.pack("<I", len(labels))
    for wire, label in labels.items():
        out += struct.pack("<I", wire) + label
    return out


def reference_input_encoding(encoding) -> bytes:
    zero = reference_label_map(encoding.zero_labels)
    outputs = reference_label_map(encoding.output_zero_labels)
    return (
        wire_header(0x05)
        + struct.pack("<II", len(zero), len(outputs))
        + encoding.delta
        + zero
        + outputs
    )


def length_prefixed(blob: bytes) -> bytes:
    return struct.pack("<I", len(blob)) + blob


def reference_circuit_batch(circuits) -> bytes:
    return wire_header(0x0B) + struct.pack("<I", len(circuits)) + b"".join(
        length_prefixed(reference_garbled_circuit(garbled)) for garbled in circuits
    )


def reference_label_lists(lists) -> bytes:
    return wire_header(0x0A) + struct.pack("<I", len(lists)) + b"".join(
        struct.pack("<I", len(labels)) + b"".join(labels) for labels in lists
    )


def reference_offline_transcript(modulus, r, s, share, role, pos, mask_index, bundle):
    circuits, encodings, label_maps = bundle
    out = b"RPC2" + struct.pack("<BI", role, 0) + struct.pack("<I", 1)
    for vector in (r, s, share):
        out += length_prefixed(serialize_field_vector(vector, modulus))
    out += struct.pack("<I", 1) + struct.pack("<III", pos, mask_index, len(circuits))
    for garbled, encoding, labels in zip(circuits, encodings, label_maps):
        out += length_prefixed(reference_garbled_circuit(garbled))
        out += length_prefixed(reference_input_encoding(encoding))
        out += length_prefixed(reference_label_map(labels))
    return out


class TestColumnarCodecParity:
    """A layer's batch goes to the wire and into the store as one record
    array; the bytes are those of the per-instance encoders above, for
    either garbler's circuit, with the decode bits shipped or withheld,
    and decoding gives back the columns that were encoded."""

    P = 65521
    CIRCUITS = {
        # Server-Garbler: the mask is the evaluating client's input and the
        # evaluator stores [its inputs, constants]; Client-Garbler: the mask
        # is the garbler's and the evaluator stores [constants, garbler's].
        role: build_relu_circuit(
            ReluCircuitSpec(bits=16, modulus=65521, mask_owner=owner)
        )
        for role, owner in (("server", "evaluator"), ("client", "garbler"))
    }

    @staticmethod
    def _stored_wires(circuit, role):
        consts = [Circuit.CONST_ZERO, Circuit.CONST_ONE]
        if role == "server":
            return circuit.evaluator_inputs + consts
        return consts + circuit.garbler_inputs

    @given(
        count=st.sampled_from([1, 2, 8, 128]),
        role=st.sampled_from(["server", "client"]),
        keep_decode_bits=st.booleans(),
        vectorize=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=12, deadline=None)
    def test_batch_bytes_are_the_per_instance_bytes(
        self, count, role, keep_decode_bits, vectorize, seed
    ):
        from repro.runtime.store import (
            deserialize_offline_transcript,
            serialize_offline_transcript,
        )

        circuit = self.CIRCUITS[role]
        circuits, encodings = Garbler(SecureRandom(seed)).garble_batch(
            circuit, count, vectorize=vectorize
        )
        if not keep_decode_bits:
            circuits = circuits.without_decode_bits()
        wires = self._stored_wires(circuit, role)
        labels = LabelBatch(wires, label_block(seed, count, len(wires)))

        wire = serialize_circuit_batch(circuits)
        assert wire == reference_circuit_batch(list(circuits))
        assert len(wire) == 8 + count * (
            4 + garbled_circuit_wire_bytes(
                circuit.and_count, len(circuit.outputs) * keep_decode_bits
            )
        )
        restored = deserialize_circuit_batch(wire, circuit)
        assert (restored.tables == circuits.tables).all()
        assert (restored.decode_bits == circuits.decode_bits).all()
        assert serialize_circuit_batch(restored) == wire

        lists = serialize_label_lists(labels.labels)
        assert lists == reference_label_lists(
            [byte_rows(block) for block in labels.labels]
        )
        assert (
            deserialize_label_lists(lists, count, len(wires)) == labels.labels
        ).all()

        r, s_vec, share = [1, 2], [3, 4], [5, 6]
        role_index = ("server", "client").index(role)
        entry = serialize_offline_transcript(
            self.P, [r], [s_vec], [share], {3: (1, circuits, encodings, labels)},
            garbler_role=role,
        )
        assert entry == reference_offline_transcript(
            self.P, r, s_vec, share, role_index, 3, 1,
            (list(circuits), list(encodings), list(labels)),
        )
        *vectors, bundles = deserialize_offline_transcript(
            entry, {3: circuit}, garbler_role=role, truncate_bits=0
        )
        assert vectors == [[r], [s_vec], [share]]
        mask_index, got_circuits, got_encodings, got_labels = bundles[3]
        assert mask_index == 1 and got_labels.wires == wires
        assert (got_circuits.tables == circuits.tables).all()
        assert (got_circuits.decode_bits == circuits.decode_bits).all()
        assert (got_encodings.deltas == encodings.deltas).all()
        assert (got_encodings.zero_labels == encodings.zero_labels).all()
        assert (
            got_encodings.output_zero_labels == encodings.output_zero_labels
        ).all()
        assert (got_labels.labels == labels.labels).all()

    def test_a_stored_layer_with_a_foreign_wire_list_in_one_instance_is_rejected(self):
        circuit = self.CIRCUITS["client"]
        circuits, encodings = Garbler(SecureRandom(1)).garble_batch(circuit, 3)
        wires = self._stored_wires(circuit, "client")
        labels = LabelBatch(wires, label_block(1, 3, len(wires)))
        blob = bytearray(serialize_relu_bundle(circuits, encodings, labels))
        assert deserialize_relu_bundle(bytes(blob), 0, 3, circuit)[3] == len(blob)
        # the last instance's last label-map entry names another wire
        struct.pack_into("<I", blob, len(blob) - 20, wires[0])
        with pytest.raises(ValueError, match="labels.entries.wire"):
            deserialize_relu_bundle(bytes(blob), 0, 3, circuit)


class TestHostileGcOtFrames:
    """The GC/OT decoders answer a cut or lying frame with ``ValueError`` —
    the one exception every frame handler catches — before they allocate
    anything sized by a count the peer supplied."""

    @staticmethod
    def _frames():
        from repro.gc.garble import GarbledBatch

        circuit, garbled, _ = TestGarbledCircuit()._garbled()
        batch = GarbledBatch.from_instances(circuit, [garbled, garbled])
        return {
            "field_vector": (
                serialize_field_vector([1, 2, 3], 65537),
                deserialize_field_vector,
            ),
            "bit_vector": (serialize_bit_vector([1, 0] * 9), deserialize_bit_vector),
            "labels": (
                serialize_labels(label_block(1, 3)),
                lambda data: deserialize_labels(data, 3),
            ),
            "label_lists": (
                serialize_label_lists(label_block(2, 2, 3)),
                lambda data: deserialize_label_lists(data, 2, 3),
            ),
            "circuit_batch": (
                serialize_circuit_batch(batch),
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
            with pytest.raises(ValueError, match="label frame does not match"):
                deserialize_label_lists(frame, 1, 1)
            assert time.perf_counter() - start < 0.5

    def test_zero_width_field_vector_cannot_claim_elements(self):
        frame = wire_header(0x01) + struct.pack("<IB", (1 << 32) - 1, 0)
        with pytest.raises(ValueError, match="width"):
            deserialize_field_vector(frame)
