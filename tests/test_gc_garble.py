"""Tests for half-gates garbling and evaluation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prg import LABEL_BYTES, xor_bytes
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateType,
    int_to_bits,
    words_to_int,
)
from repro.gc.evaluate import Evaluator, evaluate_columns, evaluate_lanes
from repro.gc.garble import (
    LANE_WALK_MAX_ROWS,
    EncodingBatch,
    GarbledBatch,
    Garbler,
    LabelBatch,
    derive_batch_labels,
    garble_batch_from_labels,
    garble_columns,
    garble_from_labels,
    garble_lanes,
)
from repro.gc.relu import (
    ReluCircuitSpec,
    build_relu_circuit,
    garbled_relu_bytes,
    relu_and_gates,
    relu_reference,
)


def garble_and_run(circuit, garbler_bits, evaluator_bits, seed=0):
    garbler = Garbler(SecureRandom(seed))
    garbled, encoding = garbler.garble(circuit)
    labels = Garbler.encode_inputs(encoding, circuit, garbler_bits)
    for wire, bit in zip(circuit.evaluator_inputs, evaluator_bits):
        labels[wire] = encoding.label_for(wire, bit)
    evaluator = Evaluator()
    out_labels = evaluator.evaluate(garbled, labels)
    return evaluator.decode(garbled, out_labels), out_labels, encoding, garbled


class TestGateCorrectness:
    @pytest.mark.parametrize("ga", [0, 1])
    @pytest.mark.parametrize("ea", [0, 1])
    def test_and_gate(self, ga, ea):
        b = CircuitBuilder()
        x, y = b.garbler_input(), b.evaluator_input()
        b.mark_output([b.and_(x, y)])
        bits, *_ = garble_and_run(b.build(), [ga], [ea])
        assert bits == [ga & ea]

    @pytest.mark.parametrize("ga", [0, 1])
    @pytest.mark.parametrize("ea", [0, 1])
    def test_xor_gate(self, ga, ea):
        b = CircuitBuilder()
        x, y = b.garbler_input(), b.evaluator_input()
        b.mark_output([b.xor(x, y)])
        bits, *_ = garble_and_run(b.build(), [ga], [ea])
        assert bits == [ga ^ ea]

    @pytest.mark.parametrize("ga", [0, 1])
    def test_not_gate(self, ga):
        b = CircuitBuilder()
        x = b.garbler_input()
        b.mark_output([b.not_(x)])
        bits, *_ = garble_and_run(b.build(), [ga], [])
        assert bits == [1 - ga]


class TestGarbledVsPlain:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=20, deadline=None)
    def test_adder_matches_plain(self, seed, a, c):
        b = CircuitBuilder()
        x = b.garbler_input_word(8)
        y = b.evaluator_input_word(8)
        s, carry = b.add(x, y)
        b.mark_output(s + [carry])
        circuit = b.build()
        bits, *_ = garble_and_run(circuit, int_to_bits(a, 8), int_to_bits(c, 8), seed)
        assert bits == circuit.evaluate_plain(int_to_bits(a, 8), int_to_bits(c, 8))

    def test_random_circuit_fuzz(self):
        """Random DAGs of XOR/AND/NOT evaluate identically garbled vs plain."""
        rnd = random.Random(99)
        for trial in range(10):
            b = CircuitBuilder()
            wires = [b.garbler_input() for _ in range(4)]
            wires += [b.evaluator_input() for _ in range(4)]
            for _ in range(30):
                op = rnd.choice(["xor", "and", "not", "or", "mux"])
                x, y, z = rnd.choice(wires), rnd.choice(wires), rnd.choice(wires)
                if op == "xor":
                    wires.append(b.xor(x, y))
                elif op == "and":
                    wires.append(b.and_(x, y))
                elif op == "or":
                    wires.append(b.or_(x, y))
                elif op == "mux":
                    wires.append(b.mux_bit(x, y, z))
                else:
                    wires.append(b.not_(x))
            b.mark_output(wires[-8:])
            circuit = b.build()
            g_bits = [rnd.getrandbits(1) for _ in range(4)]
            e_bits = [rnd.getrandbits(1) for _ in range(4)]
            got, *_ = garble_and_run(circuit, g_bits, e_bits, seed=trial)
            assert got == circuit.evaluate_plain(g_bits, e_bits)


class TestEncodingProperties:
    def test_free_xor_invariant(self):
        """label1 == label0 XOR delta on every input wire."""
        b = CircuitBuilder()
        x = b.garbler_input()
        b.mark_output([x])
        circuit = b.build()
        _, encoding = Garbler(SecureRandom(3)).garble(circuit)
        l0 = encoding.label_for(x, 0)
        l1 = encoding.label_for(x, 1)
        assert xor_bytes(l0, l1) == encoding.delta

    def test_delta_lsb_is_one(self):
        b = CircuitBuilder()
        b.mark_output([b.garbler_input()])
        _, encoding = Garbler(SecureRandom(4)).garble(b.build())
        assert encoding.delta[0] & 1 == 1

    def test_garbler_side_decode(self):
        b = CircuitBuilder()
        x, y = b.garbler_input(), b.evaluator_input()
        b.mark_output([b.and_(x, y), b.xor(x, y)])
        circuit = b.build()
        bits, out_labels, encoding, _ = garble_and_run(circuit, [1], [1])
        assert Garbler.decode_output_labels(encoding, circuit, out_labels) == bits

    def test_garbler_decode_rejects_forged_label(self):
        b = CircuitBuilder()
        x = b.garbler_input()
        b.mark_output([x])
        circuit = b.build()
        _, _, encoding, _ = garble_and_run(circuit, [1], [])
        with pytest.raises(ValueError):
            Garbler.decode_output_labels(encoding, circuit, [b"\x00" * LABEL_BYTES])

    def test_size_accounting(self):
        b = CircuitBuilder()
        x, y = b.garbler_input(), b.evaluator_input()
        b.mark_output([b.and_(x, y)])
        garbled, _ = Garbler(SecureRandom(5)).garble(b.build())
        assert garbled.size_bytes == 2 * LABEL_BYTES + 1

    def test_wrong_garbler_input_length(self):
        b = CircuitBuilder()
        b.garbler_input()
        circuit = b.build()
        _, encoding = Garbler(SecureRandom(6)).garble(circuit)
        with pytest.raises(ValueError):
            Garbler.encode_inputs(encoding, circuit, [0, 1])


class TestReluCircuit:
    P = 65521  # 16-bit prime

    def _run(self, sa, sb, r, mask_owner="evaluator"):
        spec = ReluCircuitSpec(bits=16, modulus=self.P, mask_owner=mask_owner)
        circuit = build_relu_circuit(spec)
        if mask_owner == "evaluator":
            g_bits = int_to_bits(sa, 16)
            e_bits = int_to_bits(sb, 16) + int_to_bits(r, 16)
        else:
            g_bits = int_to_bits(sa, 16) + int_to_bits(r, 16)
            e_bits = int_to_bits(sb, 16)
        bits, *_ = garble_and_run(circuit, g_bits, e_bits, seed=11)
        return words_to_int(bits)

    @given(
        st.integers(min_value=0, max_value=P - 1),
        st.integers(min_value=0, max_value=P - 1),
        st.integers(min_value=0, max_value=P - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_reference(self, sa, sb, r):
        assert self._run(sa, sb, r) == relu_reference(sa, sb, r, self.P)

    def test_positive_value_passes(self):
        y = 1234  # positive (< p/2)
        sa = 777
        sb = (y - sa) % self.P
        assert self._run(sa, sb, 0) == y

    def test_negative_value_clamps(self):
        y = self.P - 50  # represents -50
        sa = 999
        sb = (y - sa) % self.P
        assert self._run(sa, sb, 0) == 0

    def test_mask_subtraction(self):
        y, r = 100, 30
        sa = 5
        sb = (y - sa) % self.P
        assert self._run(sa, sb, r) == 70

    def test_garbler_owned_mask(self):
        y, r = 200, 45
        sa = 17
        sb = (y - sa) % self.P
        assert self._run(sa, sb, r, mask_owner="garbler") == 155

    def test_boundary_half(self):
        half_up = (self.P + 1) // 2  # smallest negative representative
        assert self._run(half_up, 0, 0) == 0
        assert self._run(half_up - 1, 0, 0) == half_up - 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ReluCircuitSpec(bits=8, modulus=300, mask_owner="evaluator")
        with pytest.raises(ValueError):
            ReluCircuitSpec(bits=16, modulus=65521, mask_owner="nobody")

    def test_gate_count_scales_linearly(self):
        small = relu_and_gates(8)
        large = relu_and_gates(16)
        assert 1.7 < large / small < 2.3

    def test_41_bit_relu_matches_paper_footprint(self):
        """First-principles garbled ReLU size ≈ the paper's 18.2 KB/ReLU."""
        size = garbled_relu_bytes(41)
        assert 0.85 * 18200 <= size <= 1.1 * 18200


class TestBatchedWalkIsTheScalarWalk:
    """A batch is ``count`` scalar instances, bit for bit: same tables,
    decode bits and encodings from the same labels, same output labels
    from the same inputs — so the columnar walk has the scalar one's
    correctness, whatever the row hash is."""

    P = 65521

    @pytest.fixture(scope="class", params=["evaluator", "garbler"])
    def circuit(self, request):
        return build_relu_circuit(
            ReluCircuitSpec(bits=16, modulus=self.P, mask_owner=request.param)
        )

    @pytest.mark.parametrize(
        "count", [1, 2, 8, LANE_WALK_MAX_ROWS, LANE_WALK_MAX_ROWS + 1, 128]
    )
    def test_garble_and_evaluate(self, circuit, count):
        deltas, zero = derive_batch_labels(SecureRandom(count), circuit, count)
        circuits, encodings = garble_batch_from_labels(circuit, deltas, zero)
        scalar = [
            garble_from_labels(
                circuit,
                deltas[i].tobytes(),
                {w: zero[k, i].tobytes() for k, w in enumerate(circuit.input_wires)},
            )
            for i in range(count)
        ]
        assert list(circuits) == [garbled for garbled, _ in scalar]
        assert list(encodings) == [encoding for _, encoding in scalar]
        # ... and the views convert back to the same columns.
        again = GarbledBatch.from_instances(circuit, list(circuits))
        assert (again.tables == circuits.tables).all()
        assert (again.decode_bits == circuits.decode_bits).all()
        back = EncodingBatch.from_instances(circuit, list(encodings))
        assert (back.zero_labels == encodings.zero_labels).all()
        assert (back.output_zero_labels == encodings.output_zero_labels).all()

        rnd = random.Random(count)

        def random_bits(wires):
            return [[rnd.getrandbits(1) for _ in wires] for _ in range(count)]

        g_bits = np.array(random_bits(circuit.garbler_inputs), dtype=np.uint8)
        e_bits = random_bits(circuit.evaluator_inputs)
        own = Garbler.encode_inputs(encodings, circuit, g_bits)
        zero_e, one_e = encodings.evaluator_pairs()
        chosen = np.where(np.array(e_bits, dtype=bool).reshape(-1, 1), one_e, zero_e)
        theirs = LabelBatch(
            circuit.evaluator_inputs, chosen.reshape(count, -1, LABEL_BYTES)
        )
        for i, (_, encoding) in enumerate(scalar):
            assert own[i] == Garbler.encode_inputs(
                encoding, circuit, g_bits[i].tolist()
            )
            assert theirs[i] == {
                w: encoding.label_for(w, bit)
                for w, bit in zip(circuit.evaluator_inputs, e_bits[i])
            }

        evaluator = Evaluator()
        columns = {**own.columns(), **theirs.columns()}
        outputs = evaluator.evaluate_batch(circuits, columns, vectorize=True)
        assert (
            outputs == evaluator.evaluate_batch(circuits, columns, vectorize=False)
        ).all()
        bits = evaluator.decode(circuits, outputs)
        assert (bits == Garbler.decode_output_labels(encodings, circuit, outputs)).all()
        for i, (garbled, encoding) in enumerate(scalar):
            labels = evaluator.evaluate(garbled, {**own[i], **theirs[i]})
            assert labels == [row.tobytes() for row in outputs[i]]
            assert evaluator.decode(garbled, labels) == bits[i].tolist()
            assert bits[i].tolist() == circuit.evaluate_plain(
                g_bits[i].tolist(), e_bits[i]
            )

    def test_scalar_garbler_fills_the_same_columns(self, circuit):
        """``vectorize=False`` (the python backend's garbler) is ``count``
        ``garble()`` calls packed into the batch."""
        circuits, encodings = Garbler(SecureRandom(9)).garble_batch(
            circuit, 3, vectorize=False
        )
        rng = SecureRandom(9)
        scalar = [Garbler(rng).garble(circuit) for _ in range(3)]
        assert list(circuits) == [garbled for garbled, _ in scalar]
        assert list(encodings) == [encoding for _, encoding in scalar]

    def test_a_forged_output_label_is_rejected_in_the_batch_too(self, circuit):
        circuits, encodings = Garbler(SecureRandom(2)).garble_batch(circuit, 4)
        outputs = encodings.output_zero_labels.transpose(1, 0, 2).copy()
        assert not Garbler.decode_output_labels(encodings, circuit, outputs).any()
        outputs[2, 5, 7] ^= 1
        with pytest.raises(ValueError):
            Garbler.decode_output_labels(encodings, circuit, outputs)

    def test_wrong_garbler_bit_matrix_shape(self, circuit):
        _, encodings = Garbler(SecureRandom(3)).garble_batch(circuit, 2)
        with pytest.raises(ValueError):
            Garbler.encode_inputs(encodings, circuit, np.zeros((2, 1), dtype=np.uint8))


@st.composite
def random_circuits(draw):
    """Small XOR/AND circuits over any earlier wire: repeated operands
    (``a == b``), constant wires as operands and outputs, outputs that are
    inputs, repeated outputs, no AND gate at all."""
    n_garbler = draw(st.integers(0, 3))
    n_evaluator = draw(st.integers(0, 3))
    wires = 2 + n_garbler + n_evaluator
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from([GateType.XOR, GateType.AND]))
        a = draw(st.integers(0, wires - 1))
        b = draw(st.one_of(st.just(a), st.integers(0, wires - 1)))
        gates.append(Gate(kind, a, b, wires))
        wires += 1
    return Circuit(
        n_wires=wires,
        gates=gates,
        garbler_inputs=list(range(2, 2 + n_garbler)),
        evaluator_inputs=list(range(2 + n_garbler, 2 + n_garbler + n_evaluator)),
        outputs=draw(st.lists(st.integers(0, wires - 1), min_size=1, max_size=6)),
    )


class TestLaneWalk:
    """The lane walk, the column walk and the scalar walk are one walk:
    same tables, decode bits and output zero-labels from the same labels,
    same output labels and bits from the same inputs, on either side of
    the width at which ``garble_batch_from_labels`` switches walks."""

    @given(
        circuit=random_circuits(),
        count=st.sampled_from(
            [1, LANE_WALK_MAX_ROWS - 1, LANE_WALK_MAX_ROWS, LANE_WALK_MAX_ROWS + 1, 128]
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_walks_agree(self, circuit, count, seed):
        deltas, zero = derive_batch_labels(SecureRandom(seed), circuit, count)
        lanes, lane_encodings = garble_lanes(circuit, deltas, zero)
        columns, column_encodings = garble_columns(circuit, deltas, zero)
        scalar = [
            garble_from_labels(
                circuit,
                deltas[i].tobytes(),
                {w: zero[k, i].tobytes() for k, w in enumerate(circuit.input_wires)},
            )
            for i in range(count)
        ]
        reference = GarbledBatch.from_instances(circuit, [g for g, _ in scalar])
        encoding = EncodingBatch.from_instances(circuit, [e for _, e in scalar])
        for batch in (lanes, columns):
            assert (batch.tables == reference.tables).all()
            assert (batch.decode_bits == reference.decode_bits).all()
        for encodings in (lane_encodings, column_encodings):
            assert (encodings.output_zero_labels == encoding.output_zero_labels).all()

        rnd = random.Random(seed)
        g_bits = np.array(
            [[rnd.getrandbits(1) for _ in circuit.garbler_inputs] for _ in range(count)],
            dtype=np.uint8,
        ).reshape(count, -1)
        e_bits = np.array(
            [[rnd.getrandbits(1) for _ in circuit.evaluator_inputs] for _ in range(count)],
            dtype=bool,
        ).reshape(count, -1)
        zero_e, one_e = encoding.evaluator_pairs()
        chosen = np.where(e_bits.reshape(-1, 1), one_e, zero_e)
        labels = {
            **Garbler.encode_inputs(encoding, circuit, g_bits).columns(),
            **LabelBatch(
                circuit.evaluator_inputs, chosen.reshape(count, -1, LABEL_BYTES)
            ).columns(),
        }
        evaluator = Evaluator()
        outputs = evaluator.evaluate_batch(reference, labels, vectorize=False)
        assert (evaluate_lanes(reference, labels) == outputs).all()
        assert (evaluate_columns(reference, labels) == outputs).all()
        bits = evaluator.decode(reference, outputs)
        assert (bits == Garbler.decode_output_labels(encoding, circuit, outputs)).all()
        for i in range(count):
            assert bits[i].tolist() == circuit.evaluate_plain(
                g_bits[i].tolist(), e_bits[i].astype(int).tolist()
            )

    def test_the_batch_width_picks_the_walk(self, monkeypatch):
        """Up to LANE_WALK_MAX_ROWS instances walk on lanes, beyond on
        columns — garbler and evaluator alike."""
        from repro.gc import evaluate, garble

        circuit = build_relu_circuit(
            ReluCircuitSpec(bits=8, modulus=251, mask_owner="evaluator")
        )
        walked = []

        def spy(module, name):
            real = getattr(module, name)

            def walk(*args):
                walked.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, walk)

        for module, name in (
            (garble, "garble_lanes"),
            (garble, "garble_columns"),
            (evaluate, "evaluate_lanes"),
            (evaluate, "evaluate_columns"),
        ):
            spy(module, name)
        for count in (1, LANE_WALK_MAX_ROWS, LANE_WALK_MAX_ROWS + 1):
            walked.clear()
            circuits, encodings = Garbler(SecureRandom(count)).garble_batch(
                circuit, count, vectorize=True
            )
            zero = encodings.zero_labels
            Evaluator().evaluate_batch(
                circuits, dict(zip(circuit.input_wires, zero)), vectorize=True
            )
            kind = "lanes" if count <= LANE_WALK_MAX_ROWS else "columns"
            assert walked == [f"garble_{kind}", f"evaluate_{kind}"]
