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

    @pytest.mark.parametrize(
        "bits, modulus, functional, paper",
        [
            (41, 1099511795713, 286, 534),
            (41, 2061584302081, 286, 534),
            (17, 65537, 118, 222),
        ],
    )
    def test_functional_circuit_is_leaner_than_the_papers(
        self, bits, modulus, functional, paper
    ):
        """The garbled circuit has 7k - 1 ANDs; the paper's model keeps
        the textbook 13k + 1 its garbled sizes were measured on."""
        for mask_owner in ("evaluator", "garbler"):
            spec = ReluCircuitSpec(bits=bits, modulus=modulus, mask_owner=mask_owner)
            assert build_relu_circuit(spec).and_count == functional
        assert relu_and_gates(bits) == paper

    def test_41_bit_relu_matches_paper_footprint(self):
        """First-principles garbled ReLU size ≈ the paper's 18.2 KB/ReLU."""
        size = garbled_relu_bytes(41)
        assert 0.85 * 18200 <= size <= 1.1 * 18200


class TestGarbledLeanRelu:
    """Garbled batches of the ReLU circuit, on the lane walk (up to
    LANE_WALK_MAX_ROWS instances) and the column walk (beyond), decode to
    :func:`relu_reference` of every instance's triple."""

    P = 65537  # fast_params' 17-bit share prime

    @pytest.mark.parametrize("count", [8, LANE_WALK_MAX_ROWS + 1])
    @pytest.mark.parametrize("mask_owner", ["evaluator", "garbler"])
    @pytest.mark.parametrize("truncate_bits", [0, 3])
    def test_batch_decodes_to_the_reference(self, count, mask_owner, truncate_bits):
        spec = ReluCircuitSpec(
            bits=17, modulus=self.P, mask_owner=mask_owner, truncate_bits=truncate_bits
        )
        circuit = build_relu_circuit(spec)
        rnd = random.Random(count)
        edges = [0, self.P // 2, (self.P + 1) // 2, self.P - 1]
        triples = [
            [
                rnd.choice(edges) if rnd.random() < 0.25 else rnd.randrange(self.P)
                for _ in "abr"
            ]
            for _ in range(count)
        ]

        def bits(*values):
            return [b for v in values for b in int_to_bits(v, 17)]

        if mask_owner == "garbler":
            g_bits = [bits(a, r) for a, _, r in triples]
            e_bits = [bits(b) for _, b, _ in triples]
        else:
            g_bits = [bits(a) for a, _, _ in triples]
            e_bits = [bits(b, r) for _, b, r in triples]
        circuits, encodings = Garbler(SecureRandom(count)).garble_batch(
            circuit, count, vectorize=True
        )
        own = Garbler.encode_inputs(encodings, circuit, np.array(g_bits, dtype=np.uint8))
        zero_e, one_e = encodings.evaluator_pairs()
        chosen = np.where(np.array(e_bits, dtype=bool).reshape(-1, 1), one_e, zero_e)
        theirs = LabelBatch(
            circuit.evaluator_inputs, chosen.reshape(count, -1, LABEL_BYTES)
        )
        evaluator = Evaluator()
        outputs = evaluator.evaluate_batch(
            circuits, {**own.columns(), **theirs.columns()}, vectorize=True
        )
        decoded = evaluator.decode(circuits, outputs)
        assert [words_to_int(row) for row in decoded.tolist()] == [
            relu_reference(a, b, r, self.P, truncate_bits) for a, b, r in triples
        ]


class TestFoldedOutputs:
    """A circuit whose outputs fold to input or constant wires — no gate
    behind them — garbles, evaluates and decodes on every walk."""

    @staticmethod
    def folded_circuit():
        b = CircuitBuilder()
        x, y = b.garbler_input(), b.evaluator_input()
        b.mark_output(
            [
                b.xor(x, b.zero),  # x
                b.and_(y, b.one),  # y
                b.and_(x, x),  # x
                b.xor(y, y),  # constant zero
                b.not_(b.zero),  # constant one
                b.and_(x, b.zero),  # constant zero
                b.and_(x, y),  # one real gate beside them
            ]
        )
        circuit = b.build()
        assert circuit.outputs[:6] == [x, y, x, b.zero, b.one, b.zero]
        assert (circuit.and_count, circuit.xor_count) == (1, 0)
        return circuit

    @pytest.mark.parametrize("x, y", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_scalar_walk(self, x, y):
        circuit = self.folded_circuit()
        bits, out_labels, encoding, _ = garble_and_run(circuit, [x], [y])
        assert bits == [x, y, x, 0, 1, 0, x & y]
        assert Garbler.decode_output_labels(encoding, circuit, out_labels) == bits

    @pytest.mark.parametrize(
        "garble_walk, evaluate_walk",
        [(garble_lanes, evaluate_lanes), (garble_columns, evaluate_columns)],
        ids=["lanes", "columns"],
    )
    def test_batched_walks(self, garble_walk, evaluate_walk):
        circuit = self.folded_circuit()
        count = 4
        deltas, zero = derive_batch_labels(SecureRandom(7), circuit, count)
        circuits, encodings = garble_walk(circuit, deltas, zero)
        g_bits = np.array([[0], [0], [1], [1]], dtype=np.uint8)
        e_bits = np.array([0, 1, 0, 1], dtype=bool)
        zero_e, one_e = encodings.evaluator_pairs()
        chosen = np.where(e_bits.reshape(-1, 1), one_e, zero_e)
        labels = {
            **Garbler.encode_inputs(encodings, circuit, g_bits).columns(),
            **LabelBatch(
                circuit.evaluator_inputs, chosen.reshape(count, -1, LABEL_BYTES)
            ).columns(),
        }
        outputs = evaluate_walk(circuits, labels)
        bits = Evaluator().decode(circuits, outputs)
        assert bits.tolist() == [
            [x, y, x, 0, 1, 0, x & y] for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        assert (bits == Garbler.decode_output_labels(encodings, circuit, outputs)).all()


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

    @pytest.mark.parametrize("count", [3, LANE_WALK_MAX_ROWS + 1])
    def test_scalar_garbler_fills_the_same_columns(self, circuit, count):
        """``vectorize=False`` (the python backend's garbler) and
        ``vectorize=True`` garble the same batch, byte for byte, from one
        seed: both draw with ``derive_batch_labels``, so a stored label
        seed re-derives its labels under either backend."""
        scalar_circuits, scalar_encodings = Garbler(SecureRandom(9)).garble_batch(
            circuit, count, vectorize=False
        )
        circuits, encodings = Garbler(SecureRandom(9)).garble_batch(
            circuit, count, vectorize=True
        )
        pairs = [
            (scalar_circuits, circuits, name) for name in ("tables", "decode_bits")
        ]
        pairs += [
            (scalar_encodings, encodings, name)
            for name in ("deltas", "zero_labels", "output_zero_labels")
        ]
        for scalar, batch, name in pairs:
            assert getattr(scalar, name).dtype == getattr(batch, name).dtype
            assert np.array_equal(getattr(scalar, name), getattr(batch, name))

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


def check_level_program(circuit):
    """The column walk's schedule runs every gate once, each after its
    inputs, with the tweak and table slot of its gate-list position."""
    level_of = dict.fromkeys(circuit.input_wires, 0)  # the wires made so far
    seen = []
    for depth, level in enumerate(circuit.level_program):
        assert len(level.inputs) == len(level.out) == len(level.tweaks)
        assert len(level.slot) == len(level.out)
        assert (len(level.out) > 0) == (depth > 0)
        for (a, b), out, tweaks, slot in zip(
            level.inputs.tolist(),
            level.out.tolist(),
            level.tweaks.tolist(),
            level.slot.tolist(),
        ):
            index = circuit.and_indices[slot]
            assert circuit.gates[index] == Gate(GateType.AND, a, b, out)
            assert tweaks == [[2 * index], [2 * index + 1]]
            assert max(level_of[a], level_of[b]) < depth
            seen.append(index)
        for out in level.out.tolist():
            level_of[out] = depth
        for a, b, out in level.xors:
            index = next(i for i, g in enumerate(circuit.gates) if g.out == out)
            assert circuit.gates[index] == Gate(GateType.XOR, a, b, out)
            assert max(level_of[a], level_of[b]) <= depth
            level_of[out] = depth
            seen.append(index)
    assert sorted(seen) == list(range(len(circuit.gates)))


class TestLevelProgram:
    """``Circuit.level_program``, the schedule of the column walk."""

    @given(circuit=random_circuits())
    @settings(max_examples=60, deadline=None)
    def test_invariants_on_random_circuits(self, circuit):
        check_level_program(circuit)

    @pytest.mark.parametrize("mask_owner", ["evaluator", "garbler"])
    def test_invariants_on_a_relu(self, mask_owner):
        circuit = build_relu_circuit(
            ReluCircuitSpec(bits=17, modulus=65521, mask_owner=mask_owner)
        )
        check_level_program(circuit)
        # The ripple-carry chains set the depth, not the gate count.
        assert len(circuit.level_program) - 1 < circuit.and_count

    @staticmethod
    def wide_level_circuit(width=40):
        """``width`` AND gates side by side in one level, then an XOR
        chain over their outputs."""
        b = CircuitBuilder()
        xs = b.garbler_input_word(width)
        ys = b.evaluator_input_word(width)
        ands = [b.and_(x, y) for x, y in zip(xs, ys)]
        acc = ands[0]
        for wire in ands[1:]:
            acc = b.xor(acc, wire)
        b.mark_output(ands + [acc])
        return b.build()

    def test_one_wide_level(self):
        circuit = self.wide_level_circuit()
        assert [len(level.out) for level in circuit.level_program] == [0, 40]
        assert len(circuit.level_program[1].xors) == 39
        check_level_program(circuit)

    @pytest.mark.parametrize("count", [65, 128])
    def test_wide_level_walks_as_the_scalar_walk(self, count):
        circuit = self.wide_level_circuit()
        deltas, zero = derive_batch_labels(SecureRandom(count), circuit, count)
        circuits, encodings = garble_columns(circuit, deltas, zero)
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

        rnd = random.Random(count)
        g_bits = np.array(
            [[rnd.getrandbits(1) for _ in range(40)] for _ in range(count)],
            dtype=np.uint8,
        )
        e_bits = np.array(
            [[rnd.getrandbits(1) for _ in range(40)] for _ in range(count)], dtype=bool
        )
        zero_e, one_e = encodings.evaluator_pairs()
        chosen = np.where(e_bits.reshape(-1, 1), one_e, zero_e)
        labels = {
            **Garbler.encode_inputs(encodings, circuit, g_bits).columns(),
            **LabelBatch(
                circuit.evaluator_inputs, chosen.reshape(count, -1, LABEL_BYTES)
            ).columns(),
        }
        evaluator = Evaluator()
        outputs = evaluate_columns(circuits, labels)
        assert (
            outputs == evaluator.evaluate_batch(circuits, labels, vectorize=False)
        ).all()
        products = g_bits & e_bits
        expected = np.concatenate(
            [products, np.bitwise_xor.reduce(products, axis=1, keepdims=True)], axis=1
        )
        assert (evaluator.decode(circuits, outputs) == expected).all()

    def test_an_empty_batch(self):
        """A layer of no activations garbles and evaluates to empty blocks."""
        circuit = build_relu_circuit(
            ReluCircuitSpec(bits=8, modulus=251, mask_owner="evaluator")
        )
        circuits, encodings = Garbler(SecureRandom(0)).garble_batch(
            circuit, 0, vectorize=True
        )
        assert circuits.tables.shape == (0, circuit.and_count, 2, LABEL_BYTES)
        assert circuits.decode_bits.shape == (0, len(circuit.outputs))
        assert circuits.size_bytes == 0
        labels = dict(zip(circuit.input_wires, encodings.zero_labels))
        outputs = Evaluator().evaluate_batch(circuits, labels, vectorize=True)
        assert outputs.shape == (0, len(circuit.outputs), LABEL_BYTES)
        assert Evaluator().decode(circuits, outputs).shape == (0, len(circuit.outputs))
