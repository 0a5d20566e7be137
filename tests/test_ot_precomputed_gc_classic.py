"""Tests for OT precomputation and the classic-garbling ablation baseline."""

import random

import pytest

from repro.crypto.rng import SecureRandom
from repro.gc.circuit import CircuitBuilder, int_to_bits, words_to_int
from repro.gc.classic import ClassicEvaluator, ClassicGarbler
from repro.gc.garble import Garbler
from repro.gc.relu import ReluCircuitSpec, build_relu_circuit, relu_reference
from repro.ot.precomputed import online_ot_bytes, precompute_ots


class TestPrecomputedOt:
    def test_correctness(self):
        rnd = random.Random(0)
        n = 64
        sender, receiver = precompute_ots(n, SecureRandom(1))
        pairs = [(rnd.randbytes(16), rnd.randbytes(16)) for _ in range(n)]
        real = [rnd.getrandbits(1) for _ in range(n)]
        corrections = receiver.corrections(real)
        masked = sender.respond(corrections, pairs)
        got = receiver.recover(real, masked)
        for g, c, (m0, m1) in zip(got, real, pairs):
            assert g == (m1 if c else m0)

    def test_all_choice_patterns(self):
        for real_bit in (0, 1):
            sender, receiver = precompute_ots(8, SecureRandom(2))
            pairs = [(bytes([i] * 16), bytes([200 + i] * 16)) for i in range(8)]
            real = [real_bit] * 8
            masked = sender.respond(receiver.corrections(real), pairs)
            got = receiver.recover(real, masked)
            assert got == [p[real_bit] for p in pairs]

    def test_batch_size_mismatch_rejected(self):
        sender, receiver = precompute_ots(4, SecureRandom(3))
        with pytest.raises(ValueError):
            receiver.corrections([0] * 5)
        with pytest.raises(ValueError):
            sender.respond([0] * 4, [(b"x" * 16, b"y" * 16)] * 3)
        with pytest.raises(ValueError):
            receiver.recover([0] * 4, [(b"x" * 16, b"y" * 16)] * 3)

    def test_online_bytes_formula(self):
        # One correction bit per OT plus two masked labels.
        assert online_ot_bytes(800) == 100 + 2 * 800 * 16

    def test_online_cheaper_than_a_warm_iknp_batch(self):
        from repro.ot.extension import iknp_transcript

        warm = iknp_transcript(10_000, setup=False)
        assert online_ot_bytes(10_000) < warm.total_bytes

    def test_lengths(self):
        sender, receiver = precompute_ots(5, SecureRandom(4))
        assert len(sender) == len(receiver) == 5


class TestClassicGarbling:
    def _adder(self):
        builder = CircuitBuilder()
        a = builder.garbler_input_word(6)
        b = builder.evaluator_input_word(6)
        total, carry = builder.add(a, b)
        builder.mark_output(total + [carry])
        return builder.build()

    def test_correctness_random(self):
        rnd = random.Random(1)
        circuit = self._adder()
        garbler = ClassicGarbler(SecureRandom(5))
        garbled, encoding = garbler.garble(circuit)
        evaluator = ClassicEvaluator()
        for _ in range(20):
            x, y = rnd.randrange(64), rnd.randrange(64)
            labels = Garbler.encode_inputs(encoding, circuit, int_to_bits(x, 6))
            for w, bit in zip(circuit.evaluator_inputs, int_to_bits(y, 6)):
                labels[w] = encoding.label_for(w, bit)
            bits = evaluator.decode(garbled, evaluator.evaluate(garbled, labels))
            assert words_to_int(bits) == x + y

    def test_relu_circuit_under_classic_garbling(self):
        p = 65521
        spec = ReluCircuitSpec(bits=16, modulus=p, mask_owner="evaluator")
        circuit = build_relu_circuit(spec)
        garbled, encoding = ClassicGarbler(SecureRandom(6)).garble(circuit)
        evaluator = ClassicEvaluator()
        rnd = random.Random(2)
        for _ in range(5):
            sa, sb, r = rnd.randrange(p), rnd.randrange(p), rnd.randrange(p)
            labels = Garbler.encode_inputs(encoding, circuit, int_to_bits(sa, 16))
            for w, bit in zip(
                circuit.evaluator_inputs, int_to_bits(sb, 16) + int_to_bits(r, 16)
            ):
                labels[w] = encoding.label_for(w, bit)
            bits = evaluator.decode(garbled, evaluator.evaluate(garbled, labels))
            assert words_to_int(bits) == relu_reference(sa, sb, r, p)

    def test_half_gates_halve_the_size(self):
        """The ablation claim: classic tables are 2x the half-gates size."""
        spec = ReluCircuitSpec(bits=16, modulus=65521, mask_owner="evaluator")
        circuit = build_relu_circuit(spec)
        classic, _ = ClassicGarbler(SecureRandom(7)).garble(circuit)
        half, _ = Garbler(SecureRandom(8)).garble(circuit)
        assert classic.size_bytes == pytest.approx(2 * half.size_bytes, rel=0.01)

    def test_xor_still_free(self):
        builder = CircuitBuilder()
        a = builder.garbler_input()
        b = builder.evaluator_input()
        builder.mark_output([builder.xor(a, b)])
        garbled, _ = ClassicGarbler(SecureRandom(9)).garble(builder.build())
        assert garbled.tables == {}
