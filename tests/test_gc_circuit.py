"""Tests for the boolean circuit builder and plaintext evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.circuit import Circuit, CircuitBuilder, int_to_bits, words_to_int


def eval_words(circuit, garbler_words, evaluator_words, bits):
    g_bits = [b for w in garbler_words for b in int_to_bits(w, bits)]
    e_bits = [b for w in evaluator_words for b in int_to_bits(w, bits)]
    return circuit.evaluate_plain(g_bits, e_bits)


class TestBitHelpers:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip(self, v):
        assert words_to_int(int_to_bits(v, 32)) == v

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)


class TestSingleBitGates:
    @pytest.mark.parametrize("ga", [0, 1])
    @pytest.mark.parametrize("ea", [0, 1])
    def test_truth_tables(self, ga, ea):
        b = CircuitBuilder()
        x, y = b.garbler_input(), b.evaluator_input()
        b.mark_output(
            [b.xor(x, y), b.and_(x, y), b.or_(x, y), b.not_(x), b.mux_bit(x, y, b.zero)]
        )
        c = b.build()
        out = c.evaluate_plain([ga], [ea])
        assert out == [ga ^ ea, ga & ea, ga | ea, 1 - ga, ea if ga else 0]

    def test_constants(self):
        b = CircuitBuilder()
        b.mark_output([b.zero, b.one])
        assert b.build().evaluate_plain([], []) == [0, 1]

    def test_input_length_validation(self):
        b = CircuitBuilder()
        b.garbler_input()
        c = b.build()
        with pytest.raises(ValueError):
            c.evaluate_plain([], [])
        with pytest.raises(ValueError):
            c.evaluate_plain([1], [0])


class TestArithmetic:
    BITS = 8

    def _adder(self):
        b = CircuitBuilder()
        x = b.garbler_input_word(self.BITS)
        y = b.evaluator_input_word(self.BITS)
        s, carry = b.add(x, y)
        b.mark_output(s + [carry])
        return b.build()

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=50)
    def test_add(self, a, c):
        out = eval_words(self._adder(), [a], [c], self.BITS)
        assert words_to_int(out) == a + c

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=50)
    def test_sub_and_borrow(self, a, c):
        b = CircuitBuilder()
        x = b.garbler_input_word(self.BITS)
        y = b.evaluator_input_word(self.BITS)
        d, borrow = b.sub(x, y)
        b.mark_output(d + [borrow])
        out = eval_words(b.build(), [a], [c], self.BITS)
        assert out[-1] == (1 if a < c else 0)
        assert words_to_int(out[:-1]) == (a - c) % 256

    @given(st.integers(min_value=0, max_value=250), st.integers(min_value=0, max_value=250))
    @settings(max_examples=50)
    def test_add_mod(self, a, c):
        p = 251
        a, c = a % p, c % p
        b = CircuitBuilder()
        x = b.garbler_input_word(self.BITS)
        y = b.evaluator_input_word(self.BITS)
        b.mark_output(b.add_mod(x, y, p))
        out = eval_words(b.build(), [a], [c], self.BITS)
        assert words_to_int(out) == (a + c) % p

    @given(st.integers(min_value=0, max_value=250), st.integers(min_value=0, max_value=250))
    @settings(max_examples=50)
    def test_sub_mod(self, a, c):
        p = 251
        a, c = a % p, c % p
        b = CircuitBuilder()
        x = b.garbler_input_word(self.BITS)
        y = b.evaluator_input_word(self.BITS)
        b.mark_output(b.sub_mod(x, y, p))
        out = eval_words(b.build(), [a], [c], self.BITS)
        assert words_to_int(out) == (a - c) % p

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=40)
    def test_geq_const(self, a):
        threshold = 137
        b = CircuitBuilder()
        x = b.garbler_input_word(self.BITS)
        b.mark_output([b.geq_const(x, threshold)])
        out = eval_words(b.build(), [a], [], self.BITS)
        assert out[0] == (1 if a >= threshold else 0)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=40)
    def test_mux_word(self, a, c, sel):
        b = CircuitBuilder()
        s = b.garbler_input()
        x = b.garbler_input_word(self.BITS)
        y = b.evaluator_input_word(self.BITS)
        b.mark_output(b.mux_word(s, x, y))
        g_bits = [sel] + int_to_bits(a, self.BITS)
        out = b.build().evaluate_plain(g_bits, int_to_bits(c, self.BITS))
        assert words_to_int(out) == (a if sel else c)

    def test_width_mismatch_rejected(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            b.add(b.garbler_input_word(4), b.evaluator_input_word(5))
        with pytest.raises(ValueError):
            b.sub(b.garbler_input_word(4), b.evaluator_input_word(5))
        with pytest.raises(ValueError):
            b.mux_word(b.one, [b.zero] * 3, [b.zero] * 2)


class TestGateCounting:
    def test_counts(self):
        b = CircuitBuilder()
        x, y = b.garbler_input(), b.evaluator_input()
        b.mark_output([b.xor(x, y), b.and_(x, y)])
        c = b.build()
        assert c.and_count == 1
        assert c.xor_count == 1

    def test_xor_heavy_circuits_are_cheap(self):
        """Free-XOR economics: NOT/XOR add no AND gates."""
        b = CircuitBuilder()
        x = b.garbler_input()
        w = x
        for _ in range(100):
            w = b.not_(w)
        b.mark_output([w])
        assert b.build().and_count == 0


class TestBuiltCircuitsNeverChange:
    def test_building_on_leaves_a_built_circuit_alone(self):
        """A built circuit is shared and its derived lists are computed
        once, so adding gates to the CircuitBuilder must not grow it."""
        b = CircuitBuilder()
        x = b.garbler_input()
        b.mark_output([x])
        c = b.build()
        assert (c.and_indices, c.input_wires) == ([], [0, 1, x])
        b.mark_output([b.and_(x, b.evaluator_input())])
        assert c.gates == [] and c.outputs == [x] and c.evaluator_inputs == []
        assert (c.and_count, c.input_wires) == (0, [0, 1, x])
        assert b.build().and_count == 1
