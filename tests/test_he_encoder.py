"""Tests for the BFV batch encoder (slot layout and rotation semantics)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.encoder import BatchEncoder
from repro.he.params import delphi_params, toy_params


@pytest.fixture(scope="module")
def encoder():
    return BatchEncoder(toy_params(n=128))


class TestRoundtrip:
    def test_full_vector(self, encoder):
        values = [i * 3 % encoder.params.t for i in range(encoder.slot_count)]
        assert encoder.decode(encoder.encode(values)) == values

    def test_partial_vector_pads_zero(self, encoder):
        values = [7, 8, 9]
        decoded = encoder.decode(encoder.encode(values))
        assert decoded[:3] == values
        assert all(v == 0 for v in decoded[3:])

    def test_too_many_values_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode([0] * (encoder.slot_count + 1))

    def test_values_reduced_mod_t(self, encoder):
        t = encoder.params.t
        decoded = encoder.decode(encoder.encode([t + 5]))
        assert decoded[0] == 5

    @given(st.lists(st.integers(min_value=0, max_value=2**17), min_size=1, max_size=128))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, encoder, values):
        t = encoder.params.t
        values = [v % t for v in values]
        assert encoder.decode(encoder.encode(values))[: len(values)] == values


def test_delphi_t_round_trips_and_decode_vec_is_decode():
    """delphi's 41-bit t transforms in the float-quotient lanes; decode_vec
    is decode's vector before the conversion to ints."""
    params = dataclasses.replace(delphi_params(), n=128)
    encoder = BatchEncoder(params)
    values = [(i * 0x9E3779B97F4A7C15 + params.t - 1) % params.t for i in range(params.n)]
    plaintext = encoder.encode(values)
    assert encoder.decode(plaintext) == values
    assert encoder.backend.tolist(encoder.decode_vec(plaintext)) == values


class TestSlotStructure:
    def test_constant_encodes_to_constant_poly(self, encoder):
        """All-equal slots must encode to the constant polynomial."""
        pt = encoder.encode([9] * encoder.slot_count)
        assert pt.coeffs[0] == 9
        assert all(c == 0 for c in pt.coeffs[1:])

    def test_slotwise_addition(self, encoder):
        t = encoder.params.t
        a = [3] * 5
        b = [4] * 5
        summed = encoder.encode(a) + encoder.encode(b)
        assert encoder.decode(summed)[:5] == [7] * 5

    def test_slotwise_product(self, encoder):
        """Polynomial product equals slot-wise product (CRT isomorphism)."""
        a = encoder.encode([2, 3, 4])
        b = encoder.encode([5, 6, 7] + [0] * (encoder.slot_count - 3))
        assert encoder.decode(a * b)[:3] == [10, 18, 28]

    def test_galois_elements_are_odd(self, encoder):
        for r in range(1, 8):
            assert encoder.galois_element_for_rotation(r) % 2 == 1
        assert encoder.galois_element_for_row_swap() % 2 == 1

    def test_rotation_element_identity(self, encoder):
        assert encoder.galois_element_for_rotation(0) == 1
        row = encoder.row_size
        assert encoder.galois_element_for_rotation(row) == 1

    def test_plaintext_automorphism_rotates_slots(self, encoder):
        """Applying the Galois map to a plaintext rotates its slots."""
        row = encoder.row_size
        values = list(range(row)) * 2
        pt = encoder.encode(values)
        g = encoder.galois_element_for_rotation(1)
        rotated = encoder.decode(pt.automorphism(g))
        assert rotated[:row] == [(i + 1) % row for i in range(row)]
        assert rotated[row:] == [(i + 1) % row + row if False else values[row + (i + 1) % row] for i in range(row)]
