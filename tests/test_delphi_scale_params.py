"""Functional checks at DELPHI-scale parameters (41-bit plaintext field).

Slower than the toy-parameter tests (degree-2048 ring, 120-bit modulus in
pure Python) but proves the substrates handle the paper's actual field
width — the same width whose ReLU circuits give the 18.2 KB storage
figure.
"""

import pytest

from repro.crypto.rng import SecureRandom
from repro.gc.circuit import int_to_bits, words_to_int
from repro.gc.evaluate import Evaluator
from repro.gc.garble import Garbler
from repro.gc.relu import (
    ReluCircuitSpec,
    build_relu_circuit,
    garbled_relu_bytes,
    relu_reference,
)
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.params import delphi_params


@pytest.fixture(scope="module")
def rig():
    params = delphi_params()
    ctx = BfvContext(params, SecureRandom(77))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    return params, ctx, encoder, sk, pk


class TestDelphiScaleBfv:
    def test_field_is_41_bits(self, rig):
        params = rig[0]
        assert params.t.bit_length() == 41
        assert params.n == 2048

    def test_encrypt_decrypt(self, rig):
        params, ctx, encoder, sk, pk = rig
        values = [123456789012, 987654321098, 1]
        ct = ctx.encrypt(pk, encoder.encode(values))
        assert encoder.decode(ctx.decrypt(sk, ct))[:3] == values

    def test_linear_layer_homomorphism(self, rig):
        """w*r - s on packed 41-bit values: the offline correlation."""
        params, ctx, encoder, sk, pk = rig
        t = params.t
        r = [3141592653589, 2718281828459]
        w = [1618033988749, 1414213562373]
        s = [1732050807568, 2236067977499]
        ct = ctx.encrypt(pk, encoder.encode(r))
        ct = ctx.mul_plain(ct, encoder.encode([w[0], w[1]] + [0] * (params.n - 2)))
        ct = ctx.sub_plain(ct, encoder.encode(s))
        got = encoder.decode(ctx.decrypt(sk, ct))[:2]
        assert got == [(wi * ri - si) % t for wi, ri, si in zip(w, r, s)]

    def test_noise_budget_healthy_after_layer(self, rig):
        params, ctx, encoder, sk, pk = rig
        ct = ctx.encrypt(pk, encoder.encode([1]))
        ct = ctx.mul_plain(ct, encoder.encode([params.t - 1] * params.n))
        assert ctx.noise_budget_bits(sk, ct) > 10


class TestDelphiScaleRelu:
    def test_41_bit_garbled_relu(self):
        """Garble and evaluate one ReLU over the paper's actual field width."""
        p = 2061584302081  # DELPHI's share prime
        spec = ReluCircuitSpec(bits=41, modulus=p, mask_owner="evaluator")
        circuit = build_relu_circuit(spec)
        garbled, encoding = Garbler(SecureRandom(5)).garble(circuit)

        sa, sb, r = 1234567890123, 987654321987, 555555555555
        labels = Garbler.encode_inputs(encoding, circuit, int_to_bits(sa, 41))
        for wire, bit in zip(
            circuit.evaluator_inputs, int_to_bits(sb, 41) + int_to_bits(r, 41)
        ):
            labels[wire] = encoding.label_for(wire, bit)
        evaluator = Evaluator()
        bits = evaluator.decode(garbled, evaluator.evaluate(garbled, labels))
        assert words_to_int(bits) == relu_reference(sa, sb, r, p)

    def test_size_is_the_paper_storage_constant(self):
        # The paper's circuit: 2.23M of these per ResNet-18/TinyImageNet
        # inference -> ~41 GB.
        assert 15_000 <= garbled_relu_bytes(41) <= 20_000
        # The garbled functional circuit: two ciphertexts per each of its
        # 286 ANDs plus one decode bit per output wire.
        p = 2061584302081
        spec = ReluCircuitSpec(bits=41, modulus=p, mask_owner="evaluator")
        garbled, _ = Garbler(SecureRandom(6)).garble(build_relu_circuit(spec))
        assert garbled.size_bytes == 2 * 16 * 286 + 6 == 9_158
