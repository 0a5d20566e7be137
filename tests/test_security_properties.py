"""Security-property and failure-injection tests.

The threat model is semi-honest, so these are not attack proofs — they
check the *mechanisms* the security argument rests on: labels reveal
nothing without the encoding, decode information is withheld from the
Server-Garbler evaluator, tampering is detected where the protocol can
detect it, the client's first message is its input masked, and the
wire carries no key material the server does not use.
"""

import random

import numpy as np
import pytest

from repro.core.protocol import HybridProtocol
from repro.crypto.prg import xor_bytes
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import CircuitBuilder, int_to_bits
from repro.gc.evaluate import Evaluator
from repro.gc.garble import GarbledCircuit, Garbler, GarbledGate
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.params import BfvParams, delphi_params, fast_params, toy_params
from repro.nn.datasets import tiny_dataset
from repro.nn.models import tiny_mlp

PARAMS = toy_params(n=256)
P = PARAMS.t


class TestLabelHiding:
    def _simple(self, seed):
        builder = CircuitBuilder()
        x, y = builder.garbler_input(), builder.evaluator_input()
        builder.mark_output([builder.and_(x, y)])
        circuit = builder.build()
        garbled, encoding = Garbler(SecureRandom(seed)).garble(circuit)
        return circuit, garbled, encoding

    def test_labels_are_unpredictable_across_garblings(self):
        _, _, enc1 = self._simple(1)
        _, _, enc2 = self._simple(2)
        wire = 2  # the garbler input wire
        assert enc1.label_for(wire, 0) != enc2.label_for(wire, 0)

    def test_label_pair_looks_unrelated_without_delta(self):
        """label1 = label0 XOR delta: without delta the pair is just random."""
        _, _, encoding = self._simple(3)
        wire = 2
        l0, l1 = encoding.label_for(wire, 0), encoding.label_for(wire, 1)
        assert l0 != l1
        assert xor_bytes(l0, l1) == encoding.delta

    def test_evaluator_output_labels_need_decode_bits(self):
        """Stripping decode bits leaves the evaluator with opaque labels."""
        circuit, garbled, encoding = self._simple(4)
        stripped = GarbledCircuit(circuit, garbled.tables, [])
        labels = Garbler.encode_inputs(encoding, circuit, [1])
        labels[circuit.evaluator_inputs[0]] = encoding.label_for(
            circuit.evaluator_inputs[0], 1
        )
        evaluator = Evaluator()
        out_labels = evaluator.evaluate(stripped, labels)
        assert evaluator.decode(stripped, out_labels) == []  # nothing decodable
        # The garbler, holding the encoding, can decode the same labels.
        assert Garbler.decode_output_labels(encoding, circuit, out_labels) == [1]


class TestTamperDetection:
    def test_corrupted_table_changes_or_breaks_output(self):
        builder = CircuitBuilder()
        a = builder.garbler_input_word(8)
        b = builder.evaluator_input_word(8)
        total, carry = builder.add(a, b)
        builder.mark_output(total + [carry])
        circuit = builder.build()
        garbled, encoding = Garbler(SecureRandom(5)).garble(circuit)

        # Corrupt every AND-gate ciphertext (both halves): any evaluation
        # path that consumes a table row now produces garbage labels.
        flip = b"\x01" + bytes(15)
        for index, gate in list(garbled.tables.items()):
            garbled.tables[index] = GarbledGate(
                xor_bytes(gate.generator_half, flip),
                xor_bytes(gate.evaluator_half, flip),
            )
        labels = Garbler.encode_inputs(encoding, circuit, int_to_bits(77, 8))
        for w, bit in zip(circuit.evaluator_inputs, int_to_bits(88, 8)):
            labels[w] = encoding.label_for(w, bit)
        evaluator = Evaluator()
        out_labels = evaluator.evaluate(garbled, labels)
        # The garbler detects a forged label (no valid decoding).
        with pytest.raises(ValueError):
            Garbler.decode_output_labels(encoding, circuit, out_labels)

    def test_forged_input_label_detected_at_decode(self):
        builder = CircuitBuilder()
        x = builder.garbler_input()
        builder.mark_output([x])
        circuit = builder.build()
        _, encoding = Garbler(SecureRandom(6)).garble(circuit)
        with pytest.raises(ValueError):
            Garbler.decode_output_labels(encoding, circuit, [bytes(16)])


def _offline_masks(seeds):
    """Client masks r and server shares s from real offline phases."""
    net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=PARAMS.row_size)
    net.randomize_weights(P, np.random.default_rng(12))
    client, server = [], []
    for seed in seeds:
        protocol = HybridProtocol(net, PARAMS, garbler="server", seed=seed)
        protocol.run_offline()
        client += [v for r in protocol.client_r for v in r]
        server += [v for s in protocol.server.server_s for v in s]
    return client, server


def _spread_across_octants(samples):
    """Chi-square style sanity: every eighth of the field holds its share
    of the samples, within five standard deviations."""
    buckets = [0] * 8
    for v in samples:
        assert 0 <= v < P
        buckets[v * 8 // P] += 1
    mean = len(samples) / 8
    sd = (len(samples) * (1 / 8) * (7 / 8)) ** 0.5
    return all(abs(b - mean) <= 5 * sd for b in buckets), buckets


class TestShareUniformity:
    def test_first_share_is_marginally_uniform(self):
        """The client's masks r, one per linear-layer input, spread
        across the field: x - r on the wire then says nothing of x."""
        client, _ = _offline_masks((21, 22))
        assert len(client) >= 200
        ok, buckets = _spread_across_octants(client)
        assert ok, buckets

    def test_server_share_is_marginally_uniform(self):
        """The server's output shares s hide W r from the client."""
        _, server = _offline_masks((23, 24))
        assert len(server) >= 200
        ok, buckets = _spread_across_octants(server)
        assert ok, buckets

    def test_masked_input_is_not_the_input(self):
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=8)
        net.randomize_weights(P, np.random.default_rng(8))
        protocol = HybridProtocol(net, PARAMS, garbler="server", seed=9)
        protocol.run_offline()
        x = [5] * 16
        protocol.run_online(x)
        # The first client message was x - r; with random r it differs from x.
        assert protocol.client_r[0] != [0] * 16


class TestNoiseExhaustion:
    def test_decryption_fails_gracefully_when_noise_overflows(self):
        """Too-small q: homomorphic ops drown the message in noise."""
        from repro.crypto.modmath import find_ntt_prime

        n = 64
        tight = BfvParams(n=n, q=find_ntt_prime(30, n), t=find_ntt_prime(12, n))
        ctx = BfvContext(tight, SecureRandom(10))
        encoder = BatchEncoder(tight)
        sk, pk = ctx.keygen()
        ct = ctx.encrypt(pk, encoder.encode([1] * n))
        # Repeated squaring of the noise via plain mults with large values.
        big = encoder.encode([tight.t - 1] * n)
        for _ in range(4):
            ct = ctx.mul_plain(ct, big)
        assert ctx.noise_budget_bits(sk, ct) == 0

    def test_budget_decreases_monotonically(self):
        ctx = BfvContext(PARAMS, SecureRandom(11))
        encoder = BatchEncoder(PARAMS)
        sk, pk = ctx.keygen()
        ct = ctx.encrypt(pk, encoder.encode([3]))
        budgets = [ctx.noise_budget_bits(sk, ct)]
        pt = encoder.encode([1000] * PARAMS.n)
        for _ in range(3):
            ct = ctx.mul_plain(ct, pt)
            budgets.append(ctx.noise_budget_bits(sk, ct))
        assert budgets == sorted(budgets, reverse=True)
        assert budgets[-1] < budgets[0]


class TestChannelIsolation:
    def test_protocol_messages_are_consumed_in_order(self):
        """No residual messages after a full protocol run (balanced sends)."""
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=8)
        net.randomize_weights(P, np.random.default_rng(12))
        protocol = HybridProtocol(net, PARAMS, garbler="client", seed=13)
        protocol.run_offline()
        protocol.run_online([1] * 16)
        with pytest.raises(RuntimeError):
            protocol.channel.recv("client")
        with pytest.raises(RuntimeError):
            protocol.channel.recv("server")


class TestWireCarriesOnlyWhatTheServerUses:
    """One full inference per garbler at delphi and fast params: the
    client sends no public key, no seeded uniform half ``a`` travels in
    any frame (its 32-byte seed does), and the server's expansion of each
    seed is exactly the client's ``a``."""

    @staticmethod
    def _run(params, garbler, monkeypatch):
        from repro.core import session
        from repro.network.serialize import frame_format_name

        sent, received = [], {"ct": [], "gk": []}
        encrypt, keygen = BfvContext.encrypt, BfvContext.galois_keygen

        def record(into, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                into.append(out)
                return out

            return wrapper

        made_ct, made_gk = [], []
        monkeypatch.setattr(BfvContext, "encrypt", record(made_ct, encrypt))
        monkeypatch.setattr(BfvContext, "galois_keygen", record(made_gk, keygen))
        for name, key in (("deserialize_ciphertext", "ct"),
                          ("deserialize_galois_keys", "gk")):
            monkeypatch.setattr(
                session, name, record(received[key], getattr(session, name))
            )
        net = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
        net.randomize_weights(params.t, np.random.default_rng(3))
        x = list(range(16))
        proto = HybridProtocol(net, params, garbler=garbler, seed=5, transport="memory")
        for party in (proto.client, proto.server):
            def send(frame, _send=party.transport.send):
                sent.append(bytes(frame))
                _send(frame)

            party.transport.send = send
        try:
            proto.run_offline()
            assert proto.run_online(x) == proto.plaintext_reference(x)
        finally:
            proto.close()
        names = [frame_format_name(frame) for frame in sent]
        return names, sent, made_ct, made_gk, received

    @pytest.mark.parametrize("garbler", ["server", "client"])
    @pytest.mark.parametrize("name", ["delphi", "fast"])
    def test_no_public_key_and_no_uniform_half_on_the_wire(
        self, name, garbler, monkeypatch
    ):
        from repro.backend import backend_for

        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        if name == "delphi" and backend_for(params.t).name != "numpy":
            pytest.skip("full-degree delphi runs need the vectorized backend")
        names, sent, made_ct, made_gk, received = self._run(
            params, garbler, monkeypatch
        )
        assert "public_key" not in names
        assert names.count("galois_keys") == 1
        assert names.count("seeded_ciphertext") == len(made_ct) == 2

        (gk,) = made_gk
        width = (params.q_bits + 7) // 8
        seeded = [(ct.c1, ct.seed) for ct in made_ct]
        seeded += [
            (a_j, seed)
            for g in gk.keys
            for (_, a_j), seed in zip(gk.keys[g], gk.seeds[g])
        ]
        assert len(seeded) == 2 + params.num_decomp_digits
        for a, seed in seeded:
            assert len(seed) == 32
            whole = a.to_bytes(width)
            assert not any(whole in frame for frame in sent)
            assert sum(seed in frame for frame in sent) == 1

        # The server's expansions are the client's elements, exactly.
        (server_gk,) = received["gk"]
        assert server_gk.seeds == gk.seeds
        for g in gk.keys:
            for (k0, a_j), (got_k0, got_a) in zip(gk.keys[g], server_gk.keys[g]):
                assert got_k0 == k0 and got_a == a_j
        server_cts = [ct for ct in received["ct"] if ct.seed is not None]
        assert len(server_cts) == len(made_ct)
        for mine, theirs in zip(made_ct, server_cts):
            assert theirs.seed == mine.seed
            assert theirs.c0 == mine.c0 and theirs.c1 == mine.c1
        # The returns Enc(W r - s) travel in full: nothing to seed.
        assert sum(ct.seed is None for ct in received["ct"]) == len(made_ct)

    @pytest.mark.parametrize("garbler", ["server", "client"])
    @pytest.mark.parametrize("name", ["delphi", "fast"])
    def test_the_returns_travel_switched_where_the_chain_allows(
        self, name, garbler, monkeypatch
    ):
        """Each delphi Enc(W r - s) is a 0x0E frame of four primes whose
        coefficients all lie below q'; at fast params, one prime and
        nothing to drop, no 0x0E frame is sent at all."""
        import struct

        from repro.backend import backend_for
        from repro.network.serialize import FMT_CIPHERTEXT, FMT_SWITCHED_CIPHERTEXT

        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        if name == "delphi" and backend_for(params.t).name != "numpy":
            pytest.skip("full-degree delphi runs need the vectorized backend")
        names, sent, _, _, received = self._run(params, garbler, monkeypatch)
        returns = [
            frame for frame, kind in zip(sent, names)
            if kind in ("ciphertext", "switched_ciphertext")
        ]
        assert len(returns) == 2
        arrived = [ct for ct in received["ct"] if ct.seed is None]
        assert [ct.q for ct in arrived] == [params.switched_q] * 2
        if name == "fast":
            assert "switched_ciphertext" not in names
            assert all(frame[3] == FMT_CIPHERTEXT for frame in returns)
            return
        for frame in returns:
            assert frame[3] == FMT_SWITCHED_CIPHERTEXT
            n, width, count = struct.unpack_from("<IBB", frame, 4)
            assert (n, width, count) == (params.n, 15, 4)
            body = frame[10:]
            assert len(body) == 2 * n * width
            assert max(
                int.from_bytes(body[i : i + width], "little")
                for i in range(0, len(body), width)
            ) < params.switched_q
