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
    def _run(params, garbler, monkeypatch, hidden=8):
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
        net = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=hidden)
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
        assert proto.counters.he_rotations == (7 + 1 if hidden == 128 else 0)
        assert proto.server.plan == proto.client.plan
        return names, sent, made_ct, made_gk, received, proto.client.plan

    @pytest.mark.parametrize("garbler", ["server", "client"])
    @pytest.mark.parametrize("name", ["delphi", "fast"])
    def test_no_public_key_and_no_uniform_half_on_the_wire(
        self, name, garbler, monkeypatch
    ):
        from repro.backend import backend_for

        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        if name == "delphi" and backend_for(params.t).name != "numpy":
            pytest.skip("full-degree delphi runs need the vectorized backend")
        names, sent, made_ct, made_gk, received, _ = self._run(
            params, garbler, monkeypatch
        )
        assert "public_key" not in names
        # Both 16-8-3 products ride one ciphertext.
        assert names.count("seeded_ciphertext") == len(made_ct) == 1
        self._check_seeded(params, sent, made_ct, made_gk, received)

    @staticmethod
    def _check_seeded(params, sent, made_ct, made_gk, received):
        """Every seeded uniform half travels as its seed alone, and the
        server's expansions are the client's elements, exactly."""
        width = (params.q_bits + 7) // 8
        seeded = [(ct.c1, ct.seed) for ct in made_ct]
        seeded += [
            (a_j, seed)
            for gk in made_gk
            for g in gk.keys
            for (_, a_j), seed in zip(gk.keys[g], gk.seeds[g])
        ]
        assert len(seeded) == len(made_ct) + len(made_gk) * params.num_decomp_digits
        for a, seed in seeded:
            assert len(seed) == 32
            whole = a.to_bytes(width)
            assert not any(whole in frame for frame in sent)
            assert sum(seed in frame for frame in sent) == 1

        assert len(received["gk"]) == len(made_gk)
        for gk, server_gk in zip(made_gk, received["gk"]):
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
    @pytest.mark.parametrize(
        "name, hidden", [("delphi", 8), ("fast", 8), ("fast", 128)]
    )
    def test_a_galois_key_crosses_the_wire_iff_some_layer_rotates(
        self, name, hidden, garbler, monkeypatch
    ):
        """The 16-8-3 products fit delphi's and fast's slots unrotated:
        no key is made, and no 0x0D frame is sent. Fast's 16-128-3
        hidden layer needs eight steps (its output layer two), so there
        exactly one key crosses, and the server expands it exactly."""
        from repro.backend import backend_for

        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        if name == "delphi" and backend_for(params.t).name != "numpy":
            pytest.skip("full-degree delphi runs need the vectorized backend")
        names, sent, made_ct, made_gk, received, _ = self._run(
            params, garbler, monkeypatch, hidden
        )
        rotates = hidden == 128
        assert len(made_gk) == names.count("galois_keys") == rotates
        assert sum(frame[3] == 0x0D for frame in sent) == rotates
        self._check_seeded(params, sent, made_ct, made_gk, received)

    @pytest.mark.parametrize("garbler", ["server", "client"])
    @pytest.mark.parametrize(
        "name, hidden", [("delphi", 8), ("fast", 8), ("fast", 128)]
    )
    def test_one_ciphertext_each_way_per_packed_group(
        self, name, hidden, garbler, monkeypatch
    ):
        """The client's seeded ``Enc(r)`` frames and the server's returns
        number one each per group of the packing plan: 16-8-3 packs both
        products into one ciphertext, 16-128-3 rotates in both layers
        and keeps two."""
        from repro.backend import backend_for

        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        if name == "delphi" and backend_for(params.t).name != "numpy":
            pytest.skip("full-degree delphi runs need the vectorized backend")
        names, *_, plan = self._run(params, garbler, monkeypatch, hidden)
        assert len(plan) == (2 if hidden == 128 else 1)
        up = names.count("seeded_ciphertext")
        down = names.count("ciphertext") + names.count("switched_ciphertext")
        assert up == down == len(plan)

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
        names, sent, _, _, received, _ = self._run(params, garbler, monkeypatch)
        returns = [
            frame for frame, kind in zip(sent, names)
            if kind in ("ciphertext", "switched_ciphertext")
        ]
        assert len(returns) == 1
        arrived = [ct for ct in received["ct"] if ct.seed is None]
        assert [ct.q for ct in arrived] == [params.switched_q]
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


class TestReturnsAreMaskedPerSlot:
    """The server returns each group's ``W r - s`` as partial sums masked
    slot by slot (:meth:`repro.he.linear.SlotGroup.masks`): the client
    decrypts slots whose per-output sums are its shares and none of
    which is a bare partial sum, the slots no layer uses are the mask
    draw alone, and a keep-alive connection's mask stream never repeats
    across its requests."""

    @staticmethod
    def _net(params, hidden, seed):
        net = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=hidden)
        net.randomize_weights(params.t, np.random.default_rng(seed))
        return net

    @staticmethod
    def _params(name):
        from repro.backend import backend_for

        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        if name == "delphi" and backend_for(params.t).name != "numpy":
            pytest.skip("full-degree delphi runs need the vectorized backend")
        return params

    @pytest.mark.parametrize(
        "name, hidden", [("delphi", 8), ("fast", 8), ("fast", 128)]
    )
    def test_no_decrypted_slot_is_its_unmasked_partial_sum(
        self, name, hidden, monkeypatch
    ):
        from repro.he.linear import SlotGroup

        params = self._params(name)
        decrypted, drawn = [], []
        decrypt, masks = BfvContext.decrypt, SlotGroup.masks

        def recording(self, sk, ct):
            plain = decrypt(self, sk, ct)
            decrypted.append(plain)
            return plain

        def recording_masks(self, shares, uniform, modulus):
            drawn.append(list(uniform))
            return masks(self, shares, uniform, modulus)

        monkeypatch.setattr(BfvContext, "decrypt", recording)
        monkeypatch.setattr(SlotGroup, "masks", recording_masks)
        proto = HybridProtocol(
            self._net(params, hidden, 41), params, garbler="client", seed=43,
            transport="memory",
        )
        proto.run_offline()
        encoder = BatchEncoder(params)
        t = params.t
        linears = proto.server.lowered.linears
        plan = proto.client.plan
        assert len(decrypted) == len(drawn) == len(plan) == (2 if hidden == 128 else 1)
        for group, plain, uniform in zip(plan, decrypted, drawn):
            slots = encoder.decode(plain)
            partial = [None] * len(slots)  # the unmasked product, per used slot
            for i, layout in zip(group.layers, group.layouts):
                lin, r = linears[i], proto.client_r[i]
                for j, k in enumerate(layout.outputs.tolist()):
                    if k < lin.n_out:
                        cols = [
                            (j - layout.offset + d) % lin.n_in
                            for d in range(layout.steps)
                        ]
                        partial[j] = sum(int(lin.matrix[k][c]) * r[c] for c in cols) % t
                assert layout.reduce(slots, t) == proto.client.client_linear_share[i] == [
                    (sum(int(w) * v for w, v in zip(row, r)) - s_k) % t
                    for row, s_k in zip(lin.matrix, proto.server.server_s[i])
                ]
            assert not any(a == b for a, b in zip(slots, partial))
            # A slot no layer uses carries the negated draw and nothing else.
            unused = [j for j, v in enumerate(partial) if v is None]
            assert len(unused) == len(slots) - sum(
                lin.n_out * lin.n_in // layout.steps
                for lin, layout in zip(
                    (linears[i] for i in group.layers), group.layouts
                )
            )
            assert [slots[j] for j in unused] == [(-uniform[j]) % t for j in unused]

    def test_recycled_requests_never_reuse_a_mask(self, monkeypatch):
        from repro.he.linear import SlotGroup

        params = self._params("delphi")
        drawn = []
        masks = SlotGroup.masks

        def recording(self, shares, uniform, modulus):
            drawn.append(list(uniform))
            return masks(self, shares, uniform, modulus)

        monkeypatch.setattr(SlotGroup, "masks", recording)
        proto = HybridProtocol(
            self._net(params, 8, 45), params, garbler="client", seed=47,
            transport="memory",
        )
        x = list(range(16))
        streams = []
        try:
            for _ in range(2):
                proto.run_offline()
                assert proto.run_online(x) == proto.plaintext_reference(x)
                streams.append(proto.server._mask_rng)
                proto.reset_for_request()
        finally:
            proto.close()
        # One stream for the connection, continued by the second request.
        assert streams[0] is streams[1] is not None
        assert len(drawn) == 2  # one packed group, two requests
        first, second = set(drawn[0]), set(drawn[1])
        assert len(first) == 2 * params.row_size
        assert not first & second


class TestTheGarblerKeepsItsLabelSeed:
    """A store entry keeps the 16-byte seed each ReLU layer's labels are
    drawn from, not the labels. The seed is the garbler's alone: it
    crosses no wire and is not in the evaluator's half of an entry, and a
    Server-Garbler half restored from it decodes, and refuses, exactly
    as the garbler's in-memory encodings do."""

    @staticmethod
    def _mint(garbler):
        """An inference, every frame either party sent, and its entry."""
        params = fast_params(256)
        net = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
        net.randomize_weights(params.t, np.random.default_rng(3))
        proto = HybridProtocol(net, params, garbler=garbler, seed=5, transport="memory")
        sent = []
        for party in (proto.client, proto.server):
            def send(frame, _send=party.transport.send):
                sent.append(bytes(frame))
                _send(frame)

            party.transport.send = send
        x = list(range(16))
        try:
            proto.run_offline()
            blob = proto.offline_blob()
            assert proto.run_online(x) == proto.plaintext_reference(x)
        finally:
            proto.close()
        return proto, sent, blob

    @staticmethod
    def _halves(proto, blob):
        """(garbler's half, evaluator's half) of the entry."""
        from repro.core.protocol import split_offline_state

        garbling, evaluating = proto._gc_parties
        client, server = split_offline_state(
            blob, proto.lowered, evaluating.relu_circuit(), proto.garbler_role
        )
        return (client, server) if garbling is proto.client else (server, client)

    @pytest.mark.parametrize("garbler", ["server", "client"])
    def test_the_seed_is_in_no_frame_and_not_in_the_evaluator_s_half(self, garbler):
        from repro.network.serialize import frame_format_name, serialize_field_vector

        proto, sent, blob = self._mint(garbler)
        garbling, _ = proto._gc_parties
        seeds = [bundle.seed for bundle in garbling._relu_bundles.values()]
        assert len(seeds) == 1 and len(seeds[0]) == 16
        assert blob.count(seeds[0]) == 1  # the entry keeps it once
        # Both phases: the garbled batch and labels offline, the masked
        # input and the final share online.
        names = {frame_format_name(frame) for frame in sent}
        assert {"circuit_batch", "label_lists", "field_vector"} <= names
        assert not [frame for frame in sent if seeds[0] in frame]

        own, other = self._halves(proto, blob)
        assert [bundle.seed for bundle in own[-1].values()] == seeds
        held = b"".join(
            serialize_field_vector(vector, proto.modulus)
            for group in other[:-1]
            for vector in group
        )
        for bundle in other[-1].values():
            assert bundle.seed is None and bundle.encodings is None
            held += bundle.circuits.tables.tobytes()
            held += bundle.evaluator_labels.labels.tobytes()
        assert seeds[0] not in held

    def test_a_restored_server_garbler_half_rejects_a_forged_output_label(self):
        proto, _, blob = self._mint("server")
        circuit = proto.server.relu_circuit()
        (_, restored), _ = self._halves(proto, blob)
        for pos, bundle in restored.items():
            encodings = bundle.encodings
            live = proto.server._relu_bundles[pos].encodings
            for name in ("deltas", "zero_labels", "output_zero_labels"):
                assert np.array_equal(getattr(encodings, name), getattr(live, name))
            zeros = encodings.output_zero_labels.transpose(1, 0, 2).copy()
            ones = zeros ^ encodings.deltas[:, None, :]
            assert not Garbler.decode_output_labels(encodings, circuit, zeros).any()
            assert Garbler.decode_output_labels(encodings, circuit, ones).all()
            zeros[1, 2, 3] ^= 1
            with pytest.raises(ValueError, match="not in the encoding"):
                Garbler.decode_output_labels(encodings, circuit, zeros)
