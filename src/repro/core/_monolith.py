"""The pre-redesign monolithic protocol, frozen as a parity reference.

This is the PR-4-era :class:`HybridProtocol` — both parties simulated in
one object over one in-memory :class:`~repro.network.channel.Channel`,
with a single interleaved RNG stream — kept verbatim (minus the pool and
store plumbing, which never changed a transcript byte) so the session
redesign's acceptance gate stays enforceable forever: the parity suite
asserts that :class:`~repro.core.session.ClientSession` +
:class:`~repro.core.session.ServerSession` over an
``InMemoryTransport`` reproduce this class's per-phase channel transcript
and logits exactly.

Do not extend this module. New protocol work belongs in
:mod:`repro.core.session`; this file only shrinks if the parity gate is
ever retired.
"""

from __future__ import annotations

from repro.core.lowering import (
    lower_network,
    next_linear_index,
    plaintext_reference,
    validate_packing,
)
from repro.core.session import ProtocolCounters
from repro.crypto.modmath import matvec_mod, mod_add_vec, mod_sub_vec
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import Circuit, int_to_bits, words_to_int
from repro.gc.evaluate import Evaluator
from repro.gc.garble import GarbledCircuit, Garbler
from repro.gc.relu import ReluCircuitSpec, build_relu_circuit
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator
from repro.he.params import BfvParams, toy_params
from repro.network.channel import CLIENT, SERVER, Channel
from repro.ot.extension import IknpStream, iknp_transfer

from repro.backend import backend_for


class _Bundle:
    """Everything the monolith stored for one garbled ReLU layer."""

    __slots__ = ("circuits", "encodings", "evaluator_labels", "mask_index")

    def __init__(self, circuits, encodings, evaluator_labels, mask_index):
        self.circuits = circuits
        self.encodings = encodings
        self.evaluator_labels = evaluator_labels
        self.mask_index = mask_index


class MonolithHybridProtocol:
    """One in-process object playing both protocol roles (frozen reference)."""

    def __init__(
        self,
        network,
        params: BfvParams | None = None,
        garbler: str = "server",
        seed: int | None = None,
        truncate_bits: int = 0,
    ):
        if garbler not in ("server", "client"):
            raise ValueError("garbler must be 'server' or 'client'")
        self.params = params or toy_params(n=256)
        self.garbler_role = garbler
        self.modulus = self.params.t
        self.bits = self.modulus.bit_length()
        self.truncate_bits = truncate_bits
        self.lowered = lower_network(
            network, self.modulus, backend=self.params.backend
        )
        self._backend_pref = self.params.backend
        self._vectorize_gc = (
            backend_for(self.modulus, prefer=self._backend_pref).name == "numpy"
        )
        self.rng = SecureRandom(seed)
        self._iknp_stream = IknpStream(self.rng)
        self.channel = Channel(field_bytes=(self.bits + 7) // 8)
        self.counters = ProtocolCounters()
        self._offline_done = False
        validate_packing(self.lowered, self.params.row_size)

    # -- offline phase ---------------------------------------------------------

    def run_offline(self) -> None:
        self.channel.set_phase("offline")
        ctx = BfvContext(self.params, self.rng.spawn())
        encoder = BatchEncoder(self.params)
        sk, pk = ctx.keygen()
        gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
        self.channel.send(CLIENT, pk)
        self.channel.send(CLIENT, gk)
        self.channel.recv(SERVER)
        self.channel.recv(SERVER)
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)

        p = self.modulus
        self.client_r = [
            self.rng.field_vector(lin.n_in, p) for lin in self.lowered.linears
        ]
        self.server_s = [
            self.rng.field_vector(lin.n_out, p) for lin in self.lowered.linears
        ]
        self.client_linear_share = []
        for lin, r, s in zip(self.lowered.linears, self.client_r, self.server_s):
            packed = evaluator.pack_vector(r)
            ct = ctx.encrypt(pk, encoder.encode(packed))
            self.counters.he_encryptions += 1
            self.channel.send(CLIENT, ct)
            ct = self.channel.recv(SERVER)
            ct_y = evaluator.matvec(ct, lin.matrix)
            row = self.params.row_size
            s_row = list(s) + [0] * (row - lin.n_out)
            ct_out = ctx.sub_plain(ct_y, encoder.encode(s_row + s_row))
            self.channel.send(SERVER, ct_out)
            ct_out = self.channel.recv(CLIENT)
            share = encoder.decode(ctx.decrypt(sk, ct_out))[: lin.n_out]
            self.counters.he_decryptions += 1
            self.client_linear_share.append(share)
        self.counters.he_rotations = evaluator.rotations_performed
        self.counters.he_plain_mults = evaluator.plain_mults_performed

        self._relu_bundles: dict[int, _Bundle] = {}
        relu_steps = [
            (pos, lin_idx)
            for pos, (kind, lin_idx) in enumerate(self.lowered.steps)
            if kind == "relu"
        ]
        circuit = self._relu_circuit()
        layer_plan = []
        for pos, lin_idx in relu_steps:
            mask_index = next_linear_index(self.lowered, pos)
            n = self.lowered.linears[lin_idx].n_out
            if len(self.client_r[mask_index]) != n:
                raise ValueError("mask length mismatch (unsupported layer between)")
            layer_plan.append((pos, lin_idx, mask_index, n, self.rng.spawn()))
        batches = [
            Garbler(rng).garble_batch(circuit, n, vectorize=self._vectorize_gc)
            for _, _, _, n, rng in layer_plan
        ]
        for (pos, lin_idx, mask_index, n, _), batch in zip(layer_plan, batches):
            self._offline_relu_layer(pos, lin_idx, mask_index, batch)
        self._offline_done = True

    def _relu_circuit(self) -> Circuit:
        mask_owner = "evaluator" if self.garbler_role == "server" else "garbler"
        return build_relu_circuit(
            ReluCircuitSpec(
                bits=self.bits,
                modulus=self.modulus,
                mask_owner=mask_owner,
                truncate_bits=self.truncate_bits,
            )
        )

    def _offline_relu_layer(self, pos, lin_idx, mask_index, garbled_batch) -> None:
        n = self.lowered.linears[lin_idx].n_out
        circuit = self._relu_circuit()
        # The frozen reference reads the batch instance by instance.
        circuits, encodings = map(list, garbled_batch)
        self.counters.gc_circuits_garbled += n

        if self.garbler_role == "server":
            wire_circuits = [
                GarbledCircuit(c.circuit, c.tables, []) for c in circuits
            ]
            self.channel.send(SERVER, wire_circuits)
            self.channel.recv(CLIENT)
            evaluator_labels = self._client_labels_via_ot(
                circuit, circuits, encodings, lin_idx, mask_index, sender=SERVER
            )
            self._relu_bundles[pos] = _Bundle(
                wire_circuits, encodings, evaluator_labels, mask_index
            )
        else:
            self.channel.send(CLIENT, circuits)
            self.channel.recv(SERVER)
            garbler_labels = []
            for j, (garbled, encoding) in enumerate(zip(circuits, encodings)):
                share_bits = int_to_bits(self.client_linear_share[lin_idx][j], self.bits)
                mask_bits = int_to_bits(self.client_r[mask_index][j], self.bits)
                labels = Garbler.encode_inputs(
                    encoding, garbled.circuit, share_bits + mask_bits
                )
                garbler_labels.append(labels)
            self.channel.send(
                CLIENT, [list(lbls.values()) for lbls in garbler_labels]
            )
            self.channel.recv(SERVER)
            self._relu_bundles[pos] = _Bundle(
                circuits, encodings, garbler_labels, mask_index
            )

    def _client_labels_via_ot(
        self, circuit: Circuit, circuits, encodings, lin_idx, mask_index, sender
    ) -> list[dict[int, bytes]]:
        pairs, choices = [], []
        for j, encoding in enumerate(encodings):
            share_bits = int_to_bits(self.client_linear_share[lin_idx][j], self.bits)
            mask_bits = int_to_bits(self.client_r[mask_index][j], self.bits)
            for wire, bit in zip(circuit.evaluator_inputs, share_bits + mask_bits):
                pairs.append((encoding.label_for(wire, 0), encoding.label_for(wire, 1)))
                choices.append(bit)
        received = self._label_ot(pairs, choices, holder=sender)

        labels: list[dict[int, bytes]] = []
        per = len(circuit.evaluator_inputs)
        for j, (garbled, encoding) in enumerate(zip(circuits, encodings)):
            chunk = received[j * per : (j + 1) * per]
            label_map = dict(zip(circuit.evaluator_inputs, chunk))
            label_map[Circuit.CONST_ZERO] = encoding.label_for(Circuit.CONST_ZERO, 0)
            label_map[Circuit.CONST_ONE] = encoding.label_for(Circuit.CONST_ONE, 1)
            labels.append(label_map)
        return labels

    def _label_ot(self, pairs, choices, holder: str) -> list[bytes]:
        """One batch of the protocol's IKNP stream, charged per direction;
        its first batch books the base OTs to the setup phase."""
        received, transcript = iknp_transfer(pairs, choices, self._iknp_stream)
        self.counters.ots_performed += len(pairs)
        chooser = CLIENT if holder == SERVER else SERVER
        if transcript.base_ot_bytes:
            self.channel.book("setup", chooser, transcript.key_bytes)
            self.channel.book("setup", holder, transcript.point_bytes)
        self.channel.send(chooser, None, nbytes=transcript.column_bytes)
        self.channel.recv(holder)
        self.channel.send(holder, None, nbytes=transcript.ciphertext_bytes)
        self.channel.recv(chooser)
        return received

    # -- online phase ------------------------------------------------------------

    def run_online(self, x: list[int]) -> list[int]:
        if not self._offline_done:
            raise RuntimeError("offline phase must run before online phase")
        if len(x) != self.lowered.input_size:
            raise ValueError("input size mismatch")
        self.channel.set_phase("online")
        p = self.modulus
        masked = mod_sub_vec(x, self.client_r[0], p, prefer=self._backend_pref)
        self.channel.send(CLIENT, masked)
        server_vec = self.channel.recv(SERVER)

        evaluator = Evaluator()
        for pos, (kind, lin_idx) in enumerate(self.lowered.steps):
            if kind == "linear":
                lin = self.lowered.linears[lin_idx]
                s = self.server_s[lin_idx]
                server_vec = mod_add_vec(
                    matvec_mod(lin.matrix, server_vec, p, prefer=self._backend_pref),
                    s,
                    p,
                    prefer=self._backend_pref,
                )
            else:
                server_vec = self._online_relu(pos, lin_idx, server_vec, evaluator)

        self.channel.send(SERVER, server_vec)
        final_server_share = self.channel.recv(CLIENT)
        final_client_share = self.client_linear_share[self.lowered.steps[-1][1]]
        return mod_add_vec(
            final_server_share, final_client_share, p, prefer=self._backend_pref
        )

    def _online_relu(self, pos, lin_idx, server_share, evaluator) -> list[int]:
        bundle = self._relu_bundles[pos]
        if self.garbler_role == "server":
            out = []
            all_labels = []
            for j, value in enumerate(server_share):
                encoding = bundle.encodings[j]
                circuit = bundle.circuits[j].circuit
                bits = int_to_bits(value, self.bits)
                all_labels.append(
                    [encoding.label_for(w, b) for w, b in zip(circuit.garbler_inputs, bits)]
                )
            self.channel.send(SERVER, all_labels)
            all_labels = self.channel.recv(CLIENT)
            labels_batch = []
            for j, garbler_labels in enumerate(all_labels):
                circuit = bundle.circuits[j].circuit
                labels = dict(bundle.evaluator_labels[j])
                labels.update(zip(circuit.garbler_inputs, garbler_labels))
                labels_batch.append(labels)
            output_label_batch = [
                evaluator.evaluate(garbled, labels)
                for garbled, labels in zip(bundle.circuits, labels_batch)
            ]
            self.counters.gc_circuits_evaluated += len(labels_batch)
            self.channel.send(CLIENT, output_label_batch)
            output_label_batch = self.channel.recv(SERVER)
            for j, out_labels in enumerate(output_label_batch):
                bits = Garbler.decode_output_labels(
                    bundle.encodings[j], bundle.circuits[j].circuit, out_labels
                )
                out.append(words_to_int(bits))
            return out

        pairs, choices = [], []
        for j, value in enumerate(server_share):
            encoding = bundle.encodings[j]
            circuit = bundle.circuits[j].circuit
            bits = int_to_bits(value, self.bits)
            for wire, bit in zip(circuit.evaluator_inputs, bits):
                pairs.append((encoding.label_for(wire, 0), encoding.label_for(wire, 1)))
                choices.append(bit)
        received = self._label_ot(pairs, choices, holder=CLIENT)

        per = self.bits
        labels_batch = []
        for j in range(len(server_share)):
            circuit = bundle.circuits[j].circuit
            labels = dict(
                zip(
                    [Circuit.CONST_ZERO, Circuit.CONST_ONE] + circuit.garbler_inputs,
                    bundle.evaluator_labels[j].values(),
                )
            )
            chunk = received[j * per : (j + 1) * per]
            labels.update(zip(circuit.evaluator_inputs, chunk))
            labels_batch.append(labels)
        output_label_batch = [
            evaluator.evaluate(garbled, labels)
            for garbled, labels in zip(bundle.circuits, labels_batch)
        ]
        self.counters.gc_circuits_evaluated += len(labels_batch)
        return [
            words_to_int(evaluator.decode(garbled, out_labels))
            for garbled, out_labels in zip(bundle.circuits, output_label_batch)
        ]

    # -- reference ---------------------------------------------------------------

    def plaintext_reference(self, x: list[int]) -> list[int]:
        return plaintext_reference(
            self.lowered, x, self.truncate_bits, prefer=self._backend_pref
        )
