"""Evaluator side of the half-gates garbled circuit protocol."""

from __future__ import annotations

from repro.crypto.prg import (
    LABEL_BYTES,
    byte_matrix,
    byte_rows,
    hash_label,
    hash_lanes,
    hash_rows,
    salted_state,
    xor_bytes,
)
from repro.gc.circuit import GateType
from repro.gc.garble import (
    LANE,
    LANE_WALK_MAX_ROWS,
    GarbledBatch,
    GarbledCircuit,
    lane_lsb,
    pack_lanes,
    unpack_lanes,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - minimal images only
    _np = None


class Evaluator:
    """Evaluates a garbled circuit given one label per input wire."""

    def evaluate(
        self, garbled: GarbledCircuit, input_labels: dict[int, bytes]
    ) -> list[bytes]:
        """Run the circuit; returns the active label of each output wire."""
        circuit = garbled.circuit
        labels: dict[int, bytes] = dict(input_labels)
        for index, gate in enumerate(circuit.gates):
            a = labels[gate.a]
            b = labels[gate.b]
            if gate.kind is GateType.XOR:
                labels[gate.out] = xor_bytes(a, b)
                continue
            table = garbled.tables[index]
            tweak_g = 2 * index
            tweak_e = 2 * index + 1
            w_g = hash_label(a, tweak_g)
            if a[0] & 1:
                w_g = xor_bytes(w_g, table.generator_half)
            w_e = hash_label(b, tweak_e)
            if b[0] & 1:
                w_e = xor_bytes(w_e, xor_bytes(table.evaluator_half, a))
            labels[gate.out] = xor_bytes(w_g, w_e)
        return [labels[w] for w in circuit.outputs]

    def evaluate_batch(
        self,
        garbled_batch: GarbledBatch,
        input_labels: dict,
        vectorize: bool | None = None,
    ):
        """Evaluate every instance of a garbled batch at once.

        ``input_labels`` maps each input wire to the (count, 16) matrix of
        its active labels; the result is the (count, n_out, 16) block of
        output labels. The gate walk happens once with every instance's
        active labels carried together: on lanes up to
        :data:`LANE_WALK_MAX_ROWS` instances (:func:`evaluate_lanes`), as
        label matrices beyond (:func:`evaluate_columns`).
        ``vectorize`` overrides the default gate (active backend ==
        numpy); False evaluates instance by instance with :meth:`evaluate`.
        """
        count = len(garbled_batch)
        if vectorize is None:
            from repro.backend import get_backend

            vectorize = get_backend().name == "numpy"
        if not vectorize:
            rows = {wire: byte_rows(matrix) for wire, matrix in input_labels.items()}
            outputs = [
                label
                for i, garbled in enumerate(garbled_batch)
                for label in self.evaluate(
                    garbled, {wire: labels[i] for wire, labels in rows.items()}
                )
            ]
            return byte_matrix(outputs).reshape(count, -1, LABEL_BYTES)
        if 0 < count <= LANE_WALK_MAX_ROWS:
            return evaluate_lanes(garbled_batch, input_labels)
        return evaluate_columns(garbled_batch, input_labels)

    def decode(self, garbled, output_labels):
        """Decode output labels to cleartext bits using the decode bits:
        a bit list for one :class:`GarbledCircuit` and its label list, a
        (count, n_out) matrix for a :class:`GarbledBatch` and its block."""
        if isinstance(garbled, GarbledBatch):
            return (output_labels[:, :, 0] & 1) ^ garbled.decode_bits
        return [
            (label[0] & 1) ^ bit
            for label, bit in zip(output_labels, garbled.output_decode_bits)
        ]


def evaluate_columns(garbled_batch: GarbledBatch, input_labels: dict):
    """The batch walk with every wire a (count, 16) label matrix: free-XOR
    gates are one vectorized XOR, half-gate corrections column masks."""
    circuit = garbled_batch.circuit
    labels = dict(input_labels)
    tables = garbled_batch.tables
    slot = 0
    for index, gate in enumerate(circuit.gates):
        a = labels[gate.a]
        b = labels[gate.b]
        if gate.kind is GateType.XOR:
            labels[gate.out] = a ^ b
            continue
        # Point-and-permute bits as 0x00 / 0xFF column masks.
        w_g = hash_rows(a, 2 * index) ^ (tables[:, slot, 0] & -(a[:, :1] & 1))
        w_e = hash_rows(b, 2 * index + 1) ^ (
            (tables[:, slot, 1] ^ a) & -(b[:, :1] & 1)
        )
        labels[gate.out] = w_g ^ w_e
        slot += 1
    return _np.stack([labels[w] for w in circuit.outputs], axis=1)


def evaluate_lanes(garbled_batch: GarbledBatch, input_labels: dict):
    """The batch walk with every wire one int of ``count`` lanes
    (:func:`~repro.gc.garble.pack_lanes`), as the garbler's lane walk."""
    circuit = garbled_batch.circuit
    count = len(garbled_batch)
    nbytes = count * LABEL_BYTES
    lsb = lane_lsb(count)
    labels = {wire: pack_lanes(matrix) for wire, matrix in input_labels.items()}
    # Gate by gate, the generator half then the evaluator half.
    raw = garbled_batch.tables.transpose(1, 2, 0, 3).tobytes()
    halves = (
        int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)
    )
    for a, b, out, tweak in circuit.lane_program:
        x = labels[a]
        y = labels[b]
        if tweak is None:
            labels[out] = x ^ y
            continue
        w_g = hash_lanes(x, nbytes, salted_state(tweak)) ^ (
            next(halves) & (x & lsb) * LANE
        )
        w_e = hash_lanes(y, nbytes, salted_state(tweak + 1)) ^ (
            (next(halves) ^ x) & (y & lsb) * LANE
        )
        labels[out] = w_g ^ w_e
    outputs = unpack_lanes([labels[w] for w in circuit.outputs], count)
    return _np.ascontiguousarray(outputs.transpose(1, 0, 2))
