"""Evaluator side of the half-gates garbled circuit protocol."""

from __future__ import annotations

from repro.crypto.prg import (
    LABEL_BYTES,
    byte_matrix,
    byte_rows,
    hash_label,
    hash_rows,
    xor_bytes,
)
from repro.gc.circuit import GateType
from repro.gc.garble import GarbledBatch, GarbledCircuit

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
        active labels carried as a matrix — free-XOR gates collapse to one
        vectorized XOR and half-gate corrections to column masks.
        ``vectorize`` overrides the default gate (active backend ==
        numpy); False evaluates instance by instance with :meth:`evaluate`.
        """
        circuit = garbled_batch.circuit
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
