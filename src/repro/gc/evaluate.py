"""Evaluator side of the half-gates garbled circuit protocol."""

from __future__ import annotations

from repro.crypto.prg import (
    LABEL_BYTES,
    LABEL_WORD,
    byte_matrix,
    byte_rows,
    hash_label,
    hash_lanes,
    hash_words,
    label_items,
    label_words,
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
    """The batch walk with every wire a (count, 2) block of label words,
    one AND level at a time, as the garbler's column walk: a level's AND
    gates hash in one call, its XOR gates run in place after them."""
    circuit = garbled_batch.circuit
    count = len(garbled_batch)
    labels = _np.empty((circuit.n_wires, count, 2), LABEL_WORD)
    labels[list(input_labels)] = label_words(_np.stack(list(input_labels.values())))
    tables = label_items(garbled_batch.tables)
    xor = _np.bitwise_xor
    for level in circuit.level_program:
        if len(level.out):
            x = labels[level.inputs]  # each gate's a and b
            h = hash_words(x, level.tweaks)
            t = label_words(tables.take(level.slot, axis=1).transpose(1, 2, 0, 3))
            t[:, 1] ^= x[:, 0]
            # Point-and-permute bits of a and b as 0 / 1 multipliers.
            t *= x[..., :1] & 1
            h ^= t
            labels[level.out] = h[:, 0] ^ h[:, 1]
        for a, b, out in level.xors:
            xor(labels[a], labels[b], labels[out])
    outputs = labels[circuit.outputs].transpose(1, 0, 2)
    return _np.ascontiguousarray(outputs).view(_np.uint8)


def evaluate_lanes(garbled_batch: GarbledBatch, input_labels: dict):
    """The batch walk with every wire one int of ``count`` lanes
    (:func:`~repro.gc.garble.pack_lanes`), as the garbler's lane walk."""
    circuit = garbled_batch.circuit
    count = len(garbled_batch)
    nbytes = count * LABEL_BYTES
    bits = 8 * nbytes
    column = (1 << bits) - 1
    lsb = lane_lsb(count)
    # A gate's tweaks are tweak * every + upper: 2 * index on a's lanes,
    # 2 * index + 1 on b's.
    every = lane_lsb(2 * count)
    upper = lsb << bits
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
        h = hash_lanes(x | y << bits, 2 * nbytes, tweak * every + upper)
        w_g = (h & column) ^ (next(halves) & (x & lsb) * LANE)
        w_e = (h >> bits) ^ ((next(halves) ^ x) & (y & lsb) * LANE)
        labels[out] = w_g ^ w_e
    outputs = unpack_lanes([labels[w] for w in circuit.outputs], count)
    return _np.ascontiguousarray(outputs.transpose(1, 0, 2))
