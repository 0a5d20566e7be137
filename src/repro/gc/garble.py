"""Garbling with free-XOR and half-gates (Zahur-Rosulek-Evans 2015).

XOR gates cost nothing; each AND gate produces exactly two 16-byte
ciphertexts (the generator and evaluator halves). Wire labels are 128 bits
with the point-and-permute bit in the least significant position of the
global offset ``delta``, the free-XOR invariant being
``label1 = label0 XOR delta`` on every wire.

A ReLU layer garbles one circuit ``count`` times, and that batch is held
column by column from the garbler's walk to the evaluator's:
:class:`GarbledBatch` (all tables in one block), :class:`EncodingBatch`
(one zero-label matrix per wire) and :class:`LabelBatch` (active labels).
Row ``i`` of every column belongs to instance ``i``; indexing a batch
builds that instance's :class:`GarbledCircuit` / :class:`InputEncoding` /
label dict on demand, which is what the scalar reference walk and the
tests read.

The batched walks carry a wire's labels either as a (count, 2) block of
label words in one array of every wire, walked one AND level at a time
(:func:`garble_columns`), or, for batches of up to
:data:`LANE_WALK_MAX_ROWS` instances, packed into one Python int
(:func:`garble_lanes`); both produce the same batch, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.prg import (
    LABEL_BYTES,
    LABEL_ITEM,
    LABEL_WORD,
    byte_matrix,
    byte_rows,
    hash_label,
    hash_lanes,
    hash_words,
    label_words,
    xor_bytes,
)
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import Circuit, GateType

try:
    import numpy as _np
except ImportError:  # pragma: no cover - minimal images only
    _np = None


@dataclass
class GarbledGate:
    """The two half-gate ciphertexts for one AND gate."""

    generator_half: bytes
    evaluator_half: bytes


@dataclass
class GarbledCircuit:
    """Everything the evaluator needs except input labels.

    ``size_bytes`` is the transmitted/stored size: two ciphertexts per AND
    gate plus one decode bit per output wire — this is what dominates the
    protocol's storage and communication footprint (18.2 KB per ReLU in the
    paper's profiling of fancy-garbling).
    """

    circuit: Circuit
    tables: dict[int, GarbledGate]
    output_decode_bits: list[int]

    @property
    def size_bytes(self) -> int:
        return 2 * LABEL_BYTES * len(self.tables) + (len(self.output_decode_bits) + 7) // 8


@dataclass
class InputEncoding:
    """Garbler-private mapping from input wires to their label pairs.

    The garbler keeps this (3.5 KB per ReLU in the paper — the asymmetry
    with the 18.2 KB garbled circuit is what Client-Garbler exploits).
    """

    zero_labels: dict[int, bytes]
    delta: bytes
    output_zero_labels: dict[int, bytes] = field(default_factory=dict)

    def label_for(self, wire: int, bit: int) -> bytes:
        zero = self.zero_labels[wire]
        return xor_bytes(zero, self.delta) if bit else zero

    @property
    def size_bytes(self) -> int:
        return LABEL_BYTES * (2 * len(self.zero_labels) + 1)


# -- columnar batches ------------------------------------------------------------


class _Instances:
    """Iteration over a batch's per-instance views (``batch[i]``)."""

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class GarbledBatch(_Instances):
    """``count`` garbled instances of one circuit.

    ``tables[i, k]`` holds instance ``i``'s (generator, evaluator) halves
    of the circuit's ``k``-th AND gate; ``decode_bits`` is (count, 0) when
    the decode bits are withheld from the evaluator.
    """

    circuit: Circuit
    tables: "_np.ndarray"  # (count, n_and, 2, 16) uint8
    decode_bits: "_np.ndarray"  # (count, n_out) uint8 of 0/1

    def __len__(self) -> int:
        return self.tables.shape[0]

    def __getitem__(self, i: int) -> GarbledCircuit:
        halves = byte_rows(self.tables[i])
        tables = {
            index: GarbledGate(halves[2 * k], halves[2 * k + 1])
            for k, index in enumerate(self.circuit.and_indices)
        }
        return GarbledCircuit(self.circuit, tables, self.decode_bits[i].tolist())

    @classmethod
    def from_instances(cls, circuit: Circuit, instances: list[GarbledCircuit]):
        indices = circuit.and_indices
        halves = [
            half
            for garbled in instances
            for index in indices
            for half in (
                garbled.tables[index].generator_half,
                garbled.tables[index].evaluator_half,
            )
        ]
        return cls(
            circuit,
            byte_matrix(halves).reshape(len(instances), len(indices), 2, LABEL_BYTES),
            _np.array(
                [garbled.output_decode_bits for garbled in instances], dtype=_np.uint8
            ).reshape(len(instances), -1),
        )

    def without_decode_bits(self) -> "GarbledBatch":
        """The same tables for an evaluator that must not read the outputs."""
        return GarbledBatch(self.circuit, self.tables, self.decode_bits[:, :0])

    @property
    def size_bytes(self) -> int:
        """Transmitted size: the sum of the instances' ``size_bytes``."""
        count, n_and = self.tables.shape[:2]
        return count * (2 * LABEL_BYTES * n_and + (self.decode_bits.shape[1] + 7) // 8)


@dataclass
class LabelBatch(_Instances):
    """One active label per listed wire, for every instance of a batch."""

    wires: list[int]
    labels: "_np.ndarray"  # (count, len(wires), 16) uint8

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, i: int) -> dict[int, bytes]:
        return dict(zip(self.wires, byte_rows(self.labels[i])))

    def columns(self) -> dict:
        """wire -> that wire's (count, 16) label matrix."""
        by_wire = _np.ascontiguousarray(self.labels.transpose(1, 0, 2))
        return dict(zip(self.wires, by_wire))


@dataclass
class EncodingBatch(_Instances):
    """The garbler-private encodings of ``count`` instances.

    ``zero_labels[k]`` is the (count, 16) zero-label matrix of the
    ``k``-th wire of ``circuit.input_wires`` and ``output_zero_labels[k]``
    that of the ``k``-th output wire; instance ``i``'s one-labels are its
    zero-labels XOR ``deltas[i]``. A batch restored from a store entry for
    a garbler that never decodes (the evaluator holds the decode bits)
    has no output zero-labels: ``output_zero_labels`` is (0, count, 16).
    """

    circuit: Circuit
    deltas: "_np.ndarray"  # (count, 16) uint8
    zero_labels: "_np.ndarray"  # (n_inputs, count, 16) uint8
    output_zero_labels: "_np.ndarray"  # (n_outputs, count, 16) uint8

    def __len__(self) -> int:
        return self.deltas.shape[0]

    def __getitem__(self, i: int) -> InputEncoding:
        circuit = self.circuit
        zero = byte_rows(self.zero_labels[:, i])
        output_zero = byte_rows(self.output_zero_labels[:, i])
        return InputEncoding(
            zero_labels=dict(zip(circuit.input_wires, zero)),
            delta=self.deltas[i].tobytes(),
            output_zero_labels=dict(zip(circuit.outputs, output_zero)),
        )

    @classmethod
    def from_instances(cls, circuit: Circuit, instances: list[InputEncoding]):
        def wire_major(maps: list[dict[int, bytes]], wires: list[int]):
            return byte_matrix(
                [labels[wire] for wire in wires for labels in maps]
            ).reshape(len(wires), len(maps), LABEL_BYTES)

        return cls(
            circuit,
            byte_matrix([encoding.delta for encoding in instances]),
            wire_major([e.zero_labels for e in instances], circuit.input_wires),
            wire_major([e.output_zero_labels for e in instances], circuit.outputs),
        )

    def constant_labels(self):
        """(count, 2, 16): the labels of constant-zero's 0 and constant-one's 1."""
        zero, one = self.zero_labels[:2]
        return _np.stack([zero, one ^ self.deltas], axis=1)

    def garbler_labels(self, bits):
        """(count, n_garbler, 16) labels of the garbler's inputs under a
        (count, n_garbler) bit matrix."""
        n = len(self.circuit.garbler_inputs)
        if _np.shape(bits) != (len(self), n):
            raise ValueError("garbler input length mismatch")
        select = (-_np.asarray(bits, dtype=_np.uint8))[:, :, None]  # 0x00 / 0xFF
        zero = self.zero_labels[2 : 2 + n].transpose(1, 0, 2)
        return zero ^ (self.deltas[:, None, :] & select)

    def evaluator_pairs(self):
        """Both (count * n_evaluator, 16) label matrices of every evaluator
        input, instance by instance: what the label OT transfers."""
        first = 2 + len(self.circuit.garbler_inputs)
        zero = self.zero_labels[first:].transpose(1, 0, 2)
        one = zero ^ self.deltas[:, None, :]
        return zero.reshape(-1, LABEL_BYTES), one.reshape(-1, LABEL_BYTES)

    def decode_outputs(self, labels):
        """(count, n_out) output bits of a (count, n_out, 16) label block;
        ``ValueError`` when a label is neither of its wire's two."""
        off = labels ^ self.output_zero_labels.transpose(1, 0, 2)
        is_one = (off == self.deltas[:, None, :]).all(axis=2)
        if not (is_one | ~off.any(axis=2)).all():
            raise ValueError("an output label is not in the encoding")
        return is_one.astype(_np.uint8)


# -- lanes -------------------------------------------------------------------------

# The widest batch that walks on lanes. Per AND level the column walk
# pays numpy calls of ~1 us each whatever the width, the lane walk per
# gate big-int operations that grow with it: lanes are ~2x faster at 8
# rows and 1.0-1.5x at 16, the walks are level at 32, and columns win
# from 64 rows on, 0.6x there and 0.5x at 128 (ARCHITECTURE.md,
# *Batched garbling*, has the measured table).
LANE_WALK_MAX_ROWS = 32

LANE = (1 << 8 * LABEL_BYTES) - 1  # every bit of one lane


def pack_lanes(matrix) -> int:
    """A (count, 16) label matrix as one int: row ``i`` at bytes
    ``[16i, 16i + 16)``, little-endian, so byte 0 of a label (its
    point-and-permute bit) is the low byte of its lane."""
    return int.from_bytes(matrix.tobytes(), "little")


def unpack_lanes(packed: list[int], count: int):
    """The (len(packed), count, 16) label matrices of packed label ints."""
    nbytes = count * LABEL_BYTES
    joined = bytearray().join(x.to_bytes(nbytes, "little") for x in packed)
    return _np.frombuffer(joined, dtype=_np.uint8).reshape(-1, count, LABEL_BYTES)


def lane_lsb(count: int) -> int:
    """Bit 0 of each of ``count`` lanes: ``(x & lsb) * LANE`` spreads every
    lane's point-and-permute bit over its lane."""
    return int.from_bytes(b"\x01".ljust(LABEL_BYTES, b"\x00") * count, "little")


# -- label derivation and the walks ------------------------------------------------


def derive_batch_labels(rng: SecureRandom, circuit: Circuit, count: int):
    """Draw a batch's deltas (count, 16) and input zero-labels (n_inputs, count, 16).

    This is the *only* randomness a garbling consumes; the half-gates walk
    after it is deterministic. Draw order: all deltas, then each input
    wire's labels for the whole batch, wires in ``circuit.input_wires``
    order (CONST_ZERO, CONST_ONE, garbler inputs, evaluator inputs) — one
    draw, as the generator's output is a word stream. Row ``i`` of every
    matrix belongs to instance ``i``. The constant wires' truth values are
    known to the garbler, which hands the evaluator the label of the
    actual value; zero-label bookkeeping stays uniform.
    """

    def fresh_labels(wires: int):
        drawn = rng.bytes(wires * count * LABEL_BYTES)
        return _np.frombuffer(drawn, dtype=_np.uint8).reshape(wires, count, LABEL_BYTES)

    deltas = fresh_labels(1)[0].copy()
    deltas[:, 0] |= 1  # point-and-permute bit rides on the LSB
    return deltas, fresh_labels(len(circuit.input_wires))


def garble_from_labels(
    circuit: Circuit, delta: bytes, input_zero_labels: dict[int, bytes]
) -> tuple[GarbledCircuit, InputEncoding]:
    """Deterministic half-gates walk over pre-drawn input labels."""
    zero_labels = dict(input_zero_labels)
    tables: dict[int, GarbledGate] = {}
    for index, gate in enumerate(circuit.gates):
        a0 = zero_labels[gate.a]
        b0 = zero_labels[gate.b]
        if gate.kind is GateType.XOR:
            zero_labels[gate.out] = xor_bytes(a0, b0)
            continue
        a1 = xor_bytes(a0, delta)
        b1 = xor_bytes(b0, delta)
        p_a = a0[0] & 1
        p_b = b0[0] & 1
        h_a0 = hash_label(a0, 2 * index)
        h_a1 = hash_label(a1, 2 * index)
        h_b0 = hash_label(b0, 2 * index + 1)
        h_b1 = hash_label(b1, 2 * index + 1)
        # Generator half-gate: computes a AND p_b (garbler knows p_b).
        t_g = xor_bytes(h_a0, h_a1)
        if p_b:
            t_g = xor_bytes(t_g, delta)
        w_g = h_a0
        if p_a:
            w_g = xor_bytes(w_g, t_g)
        # Evaluator half-gate: computes a AND (b XOR p_b).
        t_e = xor_bytes(xor_bytes(h_b0, h_b1), a0)
        w_e = h_b0
        if p_b:
            w_e = xor_bytes(w_e, xor_bytes(t_e, a0))
        out0 = xor_bytes(w_g, w_e)
        zero_labels[gate.out] = out0
        tables[index] = GarbledGate(t_g, t_e)

    decode_bits = [zero_labels[w][0] & 1 for w in circuit.outputs]
    encoding = InputEncoding(
        zero_labels={w: zero_labels[w] for w in circuit.input_wires},
        delta=delta,
        output_zero_labels={w: zero_labels[w] for w in circuit.outputs},
    )
    garbled = GarbledCircuit(circuit, tables, decode_bits)
    return garbled, encoding


def _garble_row(circuit: Circuit, deltas, zero_labels, i: int):
    """The scalar walk over row ``i`` of a batch's label matrices."""
    return garble_from_labels(
        circuit,
        deltas[i].tobytes(),
        dict(zip(circuit.input_wires, byte_rows(zero_labels[:, i]))),
    )


def garble_batch_from_labels(
    circuit: Circuit, deltas, input_zero_labels
) -> tuple[GarbledBatch, EncodingBatch]:
    """Deterministic vectorized walk over pre-drawn label matrices.

    Every operation is row-wise: row i of every result depends only on
    row i of the inputs, which is what makes the walk equal to ``count``
    scalar :func:`garble_from_labels` walks. Batches of up to
    :data:`LANE_WALK_MAX_ROWS` instances walk on lanes
    (:func:`garble_lanes`), wider ones on label matrices
    (:func:`garble_columns`); both give the same bytes.
    """
    if 0 < deltas.shape[0] <= LANE_WALK_MAX_ROWS:
        return garble_lanes(circuit, deltas, input_zero_labels)
    return garble_columns(circuit, deltas, input_zero_labels)


def garble_columns(
    circuit: Circuit, deltas, input_zero_labels
) -> tuple[GarbledBatch, EncodingBatch]:
    """The walk with every wire a (count, 2) block of label words
    (:func:`~repro.crypto.prg.label_words`), one AND level at a time
    (:attr:`Circuit.level_program`): a level's AND gates hash in one call
    and take their half-gate corrections as (g, 2, count, 2) blocks, a and
    b side by side; its XOR gates then run in place."""
    count = deltas.shape[0]
    delta = label_words(deltas)
    labels = _np.empty((circuit.n_wires, count, 2), LABEL_WORD)
    labels[circuit.input_wires] = label_words(input_zero_labels)
    tables = _np.empty((count, circuit.and_count, 2, 1), LABEL_ITEM)
    xor = _np.bitwise_xor
    for level in circuit.level_program:
        if len(level.out):
            # Zero-labels, then one-labels, of each gate's a and b.
            x = _np.empty((2, len(level.out), 2, count, 2), LABEL_WORD)
            labels.take(level.inputs, axis=0, out=x[0])
            xor(x[0], delta, x[1])
            h0, h1 = hash_words(x, level.tweaks)
            p = x[0, ..., :1] & 1  # point-and-permute bits of a and b
            t = h0 ^ h1
            # Generator half-gate: computes a AND p_b (garbler knows p_b).
            t[:, 0] ^= delta * p[:, 1]
            # Output zero-label: (h_a0 ^ t_g p_a) ^ (h_b0 ^ (h_b0 ^ h_b1) p_b).
            w = t * p
            w ^= h0
            labels[level.out] = w[:, 0] ^ w[:, 1]
            # Evaluator half-gate: computes a AND (b XOR p_b).
            t[:, 1] ^= x[0, :, 0]
            tables[:, level.slot] = t.view(LABEL_ITEM).transpose(2, 0, 1, 3)
        for a, b, out in level.xors:
            xor(labels[a], labels[b], labels[out])

    output_zero_labels = labels[circuit.outputs].view(_np.uint8)
    return (
        GarbledBatch(
            circuit, tables.view(_np.uint8), output_zero_labels[:, :, 0].T & 1
        ),
        EncodingBatch(circuit, deltas, input_zero_labels, output_zero_labels),
    )


def garble_lanes(
    circuit: Circuit, deltas, input_zero_labels
) -> tuple[GarbledBatch, EncodingBatch]:
    """The walk with every wire one int of ``count`` lanes (:func:`pack_lanes`).

    The column walk's operations carry over lane-wise: a free-XOR gate is
    one ``^``, a point-and-permute mask is ``(x & lsb) * LANE`` and an AND
    gate's four label columns hash in one :func:`hash_lanes` call.
    """
    count = deltas.shape[0]
    nbytes = count * LABEL_BYTES
    bits = 8 * nbytes
    column = (1 << bits) - 1
    lsb = lane_lsb(count)
    # A gate's tweaks are tweak * every + upper: 2 * index on the lanes of
    # a0 and a0 ^ delta, 2 * index + 1 on those of b0 and b0 ^ delta.
    every = lane_lsb(4 * count)
    upper = lane_lsb(2 * count) << 2 * bits
    delta = pack_lanes(deltas)
    labels = dict(zip(circuit.input_wires, map(pack_lanes, input_zero_labels)))
    # Gate by gate, the generator half then the evaluator half; bytes, not
    # ints, so a layer's tables take one buffer while the walk runs.
    halves = bytearray()
    for a, b, out, tweak in circuit.lane_program:
        a0 = labels[a]
        b0 = labels[b]
        if tweak is None:
            labels[out] = a0 ^ b0
            continue
        p_a = (a0 & lsb) * LANE
        p_b = (b0 & lsb) * LANE
        h = hash_lanes(
            a0 | (a0 ^ delta) << bits | b0 << 2 * bits | (b0 ^ delta) << 3 * bits,
            4 * nbytes,
            tweak * every + upper,
        )
        h_a0 = h & column
        h_b0 = (h >> 2 * bits) & column
        # Generator half-gate: computes a AND p_b (garbler knows p_b).
        t_g = h_a0 ^ ((h >> bits) & column) ^ (delta & p_b)
        # Evaluator half-gate: computes a AND (b XOR p_b).
        h_b = h_b0 ^ (h >> 3 * bits)
        labels[out] = h_a0 ^ (t_g & p_a) ^ h_b0 ^ (h_b & p_b)
        halves += t_g.to_bytes(nbytes, "little")
        halves += (h_b ^ a0).to_bytes(nbytes, "little")

    tables = _np.frombuffer(halves, dtype=_np.uint8).reshape(
        -1, 2, count, LABEL_BYTES
    )
    output_zero_labels = unpack_lanes([labels[w] for w in circuit.outputs], count)
    return (
        GarbledBatch(
            circuit,
            _np.ascontiguousarray(tables.transpose(2, 0, 1, 3)),
            output_zero_labels[:, :, 0].T & 1,
        ),
        EncodingBatch(circuit, deltas, input_zero_labels, output_zero_labels),
    )


class Garbler:
    """Produces a garbled circuit plus the private input encoding."""

    def __init__(self, rng: SecureRandom | None = None):
        self._rng = rng or SecureRandom()

    def garble(self, circuit: Circuit) -> tuple[GarbledCircuit, InputEncoding]:
        """One instance: the scalar walk over a one-row batch's labels."""
        deltas, zero_labels = derive_batch_labels(self._rng, circuit, 1)
        return _garble_row(circuit, deltas, zero_labels, 0)

    def garble_batch(
        self, circuit: Circuit, count: int, vectorize: bool | None = None
    ) -> tuple[GarbledBatch, EncodingBatch]:
        """Garble ``count`` independent instances of the same circuit.

        A ReLU layer garbles one identical circuit per activation wire, so
        instead of walking the gate list once per instance we walk it once
        and carry every instance's labels together (a packed int or a
        (count, 2) block of label words, :func:`garble_batch_from_labels`):
        free-XOR gates become single XORs across the whole batch and
        half-gate masking becomes lane masks or 0 / 1 multipliers. Each
        instance still draws its own delta and input labels, and the
        produced tables are exactly what per-instance :meth:`garble` would
        accept — only the RNG draw order differs.

        ``vectorize`` overrides the default gate (label matrices when the
        active backend is numpy); pass False to walk instance by instance
        with the scalar walk (keeping `REPRO_BACKEND=python` runs pure) or
        True to vectorize regardless of the global selection, e.g. from a
        per-protocol backend preference. Both walks draw their labels with
        :func:`derive_batch_labels`, so one generator state garbles the
        same batch under either, byte for byte: a garbler that keeps only
        its generator's seed re-derives the labels under either backend.
        """
        if vectorize is None:
            from repro.backend import get_backend

            vectorize = get_backend().name == "numpy"
        deltas, zero_labels = derive_batch_labels(self._rng, circuit, count)
        if vectorize:
            return garble_batch_from_labels(circuit, deltas, zero_labels)
        instances = [
            _garble_row(circuit, deltas, zero_labels, i) for i in range(count)
        ]
        return (
            GarbledBatch.from_instances(circuit, [g for g, _ in instances]),
            EncodingBatch.from_instances(circuit, [e for _, e in instances]),
        )

    @staticmethod
    def encode_inputs(encoding, circuit: Circuit, garbler_bits):
        """Labels for the garbler's own inputs plus the constant wires.

        One instance (:class:`InputEncoding`, a bit list) gives a
        ``{wire: label}`` dict; a batch (:class:`EncodingBatch`, a
        (count, n_garbler) bit matrix) the same labels as one
        :class:`LabelBatch`, wires in the dict's order.
        """
        if isinstance(encoding, EncodingBatch):
            return LabelBatch(
                circuit.input_wires[: 2 + len(circuit.garbler_inputs)],
                _np.concatenate(
                    [encoding.constant_labels(), encoding.garbler_labels(garbler_bits)],
                    axis=1,
                ),
            )
        labels = {
            Circuit.CONST_ZERO: encoding.label_for(Circuit.CONST_ZERO, 0),
            Circuit.CONST_ONE: encoding.label_for(Circuit.CONST_ONE, 1),
        }
        if len(garbler_bits) != len(circuit.garbler_inputs):
            raise ValueError("garbler input length mismatch")
        for wire, bit in zip(circuit.garbler_inputs, garbler_bits):
            labels[wire] = encoding.label_for(wire, bit & 1)
        return labels

    @staticmethod
    def decode_output_labels(encoding, circuit: Circuit, labels):
        """Garbler-side decoding of output labels returned by the evaluator:
        a bit list for one instance, a (count, n_out) matrix for a batch."""
        if isinstance(encoding, EncodingBatch):
            return encoding.decode_outputs(labels)
        bits = []
        for wire, label in zip(circuit.outputs, labels):
            zero = encoding.output_zero_labels[wire]
            if label == zero:
                bits.append(0)
            elif label == xor_bytes(zero, encoding.delta):
                bits.append(1)
            else:
                raise ValueError(f"label for wire {wire} is not in the encoding")
        return bits
