"""Garbling with free-XOR and half-gates (Zahur-Rosulek-Evans 2015).

XOR gates cost nothing; each AND gate produces exactly two 16-byte
ciphertexts (the generator and evaluator halves). Wire labels are 128 bits
with the point-and-permute bit in the least significant position of the
global offset ``delta``, the free-XOR invariant being
``label1 = label0 XOR delta`` on every wire.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from repro.crypto.prg import LABEL_BYTES, hash_label, xor_bytes
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import Circuit, GateType

try:
    import numpy as _np
except ImportError:  # pragma: no cover - minimal images only
    _np = None


def _lsb(label: bytes) -> int:
    return label[0] & 1


def hash_label_rows(labels, tweak_bytes: bytes):
    """H(label, tweak) for every row of a (count, 16) uint8 label matrix.

    SHA-256 itself cannot be vectorized from Python, but hashing straight
    out of the matrix rows avoids the per-gate dict walks and bytes
    plumbing of the scalar path; everything around the hashes (label XOR,
    point-and-permute masking) is done on whole matrices.
    """
    digest = hashlib.sha256
    count = labels.shape[0]
    flat = labels.tobytes()
    joined = b"".join(
        digest(flat[i * LABEL_BYTES : (i + 1) * LABEL_BYTES] + tweak_bytes).digest()[
            :LABEL_BYTES
        ]
        for i in range(count)
    )
    return _np.frombuffer(joined, dtype=_np.uint8).reshape(count, LABEL_BYTES)


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


def derive_instance_labels(
    rng: SecureRandom, circuit: Circuit
) -> tuple[bytes, dict[int, bytes]]:
    """Draw one instance's delta and input zero-labels.

    This is the *only* randomness one garbling consumes; the half-gates
    walk after it is deterministic. Draw order: delta, then CONST_ZERO,
    CONST_ONE, garbler inputs, evaluator inputs.
    """
    delta = bytearray(rng.bytes(LABEL_BYTES))
    delta[0] |= 1  # point-and-permute bit rides on the LSB
    delta = bytes(delta)

    zero_labels: dict[int, bytes] = {}

    def fresh_label() -> bytes:
        return rng.bytes(LABEL_BYTES)

    # Constant wires: the garbler knows their truth values, so it hands
    # the evaluator the label of the actual value; zero-label bookkeeping
    # stays uniform.
    zero_labels[Circuit.CONST_ZERO] = fresh_label()
    zero_labels[Circuit.CONST_ONE] = fresh_label()
    for wire in circuit.garbler_inputs:
        zero_labels[wire] = fresh_label()
    for wire in circuit.evaluator_inputs:
        zero_labels[wire] = fresh_label()
    return delta, zero_labels


def derive_batch_labels(rng: SecureRandom, circuit: Circuit, count: int):
    """Draw a batch's deltas and input zero-labels as (count, 16) matrices.

    The vectorized analogue of :func:`derive_instance_labels`, consuming
    the RNG in exactly the order :meth:`Garbler.garble_batch` does: all
    deltas first, then each input wire's labels for the whole batch. Row
    ``i`` of every matrix belongs to instance ``i``.
    """

    def fresh_labels():
        return _np.frombuffer(
            rng.bytes(count * LABEL_BYTES), dtype=_np.uint8
        ).reshape(count, LABEL_BYTES).copy()

    deltas = fresh_labels()
    deltas[:, 0] |= 1  # point-and-permute bit rides on the LSB

    zero_labels: dict[int, "_np.ndarray"] = {
        Circuit.CONST_ZERO: fresh_labels(),
        Circuit.CONST_ONE: fresh_labels(),
    }
    for wire in circuit.garbler_inputs:
        zero_labels[wire] = fresh_labels()
    for wire in circuit.evaluator_inputs:
        zero_labels[wire] = fresh_labels()
    return deltas, zero_labels


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
        p_a = _lsb(a0)
        p_b = _lsb(b0)
        tweak_g = 2 * index
        tweak_e = 2 * index + 1
        # Generator half-gate: computes a AND p_b (garbler knows p_b).
        t_g = xor_bytes(hash_label(a0, tweak_g), hash_label(a1, tweak_g))
        if p_b:
            t_g = xor_bytes(t_g, delta)
        w_g = hash_label(a0, tweak_g)
        if p_a:
            w_g = xor_bytes(w_g, t_g)
        # Evaluator half-gate: computes a AND (b XOR p_b).
        t_e = xor_bytes(
            xor_bytes(hash_label(b0, tweak_e), hash_label(b1, tweak_e)), a0
        )
        w_e = hash_label(b0, tweak_e)
        if p_b:
            w_e = xor_bytes(w_e, xor_bytes(t_e, a0))
        out0 = xor_bytes(w_g, w_e)
        zero_labels[gate.out] = out0
        tables[index] = GarbledGate(t_g, t_e)

    decode_bits = [_lsb(zero_labels[w]) for w in circuit.outputs]
    encoding = InputEncoding(
        zero_labels={
            w: zero_labels[w]
            for w in (
                [Circuit.CONST_ZERO, Circuit.CONST_ONE]
                + circuit.garbler_inputs
                + circuit.evaluator_inputs
            )
        },
        delta=delta,
        output_zero_labels={w: zero_labels[w] for w in circuit.outputs},
    )
    garbled = GarbledCircuit(circuit, tables, decode_bits)
    return garbled, encoding


def garble_batch_from_labels(
    circuit: Circuit, deltas, input_zero_labels
) -> list[tuple[GarbledCircuit, InputEncoding]]:
    """Deterministic vectorized walk over pre-drawn (count, 16) matrices.

    Every operation is row-wise: row i of every result depends only on
    row i of the inputs, which is what makes the walk equal to ``count``
    scalar :func:`garble_from_labels` walks.
    """
    count = deltas.shape[0]
    zero_labels: dict[int, "_np.ndarray"] = dict(input_zero_labels)
    and_tables: list[tuple[int, "_np.ndarray", "_np.ndarray"]] = []
    for index, gate in enumerate(circuit.gates):
        a0 = zero_labels[gate.a]
        b0 = zero_labels[gate.b]
        if gate.kind is GateType.XOR:
            zero_labels[gate.out] = a0 ^ b0
            continue
        a1 = a0 ^ deltas
        b1 = b0 ^ deltas
        p_a = (a0[:, :1] & 1).astype(bool)  # column vectors broadcast
        p_b = (b0[:, :1] & 1).astype(bool)
        tweak_g = struct.pack("<Q", 2 * index)
        tweak_e = struct.pack("<Q", 2 * index + 1)
        h_a0 = hash_label_rows(a0, tweak_g)
        h_a1 = hash_label_rows(a1, tweak_g)
        h_b0 = hash_label_rows(b0, tweak_e)
        h_b1 = hash_label_rows(b1, tweak_e)
        # Generator half-gate: computes a AND p_b (garbler knows p_b).
        t_g = h_a0 ^ h_a1
        t_g = _np.where(p_b, t_g ^ deltas, t_g)
        w_g = _np.where(p_a, h_a0 ^ t_g, h_a0)
        # Evaluator half-gate: computes a AND (b XOR p_b).
        t_e = h_b0 ^ h_b1 ^ a0
        w_e = _np.where(p_b, h_b0 ^ t_e ^ a0, h_b0)
        zero_labels[gate.out] = w_g ^ w_e
        and_tables.append((index, t_g, t_e))

    encoding_wires = (
        [Circuit.CONST_ZERO, Circuit.CONST_ONE]
        + circuit.garbler_inputs
        + circuit.evaluator_inputs
    )
    output_rows = {w: zero_labels[w] for w in circuit.outputs}
    results = []
    for i in range(count):
        tables = {
            index: GarbledGate(t_g[i].tobytes(), t_e[i].tobytes())
            for index, t_g, t_e in and_tables
        }
        decode_bits = [int(output_rows[w][i, 0]) & 1 for w in circuit.outputs]
        encoding = InputEncoding(
            zero_labels={w: zero_labels[w][i].tobytes() for w in encoding_wires},
            delta=deltas[i].tobytes(),
            output_zero_labels={
                w: output_rows[w][i].tobytes() for w in circuit.outputs
            },
        )
        results.append((GarbledCircuit(circuit, tables, decode_bits), encoding))
    return results


class Garbler:
    """Produces a garbled circuit plus the private input encoding."""

    def __init__(self, rng: SecureRandom | None = None):
        self._rng = rng or SecureRandom()

    def garble(self, circuit: Circuit) -> tuple[GarbledCircuit, InputEncoding]:
        delta, zero_labels = derive_instance_labels(self._rng, circuit)
        return garble_from_labels(circuit, delta, zero_labels)

    def garble_batch(
        self, circuit: Circuit, count: int, vectorize: bool | None = None
    ) -> list[tuple[GarbledCircuit, InputEncoding]]:
        """Garble ``count`` independent instances of the same circuit.

        A ReLU layer garbles one identical circuit per activation wire, so
        instead of walking the gate list once per instance we walk it once
        and carry every instance's labels as a (count, 16) byte matrix:
        free-XOR gates become single vectorized XORs across the whole
        batch and half-gate masking becomes boolean row selection. Each
        instance still draws its own delta and input labels, and the
        produced tables are exactly what per-instance :meth:`garble` would
        accept — only the RNG draw order differs.

        ``vectorize`` overrides the default gate (label matrices when the
        active backend is numpy); pass False to force sequential garbling
        (keeping `REPRO_BACKEND=python` runs pure) or True to vectorize
        regardless of the global selection, e.g. from a per-protocol
        backend preference.
        """
        if count <= 0:
            return []
        if vectorize is None:
            from repro.backend import get_backend

            vectorize = get_backend().name == "numpy"
        if _np is None or count == 1 or not vectorize:
            return [self.garble(circuit) for _ in range(count)]
        deltas, zero_labels = derive_batch_labels(self._rng, circuit, count)
        return garble_batch_from_labels(circuit, deltas, zero_labels)

    @staticmethod
    def encode_inputs(
        encoding: InputEncoding,
        circuit: Circuit,
        garbler_bits: list[int],
    ) -> dict[int, bytes]:
        """Labels for the garbler's own inputs plus the constant wires."""
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
    def decode_output_labels(
        encoding: InputEncoding, circuit: Circuit, labels: list[bytes]
    ) -> list[int]:
        """Garbler-side decoding of output labels returned by the evaluator."""
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
