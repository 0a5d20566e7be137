"""Classic four-row garbling (point-and-permute, no half-gates).

The baseline Yao construction the paper's half-gates optimization is
measured against: every AND gate ships four ciphertexts instead of two
(XOR stays free — we keep free-XOR so the comparison isolates the
half-gates saving, which is exactly how the FreeXOR→HalfGate lineage the
paper cites [49, 90] evolved).

Exists as an ablation: `benchmarks/test_bench_ablation.py` shows garbled
ReLU size dropping 2x when half-gates replace the classic rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.prg import LABEL_BYTES, hash_pair, xor_bytes
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import Circuit, GateType
from repro.gc.garble import InputEncoding


@dataclass
class ClassicGarbledCircuit:
    """Four ciphertexts per AND gate, ordered by permute bits."""

    circuit: Circuit
    tables: dict[int, list[bytes]]
    output_decode_bits: list[int]

    @property
    def size_bytes(self) -> int:
        return 4 * LABEL_BYTES * len(self.tables) + (
            len(self.output_decode_bits) + 7
        ) // 8


class ClassicGarbler:
    """Garbles with the classic 4-row tables (free-XOR retained)."""

    def __init__(self, rng: SecureRandom | None = None):
        self._rng = rng or SecureRandom()

    def garble(self, circuit: Circuit) -> tuple[ClassicGarbledCircuit, InputEncoding]:
        rng = self._rng
        delta = bytearray(rng.bytes(LABEL_BYTES))
        delta[0] |= 1
        delta = bytes(delta)
        zero: dict[int, bytes] = {
            Circuit.CONST_ZERO: rng.bytes(LABEL_BYTES),
            Circuit.CONST_ONE: rng.bytes(LABEL_BYTES),
        }
        for wire in circuit.garbler_inputs + circuit.evaluator_inputs:
            zero[wire] = rng.bytes(LABEL_BYTES)

        tables: dict[int, list[bytes]] = {}
        for index, gate in enumerate(circuit.gates):
            a0, b0 = zero[gate.a], zero[gate.b]
            if gate.kind is GateType.XOR:
                zero[gate.out] = xor_bytes(a0, b0)
                continue
            out0 = rng.bytes(LABEL_BYTES)
            rows: list[bytes | None] = [None] * 4
            for va in (0, 1):
                for vb in (0, 1):
                    la = a0 if va == 0 else xor_bytes(a0, delta)
                    lb = b0 if vb == 0 else xor_bytes(b0, delta)
                    out = out0 if (va & vb) == 0 else xor_bytes(out0, delta)
                    position = ((la[0] & 1) << 1) | (lb[0] & 1)
                    rows[position] = xor_bytes(hash_pair(la, lb, index), out)
            assert all(row is not None for row in rows)
            tables[index] = rows  # type: ignore[assignment]
            zero[gate.out] = out0

        encoding = InputEncoding(
            zero_labels={w: zero[w] for w in circuit.input_wires},
            delta=delta,
            output_zero_labels={w: zero[w] for w in circuit.outputs},
        )
        decode = [zero[w][0] & 1 for w in circuit.outputs]
        return ClassicGarbledCircuit(circuit, tables, decode), encoding


class ClassicEvaluator:
    """Evaluates classic tables via the point-and-permute row index."""

    def evaluate(
        self, garbled: ClassicGarbledCircuit, input_labels: dict[int, bytes]
    ) -> list[bytes]:
        labels = dict(input_labels)
        for index, gate in enumerate(garbled.circuit.gates):
            a, b = labels[gate.a], labels[gate.b]
            if gate.kind is GateType.XOR:
                labels[gate.out] = xor_bytes(a, b)
                continue
            row = garbled.tables[index][((a[0] & 1) << 1) | (b[0] & 1)]
            labels[gate.out] = xor_bytes(hash_pair(a, b, index), row)
        return [labels[w] for w in garbled.circuit.outputs]

    def decode(self, garbled: ClassicGarbledCircuit, outputs: list[bytes]) -> list[int]:
        return [
            (label[0] & 1) ^ bit
            for label, bit in zip(outputs, garbled.output_decode_bits)
        ]
