"""Boolean circuit representation and a builder for arithmetic sub-circuits.

Circuits are flat gate lists over integer wire ids. Only two gate kinds
exist at the garbling level — XOR (free under free-XOR) and AND (two
ciphertexts under half-gates). NOT is expressed as XOR with a constant-one
wire supplied by the garbler, which is the standard free-XOR trick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np


class GateType(Enum):
    XOR = "xor"
    AND = "and"


@dataclass(frozen=True)
class Gate:
    kind: GateType
    a: int
    b: int
    out: int


class Level(NamedTuple):
    """One AND depth of a circuit, as the column walk reads it: its AND
    gates as index arrays, then its XOR gates.

    An AND gate sits one level above the deeper of its inputs, an XOR gate
    at the deeper of its inputs' levels, an input wire at level 0. So a
    level's AND gates read only wires of lower levels and hash together,
    and its XOR gates, run after them in gate-list order, read only wires
    that are ready.
    """

    inputs: np.ndarray  # (g, 2) intp: each AND gate's a and b wires
    out: np.ndarray  # (g,) intp: each AND gate's output wire
    tweaks: np.ndarray  # (g, 2, 1) uint64: 2 * gate index for a, + 1 for b
    slot: np.ndarray  # (g,) intp: each AND gate's position in and_indices
    xors: tuple[tuple[int, int, int], ...]  # (a, b, out), gate-list order


@dataclass
class Circuit:
    """A garbling-ready boolean circuit.

    Wire 0 is the constant-zero wire and wire 1 the constant-one wire; both
    are provided by the garbler. ``garbler_inputs`` and ``evaluator_inputs``
    list the remaining input wires by owner, in protocol order.

    A built circuit is never changed (:meth:`CircuitBuilder.build` hands
    out a copy), so one instance is shared by every session of a process
    and its derived values — ``and_indices`` (the AND positions),
    ``input_wires``, the lane walk's ``lane_program`` and the column walk's
    ``level_program`` — are computed once; callers must not mutate the
    lists. Every gate writes a wire no input and no other gate writes.
    """

    n_wires: int = 2
    gates: list[Gate] = field(default_factory=list)
    garbler_inputs: list[int] = field(default_factory=list)
    evaluator_inputs: list[int] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)

    CONST_ZERO = 0
    CONST_ONE = 1

    @property
    def and_count(self) -> int:
        return len(self.and_indices)

    @property
    def xor_count(self) -> int:
        return len(self.gates) - self.and_count

    @cached_property
    def and_indices(self) -> list[int]:
        """Gate-list positions of the AND gates (the garbled tables' keys)."""
        return [i for i, g in enumerate(self.gates) if g.kind is GateType.AND]

    @cached_property
    def input_wires(self) -> list[int]:
        """Every input wire in encoding order: constants, garbler's, evaluator's."""
        return (
            [self.CONST_ZERO, self.CONST_ONE]
            + self.garbler_inputs
            + self.evaluator_inputs
        )

    @cached_property
    def lane_program(self) -> tuple[tuple[int, int, int, int | None], ...]:
        """The gate list as the lane walk reads it: ``(a, b, out, tweak)``.

        ``tweak`` is ``None`` for an XOR gate and ``2 * index`` for an AND
        gate, the tweak of its generator half (its evaluator half hashes
        under ``tweak + 1``).
        """
        return tuple(
            (g.a, g.b, g.out, None if g.kind is GateType.XOR else 2 * index)
            for index, g in enumerate(self.gates)
        )

    @cached_property
    def level_program(self) -> tuple[Level, ...]:
        """The gate list by AND depth (:class:`Level`), level 0 first.

        Level 0 holds no AND gate; every deeper level holds at least one,
        so a ReLU's program is as long as its AND depth plus one.
        """
        depth = [0] * self.n_wires
        ands: list[list[tuple[int, int, int, int, int]]] = [[]]
        xors: list[list[tuple[int, int, int]]] = [[]]
        slot = 0
        for index, g in enumerate(self.gates):
            level = max(depth[g.a], depth[g.b])
            if g.kind is GateType.AND:
                level += 1
                if level == len(ands):
                    ands.append([])
                    xors.append([])
                ands[level].append((g.a, g.b, g.out, 2 * index, slot))
                slot += 1
            else:
                xors[level].append((g.a, g.b, g.out))
            depth[g.out] = level
        program = []
        for gates, level_xors in zip(ands, xors):
            a, b, out, tweak, slots = np.array(gates, dtype=np.int64).reshape(-1, 5).T
            program.append(
                Level(
                    np.stack([a, b], axis=1).astype(np.intp),
                    out.astype(np.intp),
                    (tweak[:, None, None] + [[0], [1]]).astype(np.uint64),
                    slots.astype(np.intp),
                    tuple(level_xors),
                )
            )
        return tuple(program)

    def evaluate_plain(
        self, garbler_bits: list[int], evaluator_bits: list[int]
    ) -> list[int]:
        """Reference plaintext evaluation (for testing garbled execution)."""
        if len(garbler_bits) != len(self.garbler_inputs):
            raise ValueError("garbler input length mismatch")
        if len(evaluator_bits) != len(self.evaluator_inputs):
            raise ValueError("evaluator input length mismatch")
        values = [0] * self.n_wires
        values[self.CONST_ONE] = 1
        for wire, bit in zip(self.garbler_inputs, garbler_bits):
            values[wire] = bit & 1
        for wire, bit in zip(self.evaluator_inputs, evaluator_bits):
            values[wire] = bit & 1
        for gate in self.gates:
            if gate.kind is GateType.XOR:
                values[gate.out] = values[gate.a] ^ values[gate.b]
            else:
                values[gate.out] = values[gate.a] & values[gate.b]
        return [values[w] for w in self.outputs]


class CircuitBuilder:
    """Constructs circuits gate by gate with arithmetic conveniences.

    Multi-bit values are little-endian lists of wire ids. All arithmetic
    helpers are pure combinational logic built from XOR/AND. The gate
    constructors fold the garbler's public constant wires and repeated
    operands: when the result is already some wire, they return it and
    emit nothing.
    """

    def __init__(self):
        self.circuit = Circuit()

    # -- wires ---------------------------------------------------------------

    def _new_wire(self) -> int:
        wire = self.circuit.n_wires
        self.circuit.n_wires += 1
        return wire

    def garbler_input(self) -> int:
        wire = self._new_wire()
        self.circuit.garbler_inputs.append(wire)
        return wire

    def evaluator_input(self) -> int:
        wire = self._new_wire()
        self.circuit.evaluator_inputs.append(wire)
        return wire

    def garbler_input_word(self, bits: int) -> list[int]:
        return [self.garbler_input() for _ in range(bits)]

    def evaluator_input_word(self, bits: int) -> list[int]:
        return [self.evaluator_input() for _ in range(bits)]

    def mark_output(self, wires: list[int]) -> None:
        self.circuit.outputs.extend(wires)

    @property
    def zero(self) -> int:
        return Circuit.CONST_ZERO

    @property
    def one(self) -> int:
        return Circuit.CONST_ONE

    # -- single-bit logic -----------------------------------------------------

    def xor(self, a: int, b: int) -> int:
        if a == b:
            return self.zero
        if a == self.zero:
            return b
        if b == self.zero:
            return a
        out = self._new_wire()
        self.circuit.gates.append(Gate(GateType.XOR, a, b, out))
        return out

    def and_(self, a: int, b: int) -> int:
        if a == b or b == self.one:
            return a
        if a == self.one:
            return b
        if self.zero in (a, b):
            return self.zero
        out = self._new_wire()
        self.circuit.gates.append(Gate(GateType.AND, a, b, out))
        return out

    def not_(self, a: int) -> int:
        return self.xor(a, self.one)

    def or_(self, a: int, b: int) -> int:
        return self.xor(self.xor(a, b), self.and_(a, b))

    def mux_bit(self, sel: int, when_true: int, when_false: int) -> int:
        """sel ? when_true : when_false  (one AND gate)."""
        return self.xor(when_false, self.and_(sel, self.xor(when_true, when_false)))

    # -- words ----------------------------------------------------------------

    def constant_word(self, value: int, bits: int) -> list[int]:
        return [self.one if (value >> i) & 1 else self.zero for i in range(bits)]

    def add(
        self, a: list[int], b: list[int], carry: int = Circuit.CONST_ZERO
    ) -> tuple[list[int], int]:
        """Ripple-carry addition with an optional carry-in wire; returns
        (sum bits, carry-out).

        One AND per bit: ``c' = c ^ ((x ^ c) & (y ^ c))`` is the majority
        of x, y and c.
        """
        if len(a) != len(b):
            raise ValueError("word width mismatch")
        out = []
        for x, y in zip(a, b):
            xc = self.xor(x, carry)
            out.append(self.xor(xc, y))
            carry = self.xor(carry, self.and_(xc, self.xor(y, carry)))
        return out, carry

    def sub(self, a: list[int], b: list[int]) -> tuple[list[int], int]:
        """a + ~b + 1; returns (difference bits, borrow-out).

        borrow-out, the negated carry, is 1 iff a < b as unsigned integers.
        """
        if len(a) != len(b):
            raise ValueError("word width mismatch")
        out, carry = self.add(a, [self.not_(y) for y in b], self.one)
        return out, self.not_(carry)

    def mux_word(
        self, sel: int, when_true: list[int], when_false: list[int]
    ) -> list[int]:
        if len(when_true) != len(when_false):
            raise ValueError("word width mismatch")
        return [
            self.mux_bit(sel, t, f) for t, f in zip(when_true, when_false)
        ]

    def geq_const(self, a: list[int], value: int) -> int:
        """1 iff unsigned(a) >= value, via a - value not borrowing."""
        const = self.constant_word(value, len(a))
        _, borrow = self.sub(a, const)
        return self.not_(borrow)

    def add_mod(self, a: list[int], b: list[int], modulus: int) -> list[int]:
        """(a + b) mod modulus for a, b already reduced below modulus."""
        total, carry = self.add(a, b)
        # total may exceed modulus (but is < 2*modulus). Subtract modulus and
        # select: if carry-out OR no-borrow on (total - modulus), use reduced.
        reduced, borrow = self.sub(total, self.constant_word(modulus, len(a)))
        use_reduced = self.or_(carry, self.not_(borrow))
        return self.mux_word(use_reduced, reduced, total)

    def sub_mod(self, a: list[int], b: list[int], modulus: int) -> list[int]:
        """(a - b) mod modulus for a, b already reduced below modulus.

        On a borrow the difference wrapped mod 2**bits, so adding back the
        borrow-gated modulus (its one bits wired to the borrow, a free
        rewiring) lands on ``a - b + modulus``.
        """
        diff, borrow = self.sub(a, b)
        gated = [borrow if (modulus >> i) & 1 else self.zero for i in range(len(a))]
        out, _ = self.add(diff, gated)
        return out

    def build(self) -> Circuit:
        """A copy of the circuit so far: building on never changes it."""
        c = self.circuit
        return Circuit(
            c.n_wires,
            list(c.gates),
            list(c.garbler_inputs),
            list(c.evaluator_inputs),
            list(c.outputs),
        )


def words_to_int(bits: list[int]) -> int:
    """Interpret a little-endian bit list (plain ints) as an integer."""
    return sum(bit << i for i, bit in enumerate(bits))


def int_to_bits(value: int, bits: int) -> list[int]:
    """Little-endian bit decomposition of ``value``."""
    if value < 0 or value >= (1 << bits):
        raise ValueError(f"{value} does not fit in {bits} bits")
    return [(value >> i) & 1 for i in range(bits)]
