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


class GateType(Enum):
    XOR = "xor"
    AND = "and"


@dataclass(frozen=True)
class Gate:
    kind: GateType
    a: int
    b: int
    out: int


@dataclass
class Circuit:
    """A garbling-ready boolean circuit.

    Wire 0 is the constant-zero wire and wire 1 the constant-one wire; both
    are provided by the garbler. ``garbler_inputs`` and ``evaluator_inputs``
    list the remaining input wires by owner, in protocol order.

    A built circuit is never changed (:meth:`CircuitBuilder.build` hands
    out a copy), so one instance is shared by every session of a process
    and its derived values — the AND positions, the input wires, the lane
    program — are computed once; callers must not mutate the lists.
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
    helpers are pure combinational logic built from XOR/AND.
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
        out = self._new_wire()
        self.circuit.gates.append(Gate(GateType.XOR, a, b, out))
        return out

    def and_(self, a: int, b: int) -> int:
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

    def add(self, a: list[int], b: list[int]) -> tuple[list[int], int]:
        """Ripple-carry addition; returns (sum bits, carry-out)."""
        if len(a) != len(b):
            raise ValueError("word width mismatch")
        carry = self.zero
        out = []
        for x, y in zip(a, b):
            axy = self.xor(x, y)
            out.append(self.xor(axy, carry))
            # carry' = (x & y) | (carry & (x ^ y)) = x&y ^ carry&(x^y)
            carry = self.xor(self.and_(x, y), self.and_(carry, axy))
        return out, carry

    def sub(self, a: list[int], b: list[int]) -> tuple[list[int], int]:
        """Ripple-borrow subtraction; returns (difference bits, borrow-out).

        borrow-out is 1 iff a < b as unsigned integers.
        """
        if len(a) != len(b):
            raise ValueError("word width mismatch")
        borrow = self.zero
        out = []
        for x, y in zip(a, b):
            xy = self.xor(x, y)
            out.append(self.xor(xy, borrow))
            # borrow' = (~x & y) | (borrow & ~(x ^ y))
            not_x = self.not_(x)
            borrow = self.xor(
                self.and_(not_x, y),
                self.and_(borrow, self.not_(xy)),
            )
        return out, borrow

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
        """(a - b) mod modulus for a, b already reduced below modulus."""
        diff, borrow = self.sub(a, b)
        wrapped, _ = self.add(diff, self.constant_word(modulus, len(a)))
        return self.mux_word(borrow, wrapped, diff)

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
