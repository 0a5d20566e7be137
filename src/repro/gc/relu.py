"""The DELPHI ReLU garbled circuit.

The circuit combines the two parties' additive shares of a linear-layer
output y (mod the share prime p), applies ReLU with the centered-sign
convention (values in [ceil(p/2), p) are negative), and re-masks the result
with the client's next-layer randomness r, producing ReLU(y) - r mod p:

    out = ReLU(share_a + share_b mod p) - r  (mod p)

Ownership of the inputs depends on the protocol: in Server-Garbler the
server garbles and holds share_a while the client (evaluator) feeds share_b
and r; in Client-Garbler the client garbles and holds share_b and r while
the server's share_a arrives via online OT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.prg import LABEL_BYTES
from repro.gc.circuit import Circuit, CircuitBuilder


@dataclass(frozen=True)
class ReluCircuitSpec:
    """Shape of a ReLU circuit over k-bit shares mod p.

    ``truncate_bits`` folds DELPHI's fixed-point rescaling into the garbled
    circuit: after the ReLU clamp the (non-negative) value is shifted right
    by that many bits before re-masking — exact, and free inside the
    circuit since a shift is pure rewiring.
    """

    bits: int
    modulus: int
    mask_owner: str  # "garbler" or "evaluator"
    truncate_bits: int = 0

    def __post_init__(self) -> None:
        if self.modulus >= (1 << self.bits):
            raise ValueError("modulus must fit in the configured bit width")
        if self.mask_owner not in ("garbler", "evaluator"):
            raise ValueError("mask_owner must be 'garbler' or 'evaluator'")
        if not 0 <= self.truncate_bits < self.bits:
            raise ValueError("truncate_bits must be in [0, bits)")


@lru_cache(maxsize=16)
def build_relu_circuit(spec: ReluCircuitSpec) -> Circuit:
    """Build the share-combining ReLU circuit for one activation.

    Input order: garbler word(s) first, then evaluator word(s); within each
    party the share word precedes the mask word when that party owns the
    mask. All words are little-endian ``spec.bits`` wide.

    Every ReLU layer of every session garbles the same public topology —
    only the labels differ — so one circuit per spec is built per process
    and shared (a :class:`Circuit` is never changed once built).
    """
    builder = CircuitBuilder()
    p = spec.modulus
    k = spec.bits

    garbler_share = builder.garbler_input_word(k)
    if spec.mask_owner == "garbler":
        mask = builder.garbler_input_word(k)
        evaluator_share = builder.evaluator_input_word(k)
    else:
        evaluator_share = builder.evaluator_input_word(k)
        mask = builder.evaluator_input_word(k)

    y = builder.add_mod(garbler_share, evaluator_share, p)
    negative = builder.geq_const(y, (p + 1) // 2)
    zeros = builder.constant_word(0, k)
    relu = builder.mux_word(negative, zeros, y)
    if spec.truncate_bits:
        # Right shift is free rewiring: drop the low bits, zero-fill the top.
        relu = relu[spec.truncate_bits :] + [builder.zero] * spec.truncate_bits
    out = builder.sub_mod(relu, mask, p)
    builder.mark_output(out)
    return builder.build()


def relu_reference(
    share_a: int, share_b: int, mask: int, modulus: int, truncate_bits: int = 0
) -> int:
    """Plaintext reference of the circuit's function."""
    y = (share_a + share_b) % modulus
    value = y if y < (modulus + 1) // 2 else 0
    return ((value >> truncate_bits) - mask) % modulus


def relu_and_gates(bits: int) -> int:
    """AND-gate count of the paper's ReLU circuit at ``bits``-bit shares.

    The textbook circuit the paper-scale model prices
    (``profiling/calibration.py``): two-AND ripple adders and subtractors
    and multiplexed reductions, ``13 * bits + 1`` ANDs, 534 at DELPHI's
    41 bits. The circuit this library garbles is leaner; its count is
    ``build_relu_circuit(spec).and_count``.
    """
    return 13 * bits + 1


def garbled_relu_bytes(bits: int) -> int:
    """First-principles size of one garbled paper ReLU (two ciphertexts
    per AND of :func:`relu_and_gates`).

    For the paper's 41-bit share field this lands within ~10% of the
    18.2 KB/ReLU measured from fancy-garbling, which also serializes wire
    metadata.
    """
    return 2 * LABEL_BYTES * relu_and_gates(bits) + bits // 8 + 1
