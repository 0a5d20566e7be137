"""Garbled circuits: free-XOR + half-gates garbling, the circuit builder and
the ReLU circuit."""

from repro.gc.circuit import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateType,
    int_to_bits,
    words_to_int,
)
from repro.gc.evaluate import Evaluator
from repro.gc.garble import GarbledCircuit, Garbler, InputEncoding
from repro.gc.relu import (
    ReluCircuitSpec,
    build_relu_circuit,
    garbled_relu_bytes,
    relu_and_gates,
    relu_reference,
)

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "Evaluator",
    "GarbledCircuit",
    "Garbler",
    "Gate",
    "GateType",
    "InputEncoding",
    "ReluCircuitSpec",
    "build_relu_circuit",
    "garbled_relu_bytes",
    "int_to_bits",
    "relu_and_gates",
    "relu_reference",
    "words_to_int",
]
