"""Wire serialization for protocol messages.

Turns the protocol's Python objects — ciphertexts, garbled circuits, label
batches, share vectors, keys — into actual byte strings and back. The
channel's byte accounting uses analytic sizes; this module provides the
ground truth those sizes are validated against, and is the codec the
role-separated sessions (:mod:`repro.core.session`) exchange through a
:class:`~repro.network.transport.Transport`.

Formats are little-endian, length-prefixed, and self-describing enough to
round-trip given the shared protocol parameters. Every format opens with a
four-byte wire header — a 2-byte magic, a version byte, and a format code —
so a transport frame identifies itself before any payload is trusted:
version skew between two deployed parties fails loudly at the first
message instead of corrupting state mid-protocol.
"""

from __future__ import annotations

import struct

from repro.crypto.prg import LABEL_BYTES
from repro.gc.circuit import Circuit
from repro.gc.garble import GarbledCircuit, GarbledGate, InputEncoding
from repro.he.bfv import (
    Ciphertext,
    GaloisKeys,
    PublicKey,
    check_digit_count,
    ring_element_from_bytes,
)
from repro.he.params import BfvParams
from repro.network.frames import FRAMES

# -- wire header ---------------------------------------------------------------

WIRE_MAGIC = b"PI"  # private inference
WIRE_VERSION = 1
WIRE_HEADER_BYTES = 4  # magic(2) + version(1) + format code(1)

FMT_FIELD_VECTOR = 0x01
FMT_CIPHERTEXT = 0x02
FMT_LABELS = 0x03
FMT_LABEL_MAP = 0x04
FMT_INPUT_ENCODING = 0x05
FMT_GARBLED_CIRCUIT = 0x06
FMT_PUBLIC_KEY = 0x07
FMT_GALOIS_KEYS = 0x08
FMT_BIT_VECTOR = 0x09
FMT_LABEL_LISTS = 0x0A
FMT_CIRCUIT_BATCH = 0x0B


_FMT_NAMES = {
    FMT_FIELD_VECTOR: "field_vector",
    FMT_CIPHERTEXT: "ciphertext",
    FMT_LABELS: "labels",
    FMT_LABEL_MAP: "label_map",
    FMT_INPUT_ENCODING: "input_encoding",
    FMT_GARBLED_CIRCUIT: "garbled_circuit",
    FMT_PUBLIC_KEY: "public_key",
    FMT_GALOIS_KEYS: "galois_keys",
    FMT_BIT_VECTOR: "bit_vector",
    FMT_LABEL_LISTS: "label_lists",
    FMT_CIRCUIT_BATCH: "circuit_batch",
}


def frame_format_name(frame: bytes) -> str:
    """Classify a wire frame by message type, for telemetry counters.

    Covers the whole wire vocabulary — protocol messages by format code,
    gateway control frames by their :data:`~repro.network.frames.FRAMES`
    row. Never raises: anything else is counted as ``"unknown"``.
    """
    head = bytes(frame[:4])
    if head in FRAMES:
        return FRAMES[head][0]
    if len(head) >= 4 and head[:2] == WIRE_MAGIC:
        return _FMT_NAMES.get(head[3], f"fmt_0x{head[3]:02x}")
    return "unknown"


def wire_header(fmt: int) -> bytes:
    return WIRE_MAGIC + bytes((WIRE_VERSION, fmt))


def read_wire_header(data: bytes, expect: int | None = None) -> int:
    """Validate a message's wire header; returns its format code.

    Magic and version are checked before anything else — a peer speaking
    a different wire version gets a clear error naming both versions, not
    a parse failure deep inside some codec.
    """
    if len(data) < WIRE_HEADER_BYTES or data[:2] != WIRE_MAGIC:
        raise ValueError("not a repro wire message (bad magic)")
    version = data[2]
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported wire format version {version} "
            f"(this build speaks version {WIRE_VERSION})"
        )
    fmt = data[3]
    if expect is not None and fmt != expect:
        raise ValueError(
            f"unexpected wire format 0x{fmt:02x} (expected 0x{expect:02x})"
        )
    return fmt


def _need(data: bytes, offset: int, k: int, what: str) -> None:
    """The one truncation check: ``k`` more bytes must follow ``offset``.

    Every decoder calls it before each unpack and before any loop or
    allocation sized by a count the peer supplied, so a frame that is cut
    short — or claims more than it carries — is a ``ValueError`` (what
    every frame handler catches), never a ``struct.error`` and never a
    walk over billions of empty slices.
    """
    have = len(data) - offset
    if have < k:
        raise ValueError(f"truncated {what}: {max(have, 0)} of {k} bytes")


def _pack_uint(value: int, width: int) -> bytes:
    return int(value).to_bytes(width, "little")


def _coeff_width(q: int) -> int:
    return (q.bit_length() + 7) // 8


# -- field vectors -------------------------------------------------------------

def serialize_field_vector(values: list[int], modulus: int) -> bytes:
    """Length-prefixed vector of field elements."""
    width = _coeff_width(modulus)
    out = [wire_header(FMT_FIELD_VECTOR), struct.pack("<IB", len(values), width)]
    for v in values:
        if not 0 <= v < modulus:
            raise ValueError("field element out of range")
        out.append(_pack_uint(v, width))
    return b"".join(out)


def deserialize_field_vector(data: bytes) -> list[int]:
    read_wire_header(data, FMT_FIELD_VECTOR)
    _need(data, WIRE_HEADER_BYTES, 5, "field vector header")
    count, width = struct.unpack_from("<IB", data, WIRE_HEADER_BYTES)
    if width == 0:
        raise ValueError("field vector element width must be positive")
    offset = WIRE_HEADER_BYTES + 5
    _need(data, offset, count * width, "field vector")
    if offset + count * width != len(data):
        raise ValueError("trailing bytes in field vector")
    return [
        int.from_bytes(data[i : i + width], "little")
        for i in range(offset, len(data), width)
    ]


# -- BFV ciphertexts and keys ----------------------------------------------------

def _serialize_poly_pair(params: BfvParams, a, b) -> bytes:
    """Two ring polynomials, coefficients packed at ceil(log2 q)/8 bytes
    (the little-endian integer representative, whatever representation
    the polynomials compute in)."""
    width = _coeff_width(params.q)
    return (
        struct.pack("<IB", params.n, width)
        + a.to_bytes(width)
        + b.to_bytes(width)
    )


def _deserialize_poly_pair(data: bytes, offset: int, params: BfvParams):
    _need(data, offset, 5, "polynomial pair header")
    n, width = struct.unpack_from("<IB", data, offset)
    if n != params.n:
        raise ValueError(f"degree mismatch: wire {n} vs params {params.n}")
    if width != _coeff_width(params.q):
        raise ValueError("coefficient width mismatch")
    offset += 5
    size = n * width
    _need(data, offset, 2 * size, "polynomial pair")
    view = memoryview(data)
    # Lands in the params' resolved representation (bigint or RNS), so a
    # deserialized element computes natively at the receiver.
    first = ring_element_from_bytes(view[offset : offset + size], params)
    offset += size
    second = ring_element_from_bytes(view[offset : offset + size], params)
    return first, second, offset + size


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """Two polynomials, coefficients packed at ceil(log2 q)/8 bytes each."""
    return wire_header(FMT_CIPHERTEXT) + _serialize_poly_pair(
        ct.params, ct.c0, ct.c1
    )


def deserialize_ciphertext(data: bytes, params: BfvParams) -> Ciphertext:
    read_wire_header(data, FMT_CIPHERTEXT)
    c0, c1, offset = _deserialize_poly_pair(data, WIRE_HEADER_BYTES, params)
    if offset != len(data):
        raise ValueError("trailing bytes in ciphertext")
    return Ciphertext(params, c0, c1)


def ciphertext_wire_bytes(params: BfvParams) -> int:
    """Exact serialized size (matches params.ciphertext_bytes + header)."""
    return WIRE_HEADER_BYTES + 5 + 2 * params.n * _coeff_width(params.q)


def serialize_public_key(pk: PublicKey) -> bytes:
    """A BFV public key: the (p0, p1) polynomial pair."""
    return wire_header(FMT_PUBLIC_KEY) + _serialize_poly_pair(
        pk.params, pk.p0, pk.p1
    )


def deserialize_public_key(data: bytes, params: BfvParams) -> PublicKey:
    read_wire_header(data, FMT_PUBLIC_KEY)
    p0, p1, offset = _deserialize_poly_pair(data, WIRE_HEADER_BYTES, params)
    if offset != len(data):
        raise ValueError("trailing bytes in public key")
    return PublicKey(params, p0, p1)


def serialize_galois_keys(gk: GaloisKeys) -> bytes:
    """Key-switching keys: per Galois element, the per-digit (k0, k1) pairs."""
    out = [wire_header(FMT_GALOIS_KEYS), struct.pack("<I", len(gk.keys))]
    for g in sorted(gk.keys):
        digits = gk.keys[g]
        out.append(struct.pack("<II", g, len(digits)))
        for k0, k1 in digits:
            out.append(_serialize_poly_pair(gk.params, k0, k1))
    return b"".join(out)


def deserialize_galois_keys(data: bytes, params: BfvParams) -> GaloisKeys:
    read_wire_header(data, FMT_GALOIS_KEYS)
    _need(data, WIRE_HEADER_BYTES, 4, "Galois keys header")
    (n_elements,) = struct.unpack_from("<I", data, WIRE_HEADER_BYTES)
    offset = WIRE_HEADER_BYTES + 4
    keys: dict[int, list[tuple]] = {}
    for _ in range(n_elements):
        _need(data, offset, 8, "Galois key header")
        g, n_digits = struct.unpack_from("<II", data, offset)
        check_digit_count(params, g, n_digits)
        offset += 8
        digits = []
        for _ in range(n_digits):
            k0, k1, offset = _deserialize_poly_pair(data, offset, params)
            digits.append((k0, k1))
        keys[g] = digits
    if offset != len(data):
        raise ValueError("trailing bytes in Galois keys")
    return GaloisKeys(params, keys)


# -- bit vectors ----------------------------------------------------------------

def serialize_bit_vector(bits: list[int]) -> bytes:
    """A packed vector of bits (OT choice bits on the wire)."""
    packed = 0
    for i, bit in enumerate(bits):
        packed |= (bit & 1) << i
    nbytes = (len(bits) + 7) // 8
    return (
        wire_header(FMT_BIT_VECTOR)
        + struct.pack("<I", len(bits))
        + packed.to_bytes(nbytes, "little")
    )


def deserialize_bit_vector(data: bytes) -> list[int]:
    read_wire_header(data, FMT_BIT_VECTOR)
    _need(data, WIRE_HEADER_BYTES, 4, "bit vector header")
    (count,) = struct.unpack_from("<I", data, WIRE_HEADER_BYTES)
    nbytes = (count + 7) // 8
    if len(data) != WIRE_HEADER_BYTES + 4 + nbytes:
        raise ValueError("bit vector length mismatch")
    packed = int.from_bytes(data[WIRE_HEADER_BYTES + 4 :], "little")
    if count % 8 and packed >> count:
        raise ValueError("bit vector has set padding bits")
    return [(packed >> i) & 1 for i in range(count)]


# -- label batches -------------------------------------------------------------

def serialize_labels(labels: list[bytes]) -> bytes:
    for label in labels:
        if len(label) != LABEL_BYTES:
            raise ValueError("labels must be 16 bytes")
    return (
        wire_header(FMT_LABELS)
        + struct.pack("<I", len(labels))
        + b"".join(labels)
    )


def deserialize_labels(data: bytes) -> list[bytes]:
    read_wire_header(data, FMT_LABELS)
    _need(data, WIRE_HEADER_BYTES, 4, "label batch header")
    (count,) = struct.unpack_from("<I", data, WIRE_HEADER_BYTES)
    base = WIRE_HEADER_BYTES + 4
    expected = base + count * LABEL_BYTES
    if len(data) != expected:
        raise ValueError("label batch length mismatch")
    return [
        data[base + i * LABEL_BYTES : base + (i + 1) * LABEL_BYTES]
        for i in range(count)
    ]


def serialize_label_lists(lists: list[list[bytes]]) -> bytes:
    """A batch of label lists (one per circuit instance), order-preserving."""
    out = [wire_header(FMT_LABEL_LISTS), struct.pack("<I", len(lists))]
    for labels in lists:
        out.append(struct.pack("<I", len(labels)))
        for label in labels:
            if len(label) != LABEL_BYTES:
                raise ValueError("labels must be 16 bytes")
            out.append(label)
    return b"".join(out)


def deserialize_label_lists(data: bytes) -> list[list[bytes]]:
    read_wire_header(data, FMT_LABEL_LISTS)
    _need(data, WIRE_HEADER_BYTES, 4, "label lists header")
    (count,) = struct.unpack_from("<I", data, WIRE_HEADER_BYTES)
    offset = WIRE_HEADER_BYTES + 4
    _need(data, offset, 4 * count, "label lists")  # a length word per list
    lists: list[list[bytes]] = []
    for _ in range(count):
        _need(data, offset, 4, "label list header")
        (n,) = struct.unpack_from("<I", data, offset)
        offset += 4
        _need(data, offset, n * LABEL_BYTES, "label list")
        labels = [
            data[offset + i * LABEL_BYTES : offset + (i + 1) * LABEL_BYTES]
            for i in range(n)
        ]
        offset += n * LABEL_BYTES
        lists.append(labels)
    if offset != len(data):
        raise ValueError("trailing bytes in label lists")
    return lists


# -- label maps and input encodings --------------------------------------------

def serialize_label_map(labels: dict[int, bytes]) -> bytes:
    """Ordered (wire id, label) pairs.

    Iteration order is preserved on the wire and restored on
    deserialization — the protocol's online phase relies on garbler label
    dicts keeping their insertion order ([consts, garbler inputs]).
    """
    out = [wire_header(FMT_LABEL_MAP), struct.pack("<I", len(labels))]
    for wire, label in labels.items():
        if len(label) != LABEL_BYTES:
            raise ValueError("labels must be 16 bytes")
        out.append(struct.pack("<I", wire))
        out.append(label)
    return b"".join(out)


def deserialize_label_map(data: bytes) -> dict[int, bytes]:
    read_wire_header(data, FMT_LABEL_MAP)
    _need(data, WIRE_HEADER_BYTES, 4, "label map header")
    (count,) = struct.unpack_from("<I", data, WIRE_HEADER_BYTES)
    offset = WIRE_HEADER_BYTES + 4
    _need(data, offset, count * (4 + LABEL_BYTES), "label map")
    labels: dict[int, bytes] = {}
    for _ in range(count):
        (wire,) = struct.unpack_from("<I", data, offset)
        offset += 4
        labels[wire] = data[offset : offset + LABEL_BYTES]
        offset += LABEL_BYTES
    if offset != len(data):
        raise ValueError("trailing bytes in label map")
    return labels


def serialize_input_encoding(encoding: InputEncoding) -> bytes:
    """Delta plus the (ordered) zero-label and output-zero-label maps."""
    zero = serialize_label_map(encoding.zero_labels)
    outputs = serialize_label_map(encoding.output_zero_labels)
    return (
        wire_header(FMT_INPUT_ENCODING)
        + struct.pack("<II", len(zero), len(outputs))
        + encoding.delta
        + zero
        + outputs
    )


def deserialize_input_encoding(data: bytes) -> InputEncoding:
    read_wire_header(data, FMT_INPUT_ENCODING)
    _need(data, WIRE_HEADER_BYTES, 8, "input encoding header")
    n_zero, n_out = struct.unpack_from("<II", data, WIRE_HEADER_BYTES)
    offset = WIRE_HEADER_BYTES + 8
    _need(data, offset, LABEL_BYTES + n_zero + n_out, "input encoding")
    delta = data[offset : offset + LABEL_BYTES]
    offset += LABEL_BYTES
    zero = deserialize_label_map(data[offset : offset + n_zero])
    offset += n_zero
    outputs = deserialize_label_map(data[offset : offset + n_out])
    offset += n_out
    if offset != len(data):
        raise ValueError("trailing bytes in input encoding")
    return InputEncoding(
        zero_labels=zero, delta=delta, output_zero_labels=outputs
    )


# -- garbled circuits ----------------------------------------------------------

def serialize_garbled_circuit(garbled: GarbledCircuit) -> bytes:
    """Tables and decode bits only — the circuit topology is public and
    shared out of band (both parties derive it from the network shape)."""
    indices = sorted(garbled.tables)
    out = [
        wire_header(FMT_GARBLED_CIRCUIT),
        struct.pack("<II", len(indices), len(garbled.output_decode_bits)),
    ]
    for index in indices:
        gate = garbled.tables[index]
        out.append(struct.pack("<I", index))
        out.append(gate.generator_half)
        out.append(gate.evaluator_half)
    bits = 0
    for i, bit in enumerate(garbled.output_decode_bits):
        bits |= (bit & 1) << i
    n_decode_bytes = (len(garbled.output_decode_bits) + 7) // 8
    out.append(bits.to_bytes(n_decode_bytes, "little"))
    return b"".join(out)


def deserialize_garbled_circuit(data: bytes, circuit: Circuit) -> GarbledCircuit:
    read_wire_header(data, FMT_GARBLED_CIRCUIT)
    _need(data, WIRE_HEADER_BYTES, 8, "garbled circuit header")
    n_tables, n_decode = struct.unpack_from("<II", data, WIRE_HEADER_BYTES)
    offset = WIRE_HEADER_BYTES + 8
    _need(
        data,
        offset,
        n_tables * (4 + 2 * LABEL_BYTES) + (n_decode + 7) // 8,
        "garbled circuit",
    )
    tables = {}
    for _ in range(n_tables):
        (index,) = struct.unpack_from("<I", data, offset)
        offset += 4
        generator = data[offset : offset + LABEL_BYTES]
        offset += LABEL_BYTES
        evaluator = data[offset : offset + LABEL_BYTES]
        offset += LABEL_BYTES
        tables[index] = GarbledGate(generator, evaluator)
    n_decode_bytes = (n_decode + 7) // 8
    packed = int.from_bytes(data[offset : offset + n_decode_bytes], "little")
    offset += n_decode_bytes
    if offset != len(data):
        raise ValueError("trailing bytes in garbled circuit")
    decode_bits = [(packed >> i) & 1 for i in range(n_decode)]
    return GarbledCircuit(circuit, tables, decode_bits)


def garbled_circuit_wire_bytes(and_gates: int, outputs: int) -> int:
    """Exact serialized size for a circuit with the given gate counts."""
    return (
        WIRE_HEADER_BYTES
        + 8
        + and_gates * (4 + 2 * LABEL_BYTES)
        + (outputs + 7) // 8
    )


def serialize_circuit_batch(circuits: list[GarbledCircuit]) -> bytes:
    """One ReLU layer's garbled circuits as a single wire message."""
    out = [wire_header(FMT_CIRCUIT_BATCH), struct.pack("<I", len(circuits))]
    for garbled in circuits:
        blob = serialize_garbled_circuit(garbled)
        out.append(struct.pack("<I", len(blob)))
        out.append(blob)
    return b"".join(out)


def deserialize_circuit_batch(data: bytes, circuit: Circuit) -> list[GarbledCircuit]:
    """Rebind every instance in a batch to the shared public topology."""
    read_wire_header(data, FMT_CIRCUIT_BATCH)
    _need(data, WIRE_HEADER_BYTES, 4, "circuit batch header")
    (count,) = struct.unpack_from("<I", data, WIRE_HEADER_BYTES)
    offset = WIRE_HEADER_BYTES + 4
    _need(data, offset, 4 * count, "circuit batch")  # a length word per circuit
    circuits = []
    for _ in range(count):
        _need(data, offset, 4, "circuit length")
        (n,) = struct.unpack_from("<I", data, offset)
        offset += 4
        _need(data, offset, n, "garbled circuit")
        circuits.append(deserialize_garbled_circuit(data[offset : offset + n], circuit))
        offset += n
    if offset != len(data):
        raise ValueError("trailing bytes in circuit batch")
    return circuits
