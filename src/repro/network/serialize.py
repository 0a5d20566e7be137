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

A seeded ring element — the uniform half of a fresh symmetric ``Enc(r)``
or of a Galois-key digit — travels as the 32-byte seed it expands from;
the receiver expands it (:func:`repro.he.bfv.uniform_from_seed`) once
the whole frame has checked out. A modulus-switched ciphertext — what the
server returns — names its prime count, and its coefficients take the
switched modulus's width.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.crypto.prg import LABEL_BYTES, SEED_BYTES
from repro.gc.circuit import Circuit
from repro.gc.garble import EncodingBatch, GarbledBatch, GarbledCircuit, LabelBatch
from repro.he.bfv import (
    Ciphertext,
    GaloisKeys,
    PublicKey,
    check_digit_count,
    ring_element_from_bytes,
    uniform_from_seed,
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
FMT_BIT_VECTOR = 0x09
FMT_LABEL_LISTS = 0x0A
FMT_CIRCUIT_BATCH = 0x0B
FMT_SEEDED_CIPHERTEXT = 0x0C
# Seeded digits. 0x08 was the full-`k1` layout and is no longer spoken, so
# a peer that still sends it fails on the format code, not mid-parse.
FMT_GALOIS_KEYS = 0x0D
FMT_SWITCHED_CIPHERTEXT = 0x0E


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
    FMT_SEEDED_CIPHERTEXT: "seeded_ciphertext",
    FMT_SWITCHED_CIPHERTEXT: "switched_ciphertext",
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

_SEEDED_HEAD = struct.Struct("<IBB")  # degree, coefficient width, seed length
_SWITCHED_HEAD = struct.Struct("<IBB")  # degree, coefficient width, prime count


def _check_ring_shape(params: BfvParams, n: int, width: int, q=None) -> None:
    if n != params.n:
        raise ValueError(f"degree mismatch: wire {n} vs params {params.n}")
    if width != _coeff_width(q or params.q):
        raise ValueError("coefficient width mismatch")


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


def _pair_spans(data: bytes, offset: int, params: BfvParams, width: int):
    """The coefficient bytes of two polynomials of ``width`` bytes a
    coefficient at ``offset``, checked and sliced but not yet decoded."""
    size = params.n * width
    _need(data, offset, 2 * size, "polynomial pair")
    view = memoryview(data)
    end = offset + 2 * size
    return (view[offset : offset + size], view[offset + size : end]), end


def _plain_pair_spans(data: bytes, offset: int, params: BfvParams):
    _need(data, offset, 5, "polynomial pair header")
    n, width = struct.unpack_from("<IB", data, offset)
    _check_ring_shape(params, n, width)
    return _pair_spans(data, offset + 5, params, width)


def _switched_pair_spans(data: bytes, offset: int, params: BfvParams):
    """A switched ciphertext's pair: its prime count must be the one these
    parameters switch to and its width that modulus's."""
    _need(data, offset, _SWITCHED_HEAD.size, "switched ciphertext header")
    n, width, count = _SWITCHED_HEAD.unpack_from(data, offset)
    chain = params.rns_primes or ()
    if not 0 < count <= len(chain):
        raise ValueError(f"prime count {count} outside a chain of {len(chain)}")
    primes = params.switched_primes
    if primes is None or count != len(primes):
        raise ValueError(
            f"prime count {count}; these parameters switch to "
            f"{len(primes) if primes else 'no shorter chain'}"
        )
    _check_ring_shape(params, n, width, params.switched_q)
    return _pair_spans(data, offset + _SWITCHED_HEAD.size, params, width)


def _decode_pair(spans, params: BfvParams, primes=None):
    # Lands in the params' resolved representation (bigint or RNS), so a
    # deserialized element computes natively at the receiver.
    return [ring_element_from_bytes(span, params, primes) for span in spans]


def _serialize_seeded(params: BfvParams, poly, seed: bytes) -> bytes:
    """One ring polynomial and the seed of its uniform partner."""
    width = _coeff_width(params.q)
    return _SEEDED_HEAD.pack(params.n, width, len(seed)) + poly.to_bytes(width) + seed


def _seeded_span(data: bytes, offset: int, params: BfvParams):
    """The coefficient bytes and seed of one seeded polynomial at
    ``offset``, checked and sliced but not yet decoded or expanded."""
    _need(data, offset, _SEEDED_HEAD.size, "seeded polynomial header")
    n, width, seed_len = _SEEDED_HEAD.unpack_from(data, offset)
    _check_ring_shape(params, n, width)
    if seed_len != SEED_BYTES:
        raise ValueError(f"seed length {seed_len}, expected {SEED_BYTES}")
    offset += _SEEDED_HEAD.size
    size = n * width
    _need(data, offset, size + SEED_BYTES, "seeded polynomial")
    view = memoryview(data)
    end = offset + size + SEED_BYTES
    return view[offset : offset + size], bytes(view[offset + size : end]), end


def _seeded_pair(span, seed: bytes, params: BfvParams):
    """The ``(poly, uniform)`` pair a checked span stands for."""
    return ring_element_from_bytes(span, params), uniform_from_seed(seed, params)


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """Two polynomials, coefficients packed at ceil(log2 q)/8 bytes each;
    a fresh symmetric encryption sends ``c0`` and the seed of ``c1``, a
    modulus-switched one its prime count and coefficients at the switched
    modulus's width."""
    params = ct.params
    if ct.seed is not None:
        return wire_header(FMT_SEEDED_CIPHERTEXT) + _serialize_seeded(
            params, ct.c0, ct.seed
        )
    if ct.q == params.q:
        return wire_header(FMT_CIPHERTEXT) + _serialize_poly_pair(
            params, ct.c0, ct.c1
        )
    if ct.q != params.switched_q:
        raise ValueError("ciphertext modulus is not one these parameters use")
    width = _coeff_width(ct.q)
    return (
        wire_header(FMT_SWITCHED_CIPHERTEXT)
        + _SWITCHED_HEAD.pack(params.n, width, len(params.switched_primes))
        + ct.c0.to_bytes(width)
        + ct.c1.to_bytes(width)
    )


def deserialize_ciphertext(data: bytes, params: BfvParams) -> Ciphertext:
    """Any ciphertext format, checked to its last byte before a
    coefficient is decoded; a seeded one expands ``c1`` here."""
    fmt = read_wire_header(data)
    primes = seed = None
    if fmt == FMT_CIPHERTEXT:
        spans, offset = _plain_pair_spans(data, WIRE_HEADER_BYTES, params)
    elif fmt == FMT_SWITCHED_CIPHERTEXT:
        spans, offset = _switched_pair_spans(data, WIRE_HEADER_BYTES, params)
        primes = params.switched_primes
    elif fmt == FMT_SEEDED_CIPHERTEXT:
        span, seed, offset = _seeded_span(data, WIRE_HEADER_BYTES, params)
    else:
        raise ValueError(f"unexpected wire format 0x{fmt:02x} (expected a ciphertext)")
    if offset != len(data):
        raise ValueError("trailing bytes in ciphertext")
    if seed is not None:
        c0, c1 = _seeded_pair(span, seed, params)
    else:
        c0, c1 = _decode_pair(spans, params, primes)
    return Ciphertext(params, c0, c1, seed)


def ciphertext_wire_bytes(params: BfvParams, switched: bool = False) -> int:
    """Exact serialized size of a ciphertext at q (params.ciphertext_bytes
    + header), or with ``switched`` of one after
    :meth:`~repro.he.bfv.BfvContext.mod_switch` — the same frame when
    that drops nothing."""
    if not switched or params.switched_primes is None:
        return WIRE_HEADER_BYTES + 5 + params.ciphertext_bytes
    return WIRE_HEADER_BYTES + _SWITCHED_HEAD.size + params.switched_ciphertext_bytes


def serialize_public_key(pk: PublicKey) -> bytes:
    """A BFV public key: the (p0, p1) polynomial pair."""
    return wire_header(FMT_PUBLIC_KEY) + _serialize_poly_pair(
        pk.params, pk.p0, pk.p1
    )


def deserialize_public_key(data: bytes, params: BfvParams) -> PublicKey:
    read_wire_header(data, FMT_PUBLIC_KEY)
    spans, offset = _plain_pair_spans(data, WIRE_HEADER_BYTES, params)
    if offset != len(data):
        raise ValueError("trailing bytes in public key")
    return PublicKey(params, *_decode_pair(spans, params))


def serialize_galois_keys(gk: GaloisKeys) -> bytes:
    """Key-switching keys: per Galois element, per digit ``k0`` and the
    seed its uniform ``k1`` expands from."""
    out = [wire_header(FMT_GALOIS_KEYS), struct.pack("<I", len(gk.keys))]
    for g in sorted(gk.keys):
        digits, seeds = gk.keys[g], gk.seeds.get(g, ())
        if len(seeds) != len(digits):
            raise ValueError(f"Galois key for element {g} carries no seeds")
        out.append(struct.pack("<II", g, len(digits)))
        for (k0, _), seed in zip(digits, seeds):
            out.append(_serialize_seeded(gk.params, k0, seed))
    return b"".join(out)


def deserialize_galois_keys(data: bytes, params: BfvParams) -> GaloisKeys:
    """The whole frame is checked before any digit is decoded or any seed
    expanded, so a rejected frame costs no ring arithmetic."""
    read_wire_header(data, FMT_GALOIS_KEYS)
    _need(data, WIRE_HEADER_BYTES, 4, "Galois keys header")
    (n_elements,) = struct.unpack_from("<I", data, WIRE_HEADER_BYTES)
    offset = WIRE_HEADER_BYTES + 4
    spans: dict[int, list[tuple]] = {}
    for _ in range(n_elements):
        _need(data, offset, 8, "Galois key header")
        g, n_digits = struct.unpack_from("<II", data, offset)
        check_digit_count(params, g, n_digits)
        offset += 8
        spans[g] = []
        for _ in range(n_digits):
            span, seed, offset = _seeded_span(data, offset, params)
            spans[g].append((span, seed))
    if offset != len(data):
        raise ValueError("trailing bytes in Galois keys")
    return GaloisKeys(
        params,
        {g: [_seeded_pair(*digit, params) for digit in d] for g, d in spans.items()},
        {g: [seed for _, seed in d] for g, d in spans.items()},
    )


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


# -- columnar records ------------------------------------------------------------
#
# Every instance of a ReLU layer's batch has the same length, so each
# batched format is a packed numpy record dtype: the per-instance bytes of
# the format, field by field, with the label columns written and read as
# whole blocks. A layout pairs the dtype with its *constants* — the fields
# whose value the public circuit fixes (format headers, counts, length
# words, gate and wire indices). The encoder stamps them; the decoder
# compares them, which is all the validation a fixed-length record needs.

_U32 = "<u4"
_LABEL = ("u1", (LABEL_BYTES,))
_LABEL_MAP_ENTRY = np.dtype([("wire", _U32), ("label", *_LABEL)])


def _head(fmt: int) -> int:
    return int.from_bytes(wire_header(fmt), "little")


def _at(records, path: tuple):
    for name in path:
        records = records[name]
    return records


def _blank(count: int, layout):
    """``count`` records of ``layout`` with the constants stamped in."""
    dtype, constants = layout
    records = np.zeros(count, dtype=dtype)
    for path, value in constants:
        _at(records, path)[...] = value
    return records


def _records(data: bytes, offset: int, count: int, layout, what: str):
    """``count`` records of ``layout`` at ``offset``, constants verified."""
    dtype, constants = layout
    _need(data, offset, count * dtype.itemsize, what)
    records = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    for path, value in constants:
        if (_at(records, path) != value).any():
            raise ValueError(f"malformed {what}: unexpected {'.'.join(path)}")
    return records


def _length_prefixed(parts):
    """Layout of ``name_len`` word + blob for each (name, layout) part."""
    fields, constants = [], []
    for name, (dtype, part_constants) in parts:
        fields += [(f"{name}_len", _U32), (name, dtype)]
        constants.append(((f"{name}_len",), dtype.itemsize))
        constants += [((name,) + path, value) for path, value in part_constants]
    return np.dtype(fields), constants


def _peek_u32(data: bytes, offset: int, what: str) -> int:
    _need(data, offset, 4, what)
    return struct.unpack_from("<I", data, offset)[0]


# -- label batches -------------------------------------------------------------

def serialize_labels(labels) -> bytes:
    """A flat (count, 16) label matrix."""
    if labels.ndim != 2 or labels.shape[1] != LABEL_BYTES:
        raise ValueError("labels must be 16 bytes")
    return (
        wire_header(FMT_LABELS) + struct.pack("<I", len(labels)) + labels.tobytes()
    )


def deserialize_labels(data: bytes, count: int):
    """The (count, 16) label matrix of a frame that must carry ``count``."""
    read_wire_header(data, FMT_LABELS)
    base = WIRE_HEADER_BYTES + 4
    if _peek_u32(data, WIRE_HEADER_BYTES, "label batch header") != count or (
        len(data) != base + count * LABEL_BYTES
    ):
        raise ValueError("label frame does not match the layer")
    return np.frombuffer(data, dtype=np.uint8, offset=base).reshape(count, LABEL_BYTES)


def _label_list_layout(width: int):
    return np.dtype([("n", _U32), ("labels", "u1", (width, LABEL_BYTES))]), [
        (("n",), width)
    ]


def serialize_label_lists(labels) -> bytes:
    """A (count, width, 16) label block: one ``width``-label list per
    circuit instance, order-preserving."""
    count, width, label_bytes = labels.shape
    if label_bytes != LABEL_BYTES:
        raise ValueError("labels must be 16 bytes")
    records = _blank(count, _label_list_layout(width))
    records["labels"] = labels
    return (
        wire_header(FMT_LABEL_LISTS) + struct.pack("<I", count) + records.tobytes()
    )


def deserialize_label_lists(data: bytes, count: int, width: int):
    """The (count, width, 16) label block of a frame that must carry
    ``count`` lists of ``width`` labels — the receiving layer's shape, so a
    short list is an error here and not a missing wire a phase later."""
    read_wire_header(data, FMT_LABEL_LISTS)
    base = WIRE_HEADER_BYTES + 4
    layout = _label_list_layout(width)
    if _peek_u32(data, WIRE_HEADER_BYTES, "label lists header") != count or (
        len(data) != base + count * layout[0].itemsize
    ):
        raise ValueError("label frame does not match the layer")
    return _records(data, base, count, layout, "label lists")["labels"]


# -- label maps and input encodings (store entries) -----------------------------

def _label_map_layout(wires: list[int]):
    """Ordered (wire id, label) pairs, the order being the circuit's."""
    return np.dtype(
        [("head", _U32), ("count", _U32), ("entries", _LABEL_MAP_ENTRY, (len(wires),))]
    ), [
        (("head",), _head(FMT_LABEL_MAP)),
        (("count",), len(wires)),
        (("entries", "wire"), np.array(wires, dtype=np.uint32)),
    ]


def _input_encoding_layout(circuit: Circuit):
    """Delta plus the (ordered) zero-label and output-zero-label maps."""
    zero, zero_constants = _label_map_layout(circuit.input_wires)
    outputs, output_constants = _label_map_layout(circuit.outputs)
    return np.dtype(
        [
            ("head", _U32),
            ("zero_len", _U32),
            ("outputs_len", _U32),
            ("delta", *_LABEL),
            ("zero", zero),
            ("outputs", outputs),
        ]
    ), [
        (("head",), _head(FMT_INPUT_ENCODING)),
        (("zero_len",), zero.itemsize),
        (("outputs_len",), outputs.itemsize),
        *((("zero",) + path, value) for path, value in zero_constants),
        *((("outputs",) + path, value) for path, value in output_constants),
    ]


# -- garbled circuits ----------------------------------------------------------

def _circuit_layout(circuit: Circuit, n_decode: int):
    """Tables and decode bits only — the circuit topology is public and
    shared out of band (both parties derive it from the network shape)."""
    indices = np.array(circuit.and_indices, dtype=np.uint32)
    gate = np.dtype([("index", _U32), ("halves", "u1", (2, LABEL_BYTES))])
    return np.dtype(
        [
            ("head", _U32),
            ("n_tables", _U32),
            ("n_decode", _U32),
            ("gates", gate, (len(indices),)),
            ("decode", "u1", ((n_decode + 7) // 8,)),
        ]
    ), [
        (("head",), _head(FMT_GARBLED_CIRCUIT)),
        (("n_tables",), len(indices)),
        (("n_decode",), n_decode),
        (("gates", "index"), indices),
    ]


def _peek_circuit_layout(data: bytes, offset: int, circuit: Circuit):
    """The layout the circuit record at ``offset`` claims: its decode-bit
    count is the one field the circuit leaves open (all or none)."""
    n_decode = _peek_u32(data, offset + 8, "garbled circuit header")
    if n_decode not in (0, len(circuit.outputs)):
        raise ValueError(
            f"garbled circuit carries {n_decode} decode bits, "
            f"the circuit has {len(circuit.outputs)} outputs"
        )
    return _circuit_layout(circuit, n_decode)


def _fill_circuits(records, batch: GarbledBatch) -> None:
    records["gates"]["halves"] = batch.tables
    records["decode"] = np.packbits(batch.decode_bits, axis=1, bitorder="little")


def _read_circuits(records, circuit: Circuit) -> GarbledBatch:
    n_decode = 0 if not len(records) else int(records["n_decode"][0])
    return GarbledBatch(
        circuit,
        records["gates"]["halves"],
        np.unpackbits(records["decode"], axis=1, count=n_decode, bitorder="little"),
    )


def serialize_garbled_circuit(garbled: GarbledCircuit) -> bytes:
    """One instance: a one-record batch without the batch framing."""
    batch = GarbledBatch.from_instances(garbled.circuit, [garbled])
    records = _blank(1, _circuit_layout(batch.circuit, batch.decode_bits.shape[1]))
    _fill_circuits(records, batch)
    return records.tobytes()


def deserialize_garbled_circuit(data: bytes, circuit: Circuit) -> GarbledCircuit:
    read_wire_header(data, FMT_GARBLED_CIRCUIT)
    layout = _peek_circuit_layout(data, 0, circuit)
    records = _records(data, 0, 1, layout, "garbled circuit")
    if len(data) != layout[0].itemsize:
        raise ValueError("trailing bytes in garbled circuit")
    return _read_circuits(records, circuit)[0]


def garbled_circuit_wire_bytes(and_gates: int, outputs: int) -> int:
    """Exact serialized size for a circuit with the given gate counts."""
    return (
        WIRE_HEADER_BYTES
        + 8
        + and_gates * (4 + 2 * LABEL_BYTES)
        + (outputs + 7) // 8
    )


def serialize_circuit_batch(batch: GarbledBatch) -> bytes:
    """One ReLU layer's garbled circuits as a single wire message."""
    layout = _circuit_layout(batch.circuit, batch.decode_bits.shape[1])
    records = _blank(len(batch), _length_prefixed([("circuit", layout)]))
    _fill_circuits(records["circuit"], batch)
    return (
        wire_header(FMT_CIRCUIT_BATCH)
        + struct.pack("<I", len(batch))
        + records.tobytes()
    )


def deserialize_circuit_batch(data: bytes, circuit: Circuit) -> GarbledBatch:
    """Rebind every instance in a batch to the shared public topology.

    A frame whose gate indices are not the circuit's AND gates in order,
    whose instances are not all the one legal length, or whose decode-bit
    count is neither none nor all is a ``ValueError`` here, where it is
    received — not a ``KeyError`` inside ``evaluate_batch`` a phase later.
    """
    read_wire_header(data, FMT_CIRCUIT_BATCH)
    count = _peek_u32(data, WIRE_HEADER_BYTES, "circuit batch header")
    base = WIRE_HEADER_BYTES + 4
    if not count:
        layout = _circuit_layout(circuit, 0)
    else:
        layout = _peek_circuit_layout(data, base + 4, circuit)
    layout = _length_prefixed([("circuit", layout)])
    records = _records(data, base, count, layout, "circuit batch")
    if len(data) != base + count * layout[0].itemsize:
        raise ValueError("trailing bytes in circuit batch")
    return _read_circuits(records["circuit"], circuit)


# -- one ReLU layer of a store entry ------------------------------------------------

def _bundle_layout(circuit: Circuit, circuit_layout, label_wires: list[int]):
    return _length_prefixed(
        [
            ("circuit", circuit_layout),
            ("encoding", _input_encoding_layout(circuit)),
            ("labels", _label_map_layout(label_wires)),
        ]
    )


def serialize_relu_bundle(
    circuits: GarbledBatch, encodings: EncodingBatch, labels: LabelBatch
) -> bytes:
    """One layer of a store entry: per instance its garbled circuit, input
    encoding and evaluator label map, each length-prefixed."""
    circuit = circuits.circuit
    layout = _bundle_layout(
        circuit, _circuit_layout(circuit, circuits.decode_bits.shape[1]), labels.wires
    )
    records = _blank(len(circuits), layout)
    _fill_circuits(records["circuit"], circuits)
    encoding = records["encoding"]
    encoding["delta"] = encodings.deltas
    encoding["zero"]["entries"]["label"] = encodings.zero_labels.transpose(1, 0, 2)
    encoding["outputs"]["entries"]["label"] = encodings.output_zero_labels.transpose(
        1, 0, 2
    )
    records["labels"]["entries"]["label"] = labels.labels
    return records.tobytes()


def deserialize_relu_bundle(data: bytes, offset: int, count: int, circuit: Circuit):
    """``count`` instances of one stored layer starting at ``offset``.

    Returns ``(circuits, encodings, labels, end offset)``. The label map
    is self-describing (it lists its wires); what is required of it is
    that every instance lists the same wires in the same order.
    """
    if not count:
        circuit_layout, label_wires = _circuit_layout(circuit, 0), []
    else:
        circuit_layout = _peek_circuit_layout(data, offset + 4, circuit)
        fixed = _bundle_layout(circuit, circuit_layout, [])[0]
        n_labels = _peek_u32(data, offset + fixed.itemsize - 4, "label map header")
        entries = offset + fixed.itemsize
        _need(data, entries, n_labels * _LABEL_MAP_ENTRY.itemsize, "label map")
        label_wires = np.frombuffer(
            data, dtype=_LABEL_MAP_ENTRY, count=n_labels, offset=entries
        )["wire"].tolist()
    layout = _bundle_layout(circuit, circuit_layout, label_wires)
    records = _records(data, offset, count, layout, "stored ReLU layer")
    encoding = records["encoding"]
    return (
        _read_circuits(records["circuit"], circuit),
        EncodingBatch(
            circuit,
            encoding["delta"],
            encoding["zero"]["entries"]["label"].transpose(1, 0, 2),
            encoding["outputs"]["entries"]["label"].transpose(1, 0, 2),
        ),
        LabelBatch(label_wires, records["labels"]["entries"]["label"]),
        offset + count * layout[0].itemsize,
    )
