"""Pseudo-random generation and hashing primitives.

Garbled-circuit constructions are specified in terms of a fixed-key block
cipher used as a correlation-robust hash. We substitute BLAKE2s with the
tweak as its salt and a 16-byte digest (:func:`hash_label`, and
:func:`hash_rows` / :func:`hash_lanes` over a whole label matrix or packed
label int) — the cheapest hash in the
standard library that takes the tweak as a parameter: the security
argument is the standard random-oracle one and the byte layout (16-byte
blocks, tweakable) matches what an AES-based implementation would
produce, so all size and count accounting is faithful. Seed expansion
(:class:`Prg`) and key derivation are SHA-256.
"""

from __future__ import annotations

import hashlib
import struct

try:
    import numpy as _np
except ImportError:  # pragma: no cover - minimal images only
    _np = None

LABEL_BYTES = 16  # 128-bit wire labels, as in DELPHI / fancy-garbling.

_pack_tweak = struct.Struct("<Q").pack  # a BLAKE2s salt is at most 8 bytes


def hash_label(label: bytes, tweak: int) -> bytes:
    """Correlation-robust hash H(label, tweak) -> 16 bytes.

    ``tweak`` is the gate index (point-and-permute position folded in by the
    caller); including it makes each gate's ciphertexts domain-separated.
    """
    return hashlib.blake2s(
        label, digest_size=LABEL_BYTES, salt=_pack_tweak(tweak)
    ).digest()


def byte_matrix(rows: list[bytes], width: int = LABEL_BYTES):
    """Equal-length byte strings as the rows of a (len, width) uint8 matrix."""
    return _np.frombuffer(b"".join(rows), dtype=_np.uint8).reshape(-1, width)


def byte_rows(matrix) -> list[bytes]:
    """The rows (last axis) of a uint8 array, in C order, as byte strings."""
    rows = _np.ascontiguousarray(matrix).reshape(-1, matrix.shape[-1])
    return rows.view(f"V{rows.shape[1]}").ravel().tolist()


def hash_rows(rows, tweak):
    """:func:`hash_label` of every row of an (n, width) uint8 matrix.

    ``tweak`` is one int for all rows (a gate's label column: the salted
    state is built once and copied per row) or one per row (OT extension:
    row ``j`` under tweak ``j``). Returns an (n, 16) matrix; the hash
    itself cannot be vectorized from Python, everything around it (label
    XOR, point-and-permute masking) works on the result.
    """
    digests = []
    if isinstance(tweak, int):
        fresh = salted_state(tweak).copy
        for row in byte_rows(rows):
            state = fresh()
            state.update(row)
            digests.append(state.digest())
    else:
        for row, row_tweak in zip(byte_rows(rows), tweak, strict=True):
            digests.append(hash_label(row, row_tweak))
    return byte_matrix(digests)


def salted_state(tweak: int):
    """The BLAKE2s state :func:`hash_label` starts from under ``tweak``:
    copy it per label instead of building it again."""
    return hashlib.blake2s(digest_size=LABEL_BYTES, salt=_pack_tweak(tweak))


def hash_lanes(lanes: int, nbytes: int, state) -> int:
    """:func:`hash_label` of every 16-byte lane of a packed label int.

    ``lanes`` holds ``nbytes // 16`` labels little-endian, label ``i`` at
    bytes ``[16i, 16i + 16)``; ``state`` is :func:`salted_state` of the
    tweak, copied per lane. The digests come back packed the same way.
    """
    digests = []
    for lane in _np.frombuffer(lanes.to_bytes(nbytes, "little"), "V16").tolist():
        h = state.copy()
        h.update(lane)
        digests.append(h.digest())
    return int.from_bytes(b"".join(digests), "little")


def hash_pair(a: bytes, b: bytes, tweak: int) -> bytes:
    """Hash of two labels (classic two-input garbling hash)."""
    return hash_label(a + b, tweak)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


class Prg:
    """Deterministic expandable PRG (SHA-256 in counter mode).

    Used for OT-extension column expansion and anywhere the protocol calls
    for expanding a short seed into a long pseudo-random string.
    """

    def __init__(self, seed: bytes):
        if not seed:
            raise ValueError("PRG seed must be non-empty")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        """Return the next ``n`` pseudo-random bytes."""
        if n < 0:
            raise ValueError("cannot read a negative number of bytes")
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._seed + struct.pack("<Q", self._counter)
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def read_int(self, bits: int) -> int:
        """Return a pseudo-random integer with at most ``bits`` bits."""
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.read(nbytes), "little")
        return value & ((1 << bits) - 1)

    def read_bits(self, n: int) -> list[int]:
        """Return ``n`` pseudo-random bits as a list of 0/1 ints."""
        value = self.read_int(n)
        return [(value >> i) & 1 for i in range(n)]


def key_derivation(*parts: bytes) -> bytes:
    """Derive a 16-byte key from a transcript of byte strings (for OT)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(struct.pack("<I", len(part)))
        h.update(part)
    return h.digest()[:LABEL_BYTES]
