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
(:class:`Prg`) and key derivation are SHA-256; a seeded ring element's
uniform half (:func:`expand_uniform`) is SHAKE-256, one digest per
polynomial.
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


SEED_BYTES = 32  # a seeded ring element's uniform half on the wire

_WORDS = {4: "<u4", 8: "<u8"}


def expand_uniform(seed: bytes, n: int, moduli) -> list:
    """``n`` uniform elements of Z_m for each modulus ``m``, from ``seed``.

    One SHAKE-256 stream, read on across the moduli in order: per
    modulus, exact rejection sampling as
    :meth:`repro.crypto.rng.SecureRandom.field_vector` does it — one word
    per missing element (4 or 8 bytes, else the modulus' byte width),
    masked to its bit length, the values below the modulus kept in
    order. The stream is a single digest sized for the expected draw
    plus a margin; SHAKE output is a prefix of every longer output, so
    the rare rejection run past the margin re-reads a longer digest and
    carries on. Returns a uint64 array per modulus up to 64 bits, else a
    list of ints.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    shake = hashlib.shake_256(seed)
    shapes = []
    for modulus in moduli:
        bits = modulus.bit_length()
        width = 4 if bits <= 32 else 8 if bits <= 64 else (bits + 7) // 8
        shapes.append((modulus, bits, width))
    # Every modulus keeps more than half of its words: the expected draw is
    # n·2^bits/m words; an eighth more plus 16 covers it at any acceptance.
    length = sum(w * ((n << b) // m + n // 8 + 16) for m, b, w in shapes)
    stream, pos = shake.digest(length), 0
    out = []
    for modulus, bits, width in shapes:
        mask = (1 << bits) - 1
        kept, count = [], 0
        while count < n:
            need = (n - count) * width
            if pos + need > len(stream):
                stream = shake.digest(2 * len(stream) + need)
            block = stream[pos : pos + need]
            pos += need
            if width in _WORDS:
                words = _np.frombuffer(block, dtype=_WORDS[width]).astype(_np.uint64)
                words &= _np.uint64(mask)
                words = words[words < modulus]
            else:
                words = [
                    v
                    for v in (
                        int.from_bytes(block[i : i + width], "little") & mask
                        for i in range(0, need, width)
                    )
                    if v < modulus
                ]
            kept.append(words)
            count += len(words)
        if width in _WORDS:
            out.append(_np.concatenate(kept) if kept else _np.zeros(0, _np.uint64))
        else:
            out.append([v for words in kept for v in words])
    return out


def key_derivation(*parts: bytes) -> bytes:
    """Derive a 16-byte key from a transcript of byte strings (for OT)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(struct.pack("<I", len(part)))
        h.update(part)
    return h.digest()[:LABEL_BYTES]
