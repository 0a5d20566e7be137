"""Pseudo-random generation and hashing primitives.

The garbled-circuit and OT row hash is the tweakable
circular-correlation-robust hash of Guo, Katz, Wang and Yu ("Efficient
and Secure Multiparty Computation from Fixed-Key Block Ciphers", IEEE
S&P 2020) over AES-128 under a fixed public key (:mod:`repro.crypto.aes`):

    H(x, i) = pi(pi(x) xor i) xor pi(x)

with ``i`` a 64-bit tweak as a 16-byte little-endian block. Half-gates
garbling and IKNP are secure with it in the ideal-permutation model, and
it is the hash DELPHI's fancy-garbling uses. One definition, three
shapes: :func:`hash_label` of one label, :func:`hash_rows` of every row
of a label matrix and :func:`hash_lanes` of every lane of a packed label
int. Each shape is two cipher calls whatever the number of labels, so a
whole gate's labels hash in one two-pass call.

Seed expansion is the same hash in counter mode: a 16-byte seed ``k``
stretches to

    G(k) = H(k, 0) || H(k, 1) || H(k, 2) || ...

(:func:`expand_seeds` for a matrix of seeds at once, :class:`Prg` for
one). It is a PRG on the argument the row hash already rests on: with
``pi`` an ideal permutation and ``k`` secret and uniform, ``pi(k)`` is
a secret uniform block, so block ``i`` is ``pi(pi(k) xor i) xor pi(k)``
at a point no one else can name, and distinct tweaks give distinct
points. Every seed it expands — an IKNP base-OT key, a long OT pad's
row hash — is secret and uniform to whoever does not hold it. Key
derivation is SHA-256; a seeded ring element's uniform half
(:func:`expand_uniform`) is SHAKE-256, one digest per polynomial.
"""

from __future__ import annotations

import hashlib
import operator
import struct

import numpy as _np

from repro.crypto.aes import encrypt

LABEL_BYTES = 16  # 128-bit wire labels, as in DELPHI / fancy-garbling.

TWEAK_LIMIT = 1 << 64  # a tweak is a 64-bit index: gate half or OT row

LABEL_WORD = _np.dtype("<u8")  # a label is two of these, low word first
# A label as one 16-byte item, which a transpose or a take moves whole.
LABEL_ITEM = _np.dtype((_np.void, LABEL_BYTES))


def _checked_tweak(tweak) -> int:
    tweak = operator.index(tweak)
    if not 0 <= tweak < TWEAK_LIMIT:
        raise ValueError(f"a tweak is in [0, 2^64), got {tweak}")
    return tweak


def _tccr(blocks: bytes, tweaks: int) -> int:
    """H of every 16-byte block of ``blocks``, little-endian as one int;
    ``tweaks`` holds each block's tweak block at that block's place."""
    y = int.from_bytes(encrypt(blocks), "little")
    z = encrypt((y ^ tweaks).to_bytes(len(blocks), "little"))
    return int.from_bytes(z, "little") ^ y


def hash_label(label: bytes, tweak: int) -> bytes:
    """Correlation-robust hash H(label, tweak) -> 16 bytes.

    ``tweak`` is the gate's half (``2 * index`` generator, ``+ 1``
    evaluator) or the OT row; it domain-separates every hash of a walk.
    """
    if len(label) != LABEL_BYTES:
        raise ValueError(f"a label is {LABEL_BYTES} bytes, got {len(label)}")
    return _tccr(label, _checked_tweak(tweak)).to_bytes(LABEL_BYTES, "little")


def byte_matrix(rows: list[bytes], width: int = LABEL_BYTES):
    """Equal-length byte strings as the rows of a (len, width) uint8 matrix."""
    return _np.frombuffer(b"".join(rows), dtype=_np.uint8).reshape(-1, width)


def byte_rows(matrix) -> list[bytes]:
    """The rows (last axis) of a uint8 array, in C order, as byte strings."""
    rows = _np.ascontiguousarray(matrix).reshape(-1, matrix.shape[-1])
    return rows.view(f"V{rows.shape[1]}").ravel().tolist()


def label_words(labels):
    """A label array as each label's two words, low word first: uint8
    (..., 16) or :data:`LABEL_ITEM` (..., 1) -> (..., 2) uint64."""
    return _np.ascontiguousarray(labels).view(LABEL_WORD)


def label_items(labels):
    """A uint8 label array as one item per label: (..., 16) -> (..., 1)."""
    return _np.ascontiguousarray(labels).view(LABEL_ITEM)


def _tweak_words(tweak, count: int):
    """The tweaks of ``count`` rows as what XORs into a uint64 column: one
    checked int for every row, or an integer array of one per row."""
    if _np.ndim(tweak) == 0:
        return _np.uint64(_checked_tweak(tweak))
    words = _np.asarray(tweak)
    # numpy reads ints past 2^64, and a mix past 2^63, as object or float.
    if words.dtype.kind not in "iu" or (words.size and words.min() < 0):
        raise ValueError("a tweak is in [0, 2^64): pass per-row tweaks as uint64")
    if words.shape != (count,):
        raise ValueError(f"{count} rows need {count} tweaks, got shape {words.shape}")
    return words.astype(_np.uint64, copy=False)


def hash_rows(rows, tweak):
    """:func:`hash_label` of every row of an (n, 16) uint8 matrix.

    ``tweak`` is one int for all rows or an integer array of ``n``, one
    per row (uint64 when any is 2^63 or more). Returns the (n, 16)
    matrix of hashes: two cipher calls over the whole matrix, the tweaks
    XORed in between.
    """
    if rows.shape[1:] != (LABEL_BYTES,):
        raise ValueError(f"rows must be {LABEL_BYTES} bytes wide, got {rows.shape}")
    words = _tweak_words(tweak, rows.shape[0])
    return hash_words(label_words(rows), words).view(_np.uint8)


def hash_words(labels, tweaks):
    """:func:`hash_rows` unchecked, on label words (:func:`label_words`):
    the hashes of an (..., 2) uint64 array, each label under the tweak
    that ``tweaks``, a uint64 array, broadcasts to it from ``labels[..., 0]``."""
    y = _np.frombuffer(encrypt(labels.tobytes()), LABEL_WORD).reshape(labels.shape)
    tweaked = y.copy()
    tweaked[..., 0] ^= tweaks
    z = _np.frombuffer(encrypt(tweaked.tobytes()), LABEL_WORD)
    return z.reshape(labels.shape) ^ y


def hash_lanes(lanes: int, nbytes: int, tweaks: int) -> int:
    """:func:`hash_label` of every 16-byte lane of a packed label int.

    ``lanes`` holds ``nbytes // 16`` labels little-endian, label ``i`` at
    bytes ``[16i, 16i + 16)``, and ``tweaks`` each lane's tweak packed the
    same way: ``tweak * lane_lsb(count)`` for one tweak on every lane. The
    hashes come back packed the same way.
    """
    return _tccr(lanes.to_bytes(nbytes, "little"), tweaks)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


def expand_seeds(seeds, offset: int, nbytes: int):
    """Bytes ``[offset, offset + nbytes)`` of ``G(k)`` for every row ``k``
    of an (n, 16) uint8 seed matrix, as an (n, nbytes) matrix.

    One :func:`hash_rows` call hashes every block the stretch touches, for
    every seed; a block that an earlier stretch ended inside is hashed
    again, not kept.
    """
    low = offset // LABEL_BYTES
    high = -(-(offset + nbytes) // LABEL_BYTES)
    blocks = high - low
    tweaks = _np.tile(_np.arange(low, high, dtype=_np.uint64), len(seeds))
    stream = hash_rows(_np.repeat(seeds, blocks, axis=0), tweaks)
    start = offset - low * LABEL_BYTES
    return stream.reshape(len(seeds), -1)[:, start : start + nbytes]


class Prg:
    """One seed's ``G(k)``, read on from where the last read stopped."""

    def __init__(self, seed: bytes):
        if len(seed) != LABEL_BYTES:
            raise ValueError(f"a PRG seed is {LABEL_BYTES} bytes, got {len(seed)}")
        self._seed = byte_matrix([bytes(seed)])
        self._offset = 0

    def read(self, n: int) -> bytes:
        """Return the next ``n`` pseudo-random bytes."""
        if n < 0:
            raise ValueError("cannot read a negative number of bytes")
        out = expand_seeds(self._seed, self._offset, n).tobytes()
        self._offset += n
        return out


SEED_BYTES = 32  # a seeded ring element's uniform half on the wire

_WORDS = {4: "<u4", 8: "<u8"}


def expand_uniform(seed: bytes, n: int, moduli) -> list:
    """``n`` uniform elements of Z_m for each modulus ``m``, from ``seed``.

    One SHAKE-256 stream, read on across the moduli in order: per
    modulus, exact rejection sampling — one word per missing element (4
    or 8 bytes, else the modulus' byte width), masked to its bit length,
    the values below the modulus kept in order. The stream is a single
    digest sized for the expected draw plus a margin; SHAKE output is a
    prefix of every longer output, so the rare rejection run past the
    margin re-reads a longer digest and carries on. Returns a uint64 array per modulus up to 64 bits, else a
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
