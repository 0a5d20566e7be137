"""IKNP oblivious-transfer extension, seed form.

Turns kappa = 128 base OTs (public-key operations) into arbitrarily many
fast symmetric-key OTs — the construction DELPHI relies on to fetch one
wire label per share bit during the GC sub-protocol. Roles invert between
the layers: the extension's *chooser* (who ends up with one message of
each pair) plays base-OT *sender*, the *holder* of the message pairs plays
base-OT receiver with kappa secret bits ``s``.

Message flow of one batch of m OTs (:func:`base_seed_ot` then
:func:`extend`):

1. kappa random base OTs: the chooser gets seed pairs ``(k0_i, k1_i)``,
   the holder gets ``k_{s_i}``. On the wire: A (32 B) to the holder, the
   kappa blinded points (32 B each) back. No base-OT ciphertexts.
2. The chooser expands ``t_i = G(k0_i)`` and sends the kappa m-bit columns
   ``u_i = t_i xor G(k1_i) xor r`` (r = its packed choice bits).
3. The holder forms ``q_i = G(k_{s_i}) xor s_i * u_i`` (= ``t_i xor s_i * r``),
   so row j of Q is ``t_j xor r_j * s``. It masks pair j with
   ``H(q_j, j)`` / ``H(q_j xor s, j)`` and sends both ciphertexts.
4. The chooser unmasks its choice with ``H(t_j, j)``.

Columns are m-bit Python integers (XOR is one big-int operation); the
kappa x m bit-matrix transpose to 16-byte rows is one
``unpackbits``/``packbits`` under the numpy backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend import get_backend
from repro.crypto.prg import (
    LABEL_BYTES,
    Prg,
    byte_matrix,
    byte_rows,
    hash_label,
    hash_rows,
    xor_bytes,
)
from repro.crypto.rng import SecureRandom
from repro.ot.base import ELEMENT_BYTES, BaseOtReceiver, BaseOtSender

try:
    import numpy as _np
except ImportError:  # pragma: no cover - minimal images only
    _np = None

KAPPA = 128  # computational security parameter / number of base OTs
_ROW_BYTES = KAPPA // 8


@dataclass
class ExtensionTranscript:
    """Byte sizes of each message flow, for communication accounting."""

    base_ot_bytes: int
    column_bytes: int
    ciphertext_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.base_ot_bytes + self.column_bytes + self.ciphertext_bytes


@dataclass
class BaseSeeds:
    """What the kappa random base OTs leave with each party."""

    chooser_pairs: list[tuple[bytes, bytes]]  # (k0_i, k1_i), chooser's
    holder_bits: list[int]  # s_i, holder's
    holder_seeds: list[bytes]  # k_{s_i}, holder's


def base_seed_ot(rng: SecureRandom) -> BaseSeeds:
    """Run the kappa random base OTs whose keys seed the extension.

    All of a batch's randomness (the chooser's exponent, the holder's
    ``s`` and blinding exponents) is drawn here, so :func:`extend` is a
    pure function of its inputs.
    """
    chooser = BaseOtSender(rng.spawn())
    holder_rng = rng.spawn()
    holder = BaseOtReceiver(holder_rng.bits(KAPPA), holder_rng)
    return BaseSeeds(
        chooser_pairs=chooser.keys(holder.points(chooser.public)),
        holder_bits=holder.choices,
        holder_seeds=holder.keys(chooser.public),
    )


def _expand(seed: bytes, m: int) -> int:
    """G(seed) as an m-bit column (bits past m are never read)."""
    return int.from_bytes(Prg(seed).read((m + 7) // 8), "little")


def _pack_bits(bits: list[int]) -> int:
    packed = 0
    for i, bit in enumerate(bits):
        packed |= (bit & 1) << i
    return packed


def _row(columns: list[int], row_index: int) -> int:
    """Extract row ``row_index`` from column-major integer matrix."""
    value = 0
    for i, col in enumerate(columns):
        value |= ((col >> row_index) & 1) << i
    return value


def _transpose_python(columns: list[int], m: int) -> bytes:
    return b"".join(
        _row(columns, j).to_bytes(_ROW_BYTES, "little") for j in range(m)
    )


def _transpose_numpy(columns: list[int], m: int) -> bytes:
    nbytes = (m + 7) // 8
    packed = _np.frombuffer(
        b"".join(col.to_bytes(nbytes, "little") for col in columns), dtype=_np.uint8
    ).reshape(len(columns), nbytes)
    bits = _np.unpackbits(packed, axis=1, count=m, bitorder="little")
    return _np.packbits(bits.T, axis=1, bitorder="little").tobytes()


def _transpose(columns: list[int], m: int) -> bytes:
    """The m rows of kappa m-bit columns, ``_ROW_BYTES`` bytes each."""
    if _np is not None and get_backend().name == "numpy":
        return _transpose_numpy(columns, m)
    return _transpose_python(columns, m)


def _pad(row: bytes, j: int, msg_len: int) -> bytes:
    """The ``msg_len``-byte pad that row ``j`` masks a message with: the
    row hash itself, expanded only for messages longer than a label."""
    pad = hash_label(row, j)
    return pad[:msg_len] if msg_len <= LABEL_BYTES else Prg(pad).read(msg_len)


def _pads(rows, msg_len: int):
    """:func:`_pad` of every row of an (m, 16) matrix, as (m, msg_len)."""
    hashed = hash_rows(rows, range(len(rows)))
    if msg_len <= LABEL_BYTES:
        return hashed[:, :msg_len]
    return byte_matrix(
        [Prg(seed).read(msg_len) for seed in byte_rows(hashed)], msg_len
    )


def mask_row_block(pairs, q_rows: bytes, s_row: bytes, msg_len: int):
    """Holder side: mask every message pair with the row hashes of Q.

    ``pairs`` is a pair of (m, msg_len) matrices — every zero message,
    every one message — masked in one pass per side, or (the scalar
    reference) a list of (m0, m1) byte pairs masked row by row; the
    masked pairs come back in the same form.
    """
    if isinstance(pairs, tuple):
        q = byte_matrix([q_rows], _ROW_BYTES)
        return (
            pairs[0] ^ _pads(q, msg_len),
            pairs[1] ^ _pads(q ^ byte_matrix([s_row], _ROW_BYTES), msg_len),
        )
    masked = []
    for j, (m0, m1) in enumerate(pairs):
        q_j = q_rows[j * _ROW_BYTES : (j + 1) * _ROW_BYTES]
        masked.append(
            (
                xor_bytes(m0, _pad(q_j, j, msg_len)),
                xor_bytes(m1, _pad(xor_bytes(q_j, s_row), j, msg_len)),
            )
        )
    return masked


def unmask_row_block(masked, choices: list[int], t_rows: bytes, msg_len: int):
    """Chooser side: unmask the chosen message of every row — an
    (m, msg_len) matrix for a pair of matrices, a list for a list."""
    if isinstance(masked, tuple):
        chose_one = _np.array(choices, dtype=bool)[:, None]
        pads = _pads(byte_matrix([t_rows], _ROW_BYTES), msg_len)
        return _np.where(chose_one, masked[1], masked[0]) ^ pads
    return [
        xor_bytes(
            pair[c & 1],
            _pad(t_rows[j * _ROW_BYTES : (j + 1) * _ROW_BYTES], j, msg_len),
        )
        for j, (pair, c) in enumerate(zip(masked, choices))
    ]


def _to_matrices(pairs: list[tuple[bytes, bytes]], msg_len: int):
    both = byte_matrix([half for pair in pairs for half in pair], msg_len)
    return both[0::2], both[1::2]


def _to_pairs(matrices) -> list[tuple[bytes, bytes]]:
    return list(zip(byte_rows(matrices[0]), byte_rows(matrices[1])))


def _batch_size(message_pairs) -> int:
    """m: the number of pairs in a list of pairs or of rows in a matrix pair."""
    if isinstance(message_pairs, tuple):
        return len(message_pairs[0])
    return len(message_pairs)


def extend(seeds: BaseSeeds, message_pairs, choices: list[int]):
    """Extend the base seeds to one OT per message pair.

    ``message_pairs`` is a list of (m0, m1) byte pairs or a pair of
    (m, msg_len) uint8 matrices (what the sessions hold). Returns the
    chooser's messages and the masked pairs the holder sent, both in the
    form the pairs came in. The numpy backend masks matrices and the
    python backend walks rows, whichever form came in. Deterministic in
    its inputs.
    """
    as_matrices = isinstance(message_pairs, tuple)
    m = _batch_size(message_pairs)
    if len(choices) != m:
        raise ValueError("one choice bit per message pair required")
    if m == 0:
        return (message_pairs[0][:0], message_pairs) if as_matrices else ([], [])
    if as_matrices:
        msg_len = message_pairs[0].shape[1]
    else:
        msg_len = len(message_pairs[0][0])
        for m0, m1 in message_pairs:
            if len(m0) != msg_len or len(m1) != msg_len:
                raise ValueError("all messages must share one length")

    # Chooser: t columns from the k0 seeds, u columns to the holder.
    r_packed = _pack_bits(choices)
    t_columns = [_expand(k0, m) for k0, _ in seeds.chooser_pairs]
    u_columns = [
        t_i ^ _expand(k1, m) ^ r_packed
        for t_i, (_, k1) in zip(t_columns, seeds.chooser_pairs)
    ]

    # Holder: q_i = G(k_{s_i}) xor s_i * u_i, then mask each pair by row.
    q_columns = [
        _expand(seed, m) ^ (u_i if s_i else 0)
        for seed, s_i, u_i in zip(seeds.holder_seeds, seeds.holder_bits, u_columns)
    ]
    s_row = _pack_bits(seeds.holder_bits).to_bytes(_ROW_BYTES, "little")
    vectorize = _np is not None and get_backend().name == "numpy"
    if vectorize and not as_matrices:
        message_pairs = _to_matrices(message_pairs, msg_len)
    elif as_matrices and not vectorize:
        message_pairs = _to_pairs(message_pairs)
    masked = mask_row_block(message_pairs, _transpose(q_columns, m), s_row, msg_len)

    # Chooser: unmask its choice of each pair with row hashes of T.
    chosen = unmask_row_block(masked, choices, _transpose(t_columns, m), msg_len)
    if vectorize and not as_matrices:
        return byte_rows(chosen), _to_pairs(masked)
    if as_matrices and not vectorize:
        return byte_matrix(chosen, msg_len), _to_matrices(masked, msg_len)
    return chosen, masked


def iknp_transfer(message_pairs, choices: list[int], rng: SecureRandom | None = None):
    """Run IKNP extension end to end, one OT per message pair.

    Returns the chooser's messages — in the form :func:`extend` took the
    pairs in — and a transcript of byte volumes (base OT points + the
    kappa x m column matrix + the masked message pairs). The base OTs run
    once per call, in the phase the call is made in. An empty batch runs
    no base OTs and moves no bytes.
    """
    if _batch_size(message_pairs) == 0:
        chosen, _ = extend(None, message_pairs, choices)  # needs no seeds
        return chosen, ExtensionTranscript(0, 0, 0)
    seeds = base_seed_ot(rng or SecureRandom())
    chosen, _ = extend(seeds, message_pairs, choices)
    return chosen, iknp_transcript(len(chosen), len(chosen[0]))


def iknp_transcript(n_ots: int, msg_len: int = LABEL_BYTES) -> ExtensionTranscript:
    """Byte volumes of one IKNP batch — the ONE definition of the formula.

    :func:`iknp_transfer` returns exactly this (the volumes are a pure
    function of the batch size), and every other accounting surface —
    the sessions' channel charges, :func:`iknp_wire_bytes`, the analytic
    predictor in :mod:`repro.core.validation` — derives from it, so the
    copies cannot drift apart.
    """
    return ExtensionTranscript(
        base_ot_bytes=ELEMENT_BYTES + KAPPA * ELEMENT_BYTES,
        column_bytes=KAPPA * ((n_ots + 7) // 8),
        ciphertext_bytes=2 * n_ots * msg_len,
    )


def iknp_wire_bytes(n_ots: int, msg_len: int = LABEL_BYTES) -> tuple[int, int]:
    """(chooser -> holder, holder -> chooser) bytes of one IKNP batch.

    Up: the base-OT public key A and the u columns. Down: the kappa
    base-OT points and the masked pairs.
    """
    t = iknp_transcript(n_ots, msg_len)
    return (
        ELEMENT_BYTES + t.column_bytes,
        t.base_ot_bytes - ELEMENT_BYTES + t.ciphertext_bytes,
    )


def ot_extension_online_bytes(n_ots: int, msg_len: int = LABEL_BYTES) -> int:
    """The m-proportional part of an IKNP batch (columns + masked pairs)."""
    t = iknp_transcript(n_ots, msg_len)
    return t.column_bytes + t.ciphertext_bytes


def base_ot_offline_bytes() -> int:
    """The per-batch constant: A plus the kappa base-OT points."""
    return iknp_transcript(0).base_ot_bytes
