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
from repro.crypto.prg import LABEL_BYTES, Prg, hash_label, xor_bytes
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


def mask_row_block(
    pairs: list[tuple[bytes, bytes]], q_rows: bytes, s_row: bytes, msg_len: int
) -> list[tuple[bytes, bytes]]:
    """Holder side: mask every message pair with the row hashes of Q."""
    masked = []
    for j, (m0, m1) in enumerate(pairs):
        q_j = q_rows[j * _ROW_BYTES : (j + 1) * _ROW_BYTES]
        pad0 = hash_label(q_j, j)
        pad1 = hash_label(xor_bytes(q_j, s_row), j)
        masked.append(
            (
                xor_bytes(m0, Prg(pad0).read(msg_len)),
                xor_bytes(m1, Prg(pad1).read(msg_len)),
            )
        )
    return masked


def unmask_row_block(
    masked: list[tuple[bytes, bytes]], choices: list[int], t_rows: bytes,
    msg_len: int,
) -> list[bytes]:
    """Chooser side: unmask the chosen message of every row."""
    chosen = []
    for j, (pair, c) in enumerate(zip(masked, choices)):
        t_j = t_rows[j * _ROW_BYTES : (j + 1) * _ROW_BYTES]
        pad = hash_label(t_j, j)
        chosen.append(xor_bytes(pair[c & 1], Prg(pad).read(msg_len)))
    return chosen


def extend(
    seeds: BaseSeeds,
    message_pairs: list[tuple[bytes, bytes]],
    choices: list[int],
) -> tuple[list[bytes], list[tuple[bytes, bytes]]]:
    """Extend the base seeds to ``len(message_pairs)`` OTs.

    Returns the chooser's messages and the masked pairs the holder sent.
    Deterministic in its inputs.
    """
    m = len(message_pairs)
    if len(choices) != m:
        raise ValueError("one choice bit per message pair required")
    if m == 0:
        return [], []
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
    masked = mask_row_block(message_pairs, _transpose(q_columns, m), s_row, msg_len)

    # Chooser: unmask its choice of each pair with row hashes of T.
    chosen = unmask_row_block(masked, choices, _transpose(t_columns, m), msg_len)
    return chosen, masked


def iknp_transfer(
    message_pairs: list[tuple[bytes, bytes]],
    choices: list[int],
    rng: SecureRandom | None = None,
) -> tuple[list[bytes], ExtensionTranscript]:
    """Run IKNP extension end to end for ``len(message_pairs)`` OTs.

    Returns the chooser's messages and a transcript of byte volumes (base
    OT points + the kappa x m column matrix + the masked message pairs).
    The base OTs run once per call, in the phase the call is made in.
    """
    if not message_pairs and not choices:
        return [], ExtensionTranscript(0, 0, 0)
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
