"""IKNP oblivious-transfer extension, seed form.

Turns kappa = 128 base OTs (public-key operations) into arbitrarily many
fast symmetric-key OTs — the construction DELPHI relies on to fetch one
wire label per share bit during the GC sub-protocol. Roles invert between
the layers: the extension's *chooser* (who ends up with one message of
each pair) plays base-OT *sender*, the *holder* of the message pairs plays
base-OT receiver with kappa secret bits ``s``.

The extension is a stream (:class:`IknpStream`) that lives as long as
the chooser/holder pair. Its first batch runs the base OTs
(:func:`base_seed_ot`); every batch, the first included, is one
:func:`extend`:

1. Setup, once per stream — kappa random base OTs: the chooser gets seed
   pairs ``(k0_i, k1_i)``, the holder gets ``k_{s_i}``. On the wire: A
   (32 B) to the holder, the kappa blinded points (32 B each) back. No
   base-OT ciphertexts.
2. The chooser reads the next ceil(m/8) bytes of ``t_i = G(k0_i)`` and of
   ``G(k1_i)`` and sends the kappa m-bit columns
   ``u_i = t_i xor G(k1_i) xor r`` (r = its packed choice bits).
3. The holder reads the same stretch of ``G(k_{s_i})`` and forms
   ``q_i = G(k_{s_i}) xor s_i * u_i`` (= ``t_i xor s_i * r``), so row j of
   Q is ``t_j xor r_j * s``. It masks pair j with ``H(q_j, i0 + j)`` /
   ``H(q_j xor s, i0 + j)`` and sends both ciphertexts, where ``i0``
   counts the rows of every earlier batch on the stream.
4. The chooser unmasks its choice with ``H(t_j, i0 + j)``.

Each batch reads on where the last one stopped, in every PRG stream and
in the row tweaks, so no column bit and no pad is ever used twice however
many batches share the base OTs.

``G`` is the row hash in counter mode, ``G(k) = H(k, 0) || H(k, 1) ||
...`` (:func:`repro.crypto.prg.expand_seeds`): a PRG because ``H`` is
fixed-key AES in the ideal-permutation model, every base-OT key is a
secret uniform seed, and a seed's blocks are hashed under distinct
tweaks. A batch expands all 3 * kappa seeds in one two-pass call. The
columns stay (kappa, ceil(m/8)) uint8 matrices from end to end, and the
kappa x m transpose to 16-byte rows is one ``unpackbits``/``packbits``,
under either backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from repro.backend import get_backend
from repro.crypto.prg import (
    LABEL_BYTES,
    Prg,
    byte_matrix,
    byte_rows,
    expand_seeds,
    hash_label,
    hash_rows,
    xor_bytes,
)
from repro.crypto.rng import SecureRandom
from repro.ot.base import ELEMENT_BYTES, BaseOtReceiver, BaseOtSender

KAPPA = 128  # computational security parameter / number of base OTs


@dataclass(frozen=True)
class ExtensionTranscript:
    """Byte sizes of each IKNP message flow, for communication accounting.

    Chooser to holder: the base-OT key A, then the u columns. Holder to
    chooser: the kappa base-OT points, then the masked pairs. The two
    base-OT flows are a stream's setup, which only its first batch has.
    """

    key_bytes: int
    point_bytes: int
    column_bytes: int
    ciphertext_bytes: int

    @property
    def base_ot_bytes(self) -> int:
        return self.key_bytes + self.point_bytes

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

    All of a stream's randomness (the chooser's exponent, the holder's
    ``s`` and blinding exponents) is drawn here, so every batch of
    :func:`extend` is a pure function of the seeds and what came before.
    """
    chooser = BaseOtSender(rng.spawn())
    holder_rng = rng.spawn()
    holder = BaseOtReceiver(holder_rng.bits(KAPPA), holder_rng)
    return BaseSeeds(
        chooser_pairs=chooser.keys(holder.points(chooser.public)),
        holder_bits=holder.choices,
        holder_seeds=holder.keys(chooser.public),
    )


class IknpStream:
    """One chooser/holder pair's IKNP extension, continued batch after batch.

    Holds the base seeds, how many bytes of every seed's ``G`` earlier
    batches read, and the row index the next batch's tweaks start at. The
    base OTs run on the first batch (:meth:`start`), seeded by one child
    of ``rng`` spawned then, so a fresh stream's first batch is exactly
    the one-shot extension over ``base_seed_ot(rng.spawn())``; later
    batches draw nothing. ``seeds`` adopts base OTs that already ran
    instead.

    The holder runs both halves (see the fidelity note in
    :mod:`repro.core.session`), so one object keeps the chooser's
    ``G(k0_i)``/``G(k1_i)`` streams beside the holder's ``G(k_{s_i})``.
    """

    def __init__(
        self, rng: SecureRandom | None = None, seeds: BaseSeeds | None = None
    ):
        self._rng = rng
        self.seeds: BaseSeeds | None = None
        self.next_index = 0  # rows extended so far: the next batch's first tweak
        if seeds is not None:
            self._adopt(seeds)

    @property
    def started(self) -> bool:
        return self.seeds is not None

    def start(self) -> BaseSeeds:
        """The base seeds, running the base OTs if this is the first batch."""
        if self.seeds is None:
            self._adopt(base_seed_ot((self._rng or SecureRandom()).spawn()))
        return self.seeds

    def _adopt(self, seeds: BaseSeeds) -> None:
        self.seeds = seeds
        # k0_i, then k1_i, then k_{s_i}: one row each.
        self._seed_matrix = byte_matrix(
            [k0 for k0, _ in seeds.chooser_pairs]
            + [k1 for _, k1 in seeds.chooser_pairs]
            + seeds.holder_seeds
        )
        self._offset = 0  # bytes of every seed's G that earlier batches read

    def take(self, m: int):
        """Claim the next m rows: ``(first, t, k1, held)``.

        ``first`` is the rows' first tweak; the three (kappa, ceil(m/8))
        uint8 matrices are the next ceil(m/8) bytes of every seed's
        stream — ``G(k0_i)``, ``G(k1_i)`` and ``G(k_{s_i})`` in row i
        (bits past m are never read, and never read again).
        """
        first, self.next_index = self.next_index, self.next_index + m
        nbytes = (m + 7) // 8
        columns = expand_seeds(self._seed_matrix, self._offset, nbytes)
        self._offset += nbytes
        return first, *columns.reshape(3, KAPPA, nbytes)


def _pack_bits(bits):
    """Bits, least significant first, packed into uint8 bytes."""
    return _np.packbits(_np.asarray(bits, dtype=_np.uint8) & 1, bitorder="little")


def _transpose(columns, m: int):
    """The (m, 16) rows of a (kappa, ceil(m/8)) column matrix: bit i of
    row j is bit j of column i."""
    bits = _np.unpackbits(columns, axis=1, count=m, bitorder="little")
    return _np.packbits(_np.ascontiguousarray(bits.T), axis=1, bitorder="little")


def _pad(row: bytes, j: int, msg_len: int) -> bytes:
    """The ``msg_len``-byte pad that row ``j`` masks a message with: the
    row hash itself, expanded only for messages longer than a label."""
    pad = hash_label(row, j)
    return pad[:msg_len] if msg_len <= LABEL_BYTES else Prg(pad).read(msg_len)


def _pads(rows, first: int, msg_len: int):
    """:func:`_pad` of every row of an (m, 16) matrix, the rows tweaked
    ``first``, ``first + 1``, ..., as (m, msg_len)."""
    hashed = hash_rows(rows, _np.arange(first, first + len(rows), dtype=_np.uint64))
    if msg_len <= LABEL_BYTES:
        return hashed[:, :msg_len]
    return expand_seeds(hashed, 0, msg_len)


def mask_row_block(pairs, q, s, first: int, msg_len: int):
    """Holder side: mask every message pair with the row hashes of Q.

    ``q`` is Q's (m, 16) row matrix and ``s`` the holder's 16-byte row of
    base-OT choices. ``pairs`` is a pair of (m, msg_len) matrices — every
    zero message, every one message — masked in one pass per side, or
    (the scalar reference) a list of (m0, m1) byte pairs masked row by
    row; the masked pairs come back in the same form. Row j is tweaked
    ``first + j``.
    """
    if isinstance(pairs, tuple):
        return (
            pairs[0] ^ _pads(q, first, msg_len),
            pairs[1] ^ _pads(q ^ s, first, msg_len),
        )
    s_row = s.tobytes()
    masked = []
    for j, ((m0, m1), q_j) in enumerate(zip(pairs, byte_rows(q))):
        masked.append(
            (
                xor_bytes(m0, _pad(q_j, first + j, msg_len)),
                xor_bytes(m1, _pad(xor_bytes(q_j, s_row), first + j, msg_len)),
            )
        )
    return masked


def unmask_row_block(masked, choices: list[int], t, first: int, msg_len: int):
    """Chooser side: unmask the chosen message of every row with the row
    hashes of T's (m, 16) row matrix ``t`` — an (m, msg_len) matrix for a
    pair of matrices, a list for a list."""
    if isinstance(masked, tuple):
        chose_one = _np.array(choices, dtype=bool)[:, None]
        return _np.where(chose_one, masked[1], masked[0]) ^ _pads(t, first, msg_len)
    return [
        xor_bytes(pair[c & 1], _pad(t_j, first + j, msg_len))
        for j, (pair, c, t_j) in enumerate(zip(masked, choices, byte_rows(t)))
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


def extend(stream: IknpStream, message_pairs, choices: list[int]):
    """Extend ``stream`` by one OT per message pair.

    ``message_pairs`` is a list of (m0, m1) byte pairs or a pair of
    (m, msg_len) uint8 matrices (what the sessions hold). Returns the
    chooser's messages and the masked pairs the holder sent, both in the
    form the pairs came in. The numpy backend masks matrices and the
    python backend walks rows, whichever form came in. Runs the stream's
    base OTs if this is its first batch, then reads the batch's columns
    and row tweaks on from where the last batch stopped; a batch that
    fails validation moves nothing. An empty batch needs no base OTs.
    """
    as_matrices = isinstance(message_pairs, tuple)
    m = _batch_size(message_pairs)
    if len(choices) != m:
        raise ValueError("one choice bit per message pair required")
    bits = _np.asarray(choices)
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError("every choice must be 0 or 1")
    if m == 0:
        return (message_pairs[0][:0], message_pairs) if as_matrices else ([], [])
    if as_matrices:
        msg_len = message_pairs[0].shape[1]
    else:
        msg_len = len(message_pairs[0][0])
        for m0, m1 in message_pairs:
            if len(m0) != msg_len or len(m1) != msg_len:
                raise ValueError("all messages must share one length")
    seeds = stream.start()
    first, t, k1, held = stream.take(m)

    # Chooser: t columns from the k0 streams, u columns to the holder.
    u = t ^ k1 ^ _pack_bits(bits)

    # Holder: q_i = G(k_{s_i}) xor s_i * u_i, then mask each pair by row.
    s_bits = _np.array(seeds.holder_bits, dtype=_np.uint8)[:, None]
    q = held ^ (u * s_bits)
    vectorize = get_backend().name == "numpy"
    if vectorize and not as_matrices:
        message_pairs = _to_matrices(message_pairs, msg_len)
    elif as_matrices and not vectorize:
        message_pairs = _to_pairs(message_pairs)
    masked = mask_row_block(
        message_pairs, _transpose(q, m), _pack_bits(seeds.holder_bits), first, msg_len
    )

    # Chooser: unmask its choice of each pair with row hashes of T.
    chosen = unmask_row_block(masked, choices, _transpose(t, m), first, msg_len)
    if vectorize and not as_matrices:
        return byte_rows(chosen), _to_pairs(masked)
    if as_matrices and not vectorize:
        return byte_matrix(chosen, msg_len), _to_matrices(masked, msg_len)
    return chosen, masked


def iknp_transfer(message_pairs, choices: list[int], stream: IknpStream | None = None):
    """Run one IKNP batch end to end, one OT per message pair.

    ``stream`` is the pair's running extension; a fresh one (the default)
    makes this a one-shot transfer. Returns the chooser's messages — in
    the form :func:`extend` took the pairs in — and the transcript of what
    this batch moved: the base OTs on a stream's first batch, in the phase
    that batch runs in, then the kappa x m column matrix and the masked
    message pairs. An empty batch runs no base OTs and moves no bytes.
    """
    stream = stream or IknpStream()
    m = _batch_size(message_pairs)
    setup = m > 0 and not stream.started
    chosen, _ = extend(stream, message_pairs, choices)
    return chosen, iknp_transcript(
        m, len(chosen[0]) if m else LABEL_BYTES, setup=setup
    )


def iknp_transcript(
    n_ots: int, msg_len: int = LABEL_BYTES, *, setup: bool = True
) -> ExtensionTranscript:
    """Byte volumes of one IKNP batch — the ONE definition of the formula.

    ``setup`` is whether the batch is its stream's first, which carries
    the base OTs. :func:`iknp_transfer` returns exactly this (the volumes
    are a pure function of the batch size), and every other accounting
    surface — the sessions' channel charges, the analytic predictor in
    :mod:`repro.core.validation` — derives from it, so the copies cannot
    drift apart.
    """
    return ExtensionTranscript(
        key_bytes=ELEMENT_BYTES if setup else 0,
        point_bytes=KAPPA * ELEMENT_BYTES if setup else 0,
        column_bytes=KAPPA * ((n_ots + 7) // 8),
        ciphertext_bytes=2 * n_ots * msg_len,
    )
