"""Base 1-out-of-2 oblivious transfer (simplified Chou-Orlandi).

Runs Diffie-Hellman style over the multiplicative group modulo the prime
2^255 - 19. The sender publishes A = g^a; the receiver with choice bit c
replies B = g^b (c = 0) or B = A * g^b (c = 1). Natively this is a
*random* OT: the sender derives the two keys H(B^a) and H(B^a * A^-a), the
receiver can compute only H(A^b), the key at its choice bit — and that is
all the IKNP extension needs (the keys are its column seeds). The
chosen-message form (``encrypt``/``decrypt``/:func:`run_base_ot`) is a thin
wrapper that pads each message with a PRG stretch of its key.

Cost per OT: the sender pays one variable-base exponentiation (B^a; the
second key reuses it through A^-a, computed once per batch); the
receiver's two, g^b and A^b, are fixed-base and run off a
:class:`FixedBaseTable` (one for g per process, one for A per batch).
"""

from __future__ import annotations

import functools

from repro.crypto.modmath import mod_inverse
from repro.crypto.prg import Prg, key_derivation, xor_bytes
from repro.crypto.rng import SecureRandom

# 2^255 - 19 (prime); using its multiplicative group keeps exponentiations
# to a few hundred microseconds in pure Python.
GROUP_PRIME = (1 << 255) - 19
GENERATOR = 2

ELEMENT_BYTES = 32  # one encoded group element on the wire


def _encode(element: int) -> bytes:
    return element.to_bytes(ELEMENT_BYTES, "little")


def _stretch(key: bytes, n: int) -> bytes:
    return Prg(key).read(n)


def _index_key(shared: int, index: int) -> bytes:
    """The OT key of instance ``index`` from its Diffie-Hellman element."""
    return key_derivation(_encode(shared), index.to_bytes(4, "little"))


class FixedBaseTable:
    """Fixed-base windowed exponentiation modulo :data:`GROUP_PRIME`.

    The fixed-base windowing method of HAC 14.6.3 with 8-bit windows and
    every digit multiple stored: ``rows[i][d] = base^(d * 256^i)``, so
    ``base^e`` is the product of one table entry per byte of ``e`` — at
    most 31 modular multiplications instead of ~380 for a 255-bit
    square-and-multiply. Exponents are full width (``0 <= e < 2^256``).
    Building costs 8192 multiplications (~60 ``pow`` calls' worth), which
    128 uses of one base repay several times over.
    """

    def __init__(self, base: int):
        rows = []
        for _ in range(ELEMENT_BYTES):
            row = [1]
            for _ in range(256):
                row.append(row[-1] * base % GROUP_PRIME)
            base = row.pop()  # base^256: the next window's base
            rows.append(row)
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base ** exponent % GROUP_PRIME``."""
        acc = 1
        for row, digit in zip(self._rows, exponent.to_bytes(ELEMENT_BYTES, "little")):
            if digit:
                acc = acc * row[digit] % GROUP_PRIME
        return acc


@functools.cache
def _generator_table() -> FixedBaseTable:
    """The process-wide table for g, built on first use (~0.5 MB)."""
    return FixedBaseTable(GENERATOR)


class BaseOtSender:
    """Sender of a batch of base OTs (holds both keys of every instance)."""

    def __init__(self, rng: SecureRandom | None = None):
        self._rng = rng or SecureRandom()
        self._a = 2 + self._rng.field_element(GROUP_PRIME - 4)
        self.public = _generator_table().pow(self._a)

    def keys(self, receiver_points: list[int]) -> list[tuple[bytes, bytes]]:
        """Random-OT output: the key pair (k0, k1) of each instance."""
        # (B / A)^a = B^a * A^-a: the second key costs one multiplication.
        unshift = mod_inverse(pow(self.public, self._a, GROUP_PRIME), GROUP_PRIME)
        pairs = []
        for index, point in enumerate(receiver_points):
            shared = pow(point, self._a, GROUP_PRIME)
            pairs.append(
                (
                    _index_key(shared, index),
                    _index_key(shared * unshift % GROUP_PRIME, index),
                )
            )
        return pairs

    def encrypt(
        self, receiver_points: list[int], message_pairs: list[tuple[bytes, bytes]]
    ) -> list[tuple[bytes, bytes]]:
        """Produce the two pad-encrypted messages for each OT instance."""
        if len(receiver_points) != len(message_pairs):
            raise ValueError("one receiver point per message pair required")
        return [
            (
                xor_bytes(m0, _stretch(k0, len(m0))),
                xor_bytes(m1, _stretch(k1, len(m1))),
            )
            for (k0, k1), (m0, m1) in zip(self.keys(receiver_points), message_pairs)
        ]


class BaseOtReceiver:
    """Receiver of a batch of base OTs (holds choice bits)."""

    def __init__(self, choices: list[int], rng: SecureRandom | None = None):
        self._rng = rng or SecureRandom()
        self.choices = [c & 1 for c in choices]
        self._secrets = [
            2 + self._rng.field_element(GROUP_PRIME - 4) for _ in self.choices
        ]

    def points(self, sender_public: int) -> list[int]:
        """Blinded group elements to send to the sender."""
        g = _generator_table()
        pts = []
        for choice, b in zip(self.choices, self._secrets):
            point = g.pow(b)
            if choice:
                point = point * sender_public % GROUP_PRIME
            pts.append(point)
        return pts

    def keys(self, sender_public: int) -> list[bytes]:
        """Random-OT output: the sender's key at each instance's choice bit."""
        table = FixedBaseTable(sender_public)
        return [
            _index_key(table.pow(b), index) for index, b in enumerate(self._secrets)
        ]

    def decrypt(
        self, sender_public: int, ciphertexts: list[tuple[bytes, bytes]]
    ) -> list[bytes]:
        """Recover the chosen message of each pair."""
        out = []
        for choice, key, pair in zip(
            self.choices, self.keys(sender_public), ciphertexts
        ):
            chosen = pair[choice]
            out.append(xor_bytes(chosen, _stretch(key, len(chosen))))
        return out


def run_base_ot(
    message_pairs: list[tuple[bytes, bytes]],
    choices: list[int],
    rng: SecureRandom | None = None,
    channel=None,
) -> list[bytes]:
    """Execute a full base-OT batch, optionally accounting bytes on a channel."""
    rng = rng or SecureRandom()
    sender = BaseOtSender(rng.spawn())
    receiver = BaseOtReceiver(choices, rng.spawn())
    points = receiver.points(sender.public)
    ciphertexts = sender.encrypt(points, message_pairs)
    if channel is not None:
        from repro.network.channel import CLIENT, SERVER

        channel.send(SERVER, _encode(sender.public))
        channel.recv(CLIENT)
        channel.send(CLIENT, [_encode(p) for p in points])
        channel.recv(SERVER)
        channel.send(SERVER, [c for pair in ciphertexts for c in pair])
        channel.recv(CLIENT)
    return receiver.decrypt(sender.public, ciphertexts)
