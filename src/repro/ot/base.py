"""Base 1-out-of-2 oblivious transfer (simplified Chou-Orlandi).

Runs Diffie-Hellman style over the multiplicative group modulo the prime
2^255 - 19. The sender publishes A = g^a; the receiver with choice bit c
replies B = g^b (c = 0) or B = A * g^b (c = 1). Natively this is a
*random* OT: the sender derives the two keys H(B^a) and H(B^a * A^-a), the
receiver can compute only H(A^b), the key at its choice bit. That is
all the IKNP extension needs: the keys are its column seeds.

Cost per OT: the sender pays one variable-base exponentiation (B^a; the
second key reuses it through A^-a, computed once per batch); the
receiver's two, g^b and A^b, are fixed-base and run off a
:class:`FixedBaseTable` (one for g per process, 8-bit windows; one for A
per batch, 6-bit windows).
"""

from __future__ import annotations

import functools

from repro.crypto.modmath import mod_inverse
from repro.crypto.prg import key_derivation
from repro.crypto.rng import SecureRandom

# 2^255 - 19 (prime); using its multiplicative group keeps exponentiations
# to a few hundred microseconds in pure Python.
GROUP_PRIME = (1 << 255) - 19
GENERATOR = 2

ELEMENT_BYTES = 32  # one encoded group element on the wire
# Windows of a table built for one batch of base OTs: fewer entries to
# build, a few more multiplications per use (see FixedBaseTable).
BATCH_WINDOW_BITS = 6


def _encode(element: int) -> bytes:
    return element.to_bytes(ELEMENT_BYTES, "little")


def _check_element(element: int) -> int:
    """A peer's group element, refused unless it can be a real one.

    0 and anything outside [0, p) are not in the group; 1 and p - 1 span
    subgroups of order 1 and 2, so every key derived from them is
    predictable. The keys seed the IKNP stream of a whole connection, so
    one such element would poison every later OT on it.
    """
    if not isinstance(element, int) or not 1 < element < GROUP_PRIME - 1:
        raise ValueError(f"degenerate base-OT group element: {element!r}")
    return element


def _index_key(shared: int, index: int) -> bytes:
    """The OT key of instance ``index`` from its Diffie-Hellman element."""
    return key_derivation(_encode(shared), index.to_bytes(4, "little"))


class FixedBaseTable:
    """Fixed-base windowed exponentiation modulo :data:`GROUP_PRIME`.

    The fixed-base windowing method of HAC 14.6.3 with ``window_bits``-bit
    windows and every digit multiple stored:
    ``rows[i][d] = base^(d * 2^(window_bits * i))``, so ``base^e`` is the
    product of one table entry per window of ``e`` — at most 32
    modular multiplications for 8-bit windows, 43 for 6-bit ones,
    instead of ~380 for a 255-bit square-and-multiply. Exponents are
    full width (``0 <= e < 2^256``). Building costs a multiplication per
    entry: 8,192 at 8 bits, which the process-wide generator table
    repays over every batch; 2,752 at 6 bits, the cheaper total for a
    base used only by one batch of 128 (:meth:`BaseOtReceiver.keys`).
    """

    def __init__(self, base: int, window_bits: int = 8):
        size = 1 << window_bits
        rows = []
        for _ in range(-(-8 * ELEMENT_BYTES // window_bits)):
            row = [1]
            for _ in range(size):
                row.append(row[-1] * base % GROUP_PRIME)
            base = row.pop()  # base^size: the next window's base
            rows.append(row)
        self._rows = rows
        self._bits = window_bits

    def _digits(self, exponent: int):
        """The exponent's windows, least significant first (``OverflowError``
        when it is negative or wider than the table)."""
        data = exponent.to_bytes(ELEMENT_BYTES, "little")
        if self._bits == 8:
            return data
        mask = (1 << self._bits) - 1
        shifts = range(0, 8 * ELEMENT_BYTES, self._bits)
        return [exponent >> shift & mask for shift in shifts]

    def pow(self, exponent: int) -> int:
        """``base ** exponent % GROUP_PRIME``."""
        acc = 1
        for row, digit in zip(self._rows, self._digits(exponent)):
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
            shared = pow(_check_element(point), self._a, GROUP_PRIME)
            pairs.append(
                (
                    _index_key(shared, index),
                    _index_key(shared * unshift % GROUP_PRIME, index),
                )
            )
        return pairs


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
        _check_element(sender_public)
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
        table = FixedBaseTable(_check_element(sender_public), BATCH_WINDOW_BITS)
        return [
            _index_key(table.pow(b), index) for index, b in enumerate(self._secrets)
        ]
