"""Base 1-out-of-2 oblivious transfer (simplified Chou-Orlandi).

Runs Diffie-Hellman style over the multiplicative group modulo the prime
2^255 - 19. The sender publishes A = g^a; the receiver with choice bit c
replies B = g^b (c = 0) or B = A * g^b (c = 1). Natively this is a
*random* OT: the sender derives the two keys H(B^a) and H(B^a * A^-a), the
receiver can compute only H(A^b), the key at its choice bit. That is
all the IKNP extension needs: the keys are its column seeds.

Cost per OT: the sender pays one exponentiation (B^a; the second key
reuses it through A^-a, computed once per batch), the receiver two (g^b
and A^b). Each is one :func:`~repro.crypto.libcrypto.modexp`: ~30 us at
this width against ~130 us for ``pow``, and constant-time in the secret
exponent, which ``pow`` is not.
"""

from __future__ import annotations

from repro.crypto.libcrypto import modexp
from repro.crypto.prg import key_derivation
from repro.crypto.rng import SecureRandom

# 2^255 - 19 (prime): an exponentiation in its multiplicative group is ~30 us.
GROUP_PRIME = (1 << 255) - 19
GENERATOR = 2

ELEMENT_BYTES = 32  # one encoded group element on the wire


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


class BaseOtSender:
    """Sender of a batch of base OTs (holds both keys of every instance)."""

    def __init__(self, rng: SecureRandom | None = None):
        self._rng = rng or SecureRandom()
        self._a = 2 + self._rng.field_element(GROUP_PRIME - 4)
        self.public = modexp(GENERATOR, self._a, GROUP_PRIME)

    def keys(self, receiver_points: list[int]) -> list[tuple[bytes, bytes]]:
        """Random-OT output: the key pair (k0, k1) of each instance."""
        # (B / A)^a = B^a * A^(p-1-a): the second key costs one multiplication.
        unshift = modexp(self.public, GROUP_PRIME - 1 - self._a, GROUP_PRIME)
        pairs = []
        for index, point in enumerate(receiver_points):
            shared = modexp(_check_element(point), self._a, GROUP_PRIME)
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
        pts = []
        for choice, b in zip(self.choices, self._secrets):
            point = modexp(GENERATOR, b, GROUP_PRIME)
            if choice:
                point = point * sender_public % GROUP_PRIME
            pts.append(point)
        return pts

    def keys(self, sender_public: int) -> list[bytes]:
        """Random-OT output: the sender's key at each instance's choice bit."""
        _check_element(sender_public)
        return [
            _index_key(modexp(sender_public, b, GROUP_PRIME), index)
            for index, b in enumerate(self._secrets)
        ]
