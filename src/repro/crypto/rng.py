"""Seedable randomness sources for protocol parties.

Every party in the two-party protocols owns a :class:`SecureRandom` so tests
can make entire protocol executions deterministic by fixing seeds while the
default construction remains unpredictable.
"""

from __future__ import annotations

import functools
import os
import random

import numpy as np

# Word widths drawn as one array: the bytes of a draw read in place.
_LANES = {4: np.dtype("<u4"), 8: np.dtype("<u8")}


@functools.lru_cache(maxsize=None)
def _popcount_table(eta: int) -> bytes:
    """byte -> popcount of its low ``eta`` bits, as a ``translate`` table."""
    mask = (1 << eta) - 1
    return bytes(bin(b & mask).count("1") for b in range(256))


class SecureRandom:
    """Random source with the handful of draws the protocols need.

    The vector draws (:meth:`field_vector`, :meth:`ternary_vector`,
    :meth:`centered_binomial_vector`) take their randomness in whole-vector
    ``getrandbits`` calls and return plain ``list[int]``, so a seed fixes
    the same values whichever compute backend or ring representation
    consumes them.
    """

    def __init__(self, seed: int | bytes | None = None):
        if seed is None:
            seed = int.from_bytes(os.urandom(16), "little")
        self._rng = random.Random(seed)

    def field_element(self, modulus: int) -> int:
        """Uniform element of Z_modulus."""
        return self._rng.randrange(modulus)

    def _words(self, count: int, width: int):
        """``count`` uniform little-endian ``width``-byte words from one
        ``getrandbits``: a numpy array for widths 4 and 8, else a tuple
        of ints."""
        data = self.bytes(count * width)
        if width in _LANES:
            return np.frombuffer(data, dtype=_LANES[width])
        return tuple(
            int.from_bytes(data[i : i + width], "little")
            for i in range(0, len(data), width)
        )

    def field_vector(self, n: int, modulus: int) -> list[int]:
        """Vector of ``n`` uniform elements of Z_modulus.

        Exact rejection sampling over whole-vector draws: each pass takes
        one word per missing element, masks it to the modulus' bit length
        and keeps, in order, the values below the modulus (at least half
        of them) — one numpy pass for moduli up to 64 bits.
        """
        bits = modulus.bit_length()
        width = 4 if bits <= 32 else 8 if bits <= 64 else (bits + 7) // 8
        mask = (1 << bits) - 1
        out: list[int] = []
        while len(out) < n:
            words = self._words(n - len(out), width)
            if width in _LANES:
                words = words & mask
                out += words[words < modulus].tolist()
            else:
                out += [v for v in (w & mask for w in words) if v < modulus]
        return out

    def bit(self) -> int:
        return self._rng.getrandbits(1)

    def bits(self, n: int) -> list[int]:
        return [self._rng.getrandbits(1) for _ in range(n)]

    def bytes(self, n: int) -> bytes:
        return self._rng.getrandbits(n * 8).to_bytes(n, "little") if n else b""

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def ternary_vector(self, n: int) -> list[int]:
        """``n`` draws from {-1, 0, 1} (RLWE secret coefficients): one
        32-bit word each, reduced mod 3 (off uniform by under 2^-31)."""
        return ((self._words(n, 4) % 3).astype(np.int64) - 1).tolist()

    def centered_binomial_vector(self, n: int, eta: int = 4) -> list[int]:
        """``n`` centered-binomial noise draws, the standard discrete-
        Gaussian stand-in: popcount(eta bits) - popcount(eta bits), one
        byte per half so both popcounts are C-speed table lookups."""
        if not 1 <= eta <= 8:
            raise ValueError("centered-binomial width must be in 1..8")
        table = _popcount_table(eta)
        data = self.bytes(2 * n)
        plus, minus = data[:n].translate(table), data[n:].translate(table)
        return [a - b for a, b in zip(plus, minus)]

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival draw (Poisson process) with given mean."""
        return self._rng.expovariate(1.0 / mean)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in [low, high) (workload thinning / jitter draws)."""
        return self._rng.uniform(low, high)

    def spawn(self) -> "SecureRandom":
        """Independent child stream (for per-request generators)."""
        return SecureRandom(self._rng.getrandbits(128))
