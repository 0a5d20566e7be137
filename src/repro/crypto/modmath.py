"""Modular arithmetic helpers used across the HE, SS, and OT substrates.

Scalar helpers operate on plain Python integers so that moduli larger than
64 bits (e.g. the ~41-bit DELPHI share prime or a 60-bit RLWE ciphertext
modulus) are handled exactly. The ``*_vec`` helpers and :func:`matvec_mod`
are list-in/list-out conveniences that dispatch to the active compute
backend (:mod:`repro.backend`), so callers get vectorized execution when
numpy is available without holding backend state themselves.
"""

from __future__ import annotations

import random
from typing import Sequence

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, probabilistic above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mod_inverse(a: int, m: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``m`` (raises if not coprime)."""
    g, x, _ = _extended_gcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    return x % m


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def find_prime_one_mod(bits: int, modulus: int) -> int:
    """Smallest prime with ``bits`` bits congruent to 1 mod ``modulus``."""
    candidate = (1 << (bits - 1)) + 1
    rem = (candidate - 1) % modulus
    if rem:
        candidate += modulus - rem
    while candidate < (1 << bits):
        if is_probable_prime(candidate):
            return candidate
        candidate += modulus
    raise ValueError(f"no {bits}-bit prime congruent to 1 mod {modulus}")


def find_ntt_prime(bits: int, n: int) -> int:
    """Smallest prime of ``bits`` bits congruent to 1 mod 2n (NTT friendly).

    Such primes admit a primitive 2n-th root of unity, which is what both the
    negacyclic NTT (ciphertext ring) and BFV batching (plaintext slots)
    require.
    """
    return find_prime_one_mod(bits, 2 * n)


def generate_ntt_primes(n: int, count: int, bits: int) -> tuple[int, ...]:
    """``count`` distinct primes ≡ 1 mod 2n just below 2^``bits``.

    Searching downward keeps every prime close to 2^bits, so the product of
    ``count`` primes has bit length count*bits — the shape an RNS (CRT)
    ciphertext-modulus chain wants: each residue fits the vectorized
    backend's exact reduction while the chain spans an arbitrary total
    width. Returned largest-first; deterministic for a given (n, count,
    bits), so parameter sets built from the chain are reproducible.
    """
    step = 2 * n
    candidate = (1 << bits) - 1
    candidate -= (candidate - 1) % step
    primes: list[int] = []
    while len(primes) < count and candidate > (1 << (bits - 1)):
        if is_probable_prime(candidate):
            primes.append(candidate)
        candidate -= step
    if len(primes) < count:
        raise ValueError(
            f"fewer than {count} NTT primes of {bits} bits for degree {n}"
        )
    return tuple(primes)


def crt_combine(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """The unique x mod prod(moduli) with x ≡ residues[i] mod moduli[i].

    Moduli must be pairwise coprime (distinct primes in the RNS use case).
    """
    total = 1
    for m in moduli:
        total *= m
    x = 0
    for r, m in zip(residues, moduli):
        big = total // m
        x += r * big * mod_inverse(big % m, m)
    return x % total


# Known factorizations of composite CRT moduli, registered when an RNS
# parameter set is built. Root finding consults this so the arbitrary-
# precision bigint path works on the same composite q the RNS chain
# represents (Z_q^* is not cyclic for composite q, so the prime-modulus
# exponent trick below cannot find roots there directly).
#
# Deliberately unbounded, unlike the NTT/RNS context caches: an entry is
# a handful of ints (~100 bytes), and evicting one would be a correctness
# hazard — a still-live parameter set whose factorization disappeared
# would send primitive_root_of_unity down the prime-modulus search, which
# does not terminate usefully for a wide composite.
_MODULUS_FACTORS: dict[int, tuple[int, ...]] = {}


def register_modulus_factors(modulus: int, factors: Sequence[int]) -> None:
    """Record that ``modulus`` is the product of the given distinct primes."""
    factors = tuple(sorted(int(f) for f in factors))
    product = 1
    for f in factors:
        product *= f
    if product != modulus:
        raise ValueError("factors do not multiply to the modulus")
    if len(set(factors)) != len(factors):
        raise ValueError("modulus factors must be distinct")
    _MODULUS_FACTORS[modulus] = factors


def registered_modulus_factors(modulus: int) -> tuple[int, ...] | None:
    return _MODULUS_FACTORS.get(modulus)


def primitive_root_of_unity(order: int, p: int) -> int:
    """A primitive ``order``-th root of unity modulo ``p``.

    For prime ``p``: raises candidates to the power (p-1)/order — the
    result always has order dividing ``order`` — and accepts the first
    whose order is exactly ``order``. Only ``order`` itself (small) is ever
    factored, so this stays fast for wide moduli where factoring p-1 would
    be intractable.

    For a composite ``p`` registered via :func:`register_modulus_factors`
    (an RNS chain product): CRT-combines per-prime primitive roots, giving
    an element that is a primitive ``order``-th root modulo every factor —
    exactly the principal root the NTT over Z_p needs.
    """
    if order == 1:
        return 1
    factors = _MODULUS_FACTORS.get(p)
    if factors is not None:
        return crt_combine(
            [primitive_root_of_unity(order, f) for f in factors], factors
        )
    if (p - 1) % order != 0:
        raise ValueError(f"{order} does not divide {p}-1")
    order_factors = _prime_factors(order)
    exponent = (p - 1) // order
    for candidate in range(2, p):
        root = pow(candidate, exponent, p)
        if root != 1 and all(
            pow(root, order // f, p) != 1 for f in order_factors
        ):
            return root
    raise ValueError(f"no primitive {order}-th root of unity modulo {p}")


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def random_prime(bits: int, rng: random.Random | None = None) -> int:
    """A random prime with exactly ``bits`` bits."""
    rng = rng or random.Random()
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def centered(value: int, modulus: int) -> int:
    """Map ``value`` mod ``modulus`` into the centered range (-m/2, m/2]."""
    value %= modulus
    if value > modulus // 2:
        value -= modulus
    return value


# -- vectorized helpers (backend-dispatched) -----------------------------------
#
# The backend import is deferred into each function: repro.backend imports
# this module for mod_inverse, so a top-level import would be circular.
# ``prefer`` overrides the active backend selection per call (how
# ``BfvParams.backend`` reaches these).


def _backend(modulus: int, prefer: str | None = None):
    from repro.backend import backend_for

    return backend_for(modulus, prefer=prefer)


def mod_add_vec(
    a: Sequence[int], b: Sequence[int], modulus: int, prefer: str | None = None
) -> list[int]:
    """Elementwise (a + b) mod modulus."""
    be = _backend(modulus, prefer)
    return be.tolist(be.add(be.asvec(a, modulus), be.asvec(b, modulus), modulus))


def mod_sub_vec(
    a: Sequence[int], b: Sequence[int], modulus: int, prefer: str | None = None
) -> list[int]:
    """Elementwise (a - b) mod modulus."""
    be = _backend(modulus, prefer)
    return be.tolist(be.sub(be.asvec(a, modulus), be.asvec(b, modulus), modulus))


def mod_mul_vec(
    a: Sequence[int], b: Sequence[int], modulus: int, prefer: str | None = None
) -> list[int]:
    """Elementwise (a * b) mod modulus."""
    be = _backend(modulus, prefer)
    return be.tolist(be.mul(be.asvec(a, modulus), be.asvec(b, modulus), modulus))


def mod_pow_vec(
    bases: Sequence[int], exponent: int, modulus: int, prefer: str | None = None
) -> list[int]:
    """Elementwise pow(base, exponent, modulus) by square-and-multiply."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    be = _backend(modulus, prefer)
    base = be.asvec(bases, modulus)
    result = be.asvec([1] * be.veclen(base), modulus)
    while exponent:
        if exponent & 1:
            result = be.mul(result, base, modulus)
        exponent >>= 1
        if exponent:
            base = be.mul(base, base, modulus)
    return be.tolist(result)


def matvec_mod(
    matrix, vec: Sequence[int], modulus: int, prefer: str | None = None
) -> list[int]:
    """``matrix @ vec mod modulus`` on the resolved backend.

    ``matrix`` may be a list of rows or an ndarray; either representation
    is accepted by both backends so lowered networks survive a backend
    switch mid-session.
    """
    return _backend(modulus, prefer).matvec_mod(matrix, vec, modulus)
