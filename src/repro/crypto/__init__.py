"""Shared cryptographic utilities: modular math, PRG/hashing, randomness."""

from repro.crypto.modmath import (
    find_ntt_prime,
    is_probable_prime,
    mod_inverse,
    primitive_root_of_unity,
)
from repro.crypto.prg import LABEL_BYTES, Prg, hash_label, xor_bytes
from repro.crypto.rng import SecureRandom

__all__ = [
    "LABEL_BYTES",
    "Prg",
    "SecureRandom",
    "find_ntt_prime",
    "hash_label",
    "is_probable_prime",
    "mod_inverse",
    "primitive_root_of_unity",
    "xor_bytes",
]
