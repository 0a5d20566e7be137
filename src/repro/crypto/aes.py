"""AES-128 in ECB mode, through the libcrypto that :mod:`hashlib` links.

The garbled-circuit and OT row hash (:mod:`repro.crypto.prg`) is built
on AES-128 under a fixed public key, as in DELPHI's fancy-garbling. The
standard library has no block cipher, but its ``_hashlib`` extension is
linked against OpenSSL's libcrypto, so OpenSSL's EVP cipher interface is
one :mod:`ctypes` handle away (:mod:`repro.crypto.libcrypto`), and the
library is already mapped into any process that imports :mod:`hashlib`.

The handle is a :class:`ctypes.PyDLL`, which keeps the GIL held for the
whole of each call. One cipher context per key is built on first use and
then shared by every thread in the process. That is safe because ECB with
padding off keeps no state between whole-block updates, and because,
with the GIL held, no two updates on one context can overlap. A platform
whose ``_hashlib`` does not export the EVP symbols cannot import this
module.
"""

from __future__ import annotations

import ctypes
import functools

from repro.crypto.libcrypto import lib as _lib

BLOCK_BYTES = 16

# The fixed public key of the row hash: the first 128 bits of the
# fraction of pi, a constant nobody chose.
FIXED_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")

# Largest input one EVP_EncryptUpdate takes: its length is a C int.
_MAX_BYTES = (1 << 31) - BLOCK_BYTES

_update = _lib.EVP_EncryptUpdate


@functools.cache
def _context(key: bytes) -> int:
    """The process-wide AES-128-ECB encryption context of ``key``, padding
    off, built on first use and kept for the life of the process."""
    if len(key) != BLOCK_BYTES:
        raise ValueError(f"an AES-128 key is {BLOCK_BYTES} bytes, got {len(key)}")
    cipher = _lib.EVP_aes_128_ecb()
    if not cipher:
        raise RuntimeError("EVP_aes_128_ecb returned no cipher")
    ctx = _lib.EVP_CIPHER_CTX_new()
    if not ctx:
        raise MemoryError("EVP_CIPHER_CTX_new failed")
    if _lib.EVP_EncryptInit_ex(ctx, cipher, None, key, None) != 1:
        raise RuntimeError("EVP_EncryptInit_ex failed for AES-128-ECB")
    if _lib.EVP_CIPHER_CTX_set_padding(ctx, 0) != 1:
        raise RuntimeError("EVP_CIPHER_CTX_set_padding failed")
    return ctx


def encrypt(data: bytes, key: bytes = FIXED_KEY) -> bytes:
    """AES-128 of every 16-byte block of ``data`` under ``key`` (ECB).

    ``data`` must be whole blocks; the result has the same length.
    """
    n = len(data)
    if n % BLOCK_BYTES or n > _MAX_BYTES:
        raise ValueError(f"AES input must be whole {BLOCK_BYTES}-byte blocks, got {n} B")
    out = ctypes.create_string_buffer(n)
    written = ctypes.c_int()
    if _update(_context(key), out, ctypes.byref(written), data, n) != 1:
        raise RuntimeError("EVP_EncryptUpdate failed")
    if written.value != n:
        raise RuntimeError(f"EVP_EncryptUpdate wrote {written.value} of {n} B")
    return out.raw
