"""OpenSSL's libcrypto, via the copy :mod:`hashlib` links; constant-time modexp.

:data:`_SIGNATURES` is every libcrypto symbol the repo calls: the EVP
cipher of :mod:`repro.crypto.aes` and the BIGNUMs of :func:`modexp`. A
``_hashlib`` that does not export one of them cannot import this module.
The handle is a :class:`ctypes.PyDLL`, which keeps the GIL held for the
whole of each call, but not between two calls.
"""

from __future__ import annotations

import ctypes
import functools

try:
    import _hashlib
except ImportError as exc:  # pragma: no cover - Pythons built without OpenSSL
    raise ImportError("repro.crypto needs a hashlib built on OpenSSL") from exc

_P, _INT, _BYTES = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
_SIGNATURES = {
    "EVP_CIPHER_CTX_new": (_P, []),
    "EVP_aes_128_ecb": (_P, []),
    "EVP_EncryptInit_ex": (_INT, [_P, _P, _P, _BYTES, _BYTES]),
    "EVP_CIPHER_CTX_set_padding": (_INT, [_P, _INT]),
    "EVP_EncryptUpdate": (_INT, [_P, _P, ctypes.POINTER(_INT), _BYTES, _INT]),
    "BN_CTX_new": (_P, []),
    "BN_CTX_free": (None, [_P]),
    "BN_new": (_P, []),
    "BN_lebin2bn": (_P, [_BYTES, _INT, _P]),
    "BN_bn2lebinpad": (_INT, [_P, _P, _INT]),
    "BN_set_flags": (None, [_P, _INT]),
    "BN_clear_free": (None, [_P]),
    "BN_MONT_CTX_new": (_P, []),
    "BN_MONT_CTX_set": (_INT, [_P, _P, _P]),
    "BN_MONT_CTX_free": (None, [_P]),
    "BN_mod_exp_mont_consttime": (_INT, [_P] * 6),
}
EXPONENT_BYTES = 32  # modexp exponents are full width: 0 <= e < 2^256


def _bind() -> ctypes.PyDLL:
    """Hashlib's libcrypto, every function of :data:`_SIGNATURES` typed."""
    lib = ctypes.PyDLL(_hashlib.__file__)
    for name, (restype, argtypes) in _SIGNATURES.items():
        try:
            function = getattr(lib, name)
        except AttributeError as exc:
            raise ImportError(
                f"{_hashlib.__file__} does not export {name}: repro.crypto "
                "needs OpenSSL's libcrypto (1.1 or 3.x) linked into hashlib"
            ) from exc
        function.restype = restype
        function.argtypes = argtypes
    return lib


lib = _bind()


@functools.cache
def _montgomery(modulus: int) -> tuple[int, int, int]:
    """(modulus BIGNUM, ``BN_MONT_CTX``, byte width): built once, then only read."""
    if modulus < 3 or not modulus & 1:
        raise ValueError(f"Montgomery form needs an odd modulus above 1, not {modulus}")
    width = (modulus.bit_length() + 7) // 8
    n = lib.BN_lebin2bn(modulus.to_bytes(width, "little"), width, None)
    mont, ctx = lib.BN_MONT_CTX_new(), lib.BN_CTX_new()
    built = n and mont and ctx and lib.BN_MONT_CTX_set(mont, n, ctx) == 1
    lib.BN_CTX_free(ctx)
    if not built:
        lib.BN_MONT_CTX_free(mont)
        lib.BN_clear_free(n)
        raise MemoryError("libcrypto could not build a Montgomery context")
    return n, mont, width


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` for an odd ``modulus``, in time that
    does not depend on the exponent's bits (CPython's ``pow``'s does); an
    exponent outside ``[0, 2^256)`` raises ``OverflowError``. Each call
    makes and ``BN_clear_free``s its own BIGNUMs: threads share no scratch."""
    if not 0 <= exponent < 1 << 8 * EXPONENT_BYTES:
        raise OverflowError("modexp exponents are in [0, 2^256)")
    n, mont, width = _montgomery(modulus)
    ctx, r = lib.BN_CTX_new(), lib.BN_new()
    a = lib.BN_lebin2bn((base % modulus).to_bytes(width, "little"), width, None)
    e = lib.BN_lebin2bn(exponent.to_bytes(EXPONENT_BYTES, "little"), EXPONENT_BYTES, None)
    try:
        if not (ctx and r and a and e):
            raise MemoryError("libcrypto could not allocate a BIGNUM")
        lib.BN_set_flags(e, 0x04)  # BN_FLG_CONSTTIME
        out = ctypes.create_string_buffer(width)
        done = lib.BN_mod_exp_mont_consttime(r, a, e, n, ctx, mont) == 1
        if not done or lib.BN_bn2lebinpad(r, out, width) != width:
            raise RuntimeError("libcrypto's constant-time modexp failed")
        return int.from_bytes(out.raw, "little")
    finally:
        for bn in (a, e, r):
            lib.BN_clear_free(bn)
        lib.BN_CTX_free(ctx)
