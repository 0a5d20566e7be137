"""Vectorized ``uint64`` backend with Barrett/Shoup residue arithmetic.

All coefficients live in flat ``uint64`` ndarrays. Two reduction regimes,
chosen per modulus:

* **direct** (q < 2^31): residue products fit in 64 bits, so ``a * b % q``
  is exact with plain ufuncs. This covers the plaintext field t
  (17-41 bits needs the next tier) and small test moduli.
* **Shoup** (2^31 <= q < 2^62): products overflow 64 bits, so we compute
  the full 128-bit product from 32-bit limbs and reduce with Shoup's
  precomputed-quotient trick: for a constant w with
  w' = floor(w * 2^64 / q), the quotient estimate
  q_hat = mulhi64(x, w') satisfies x*w - q_hat*q in [0, 2q) for ANY
  x < 2^64, so one conditional subtraction finishes the job. A
  variable*variable product reduces its high word the same way against
  the constant 2^64 mod q.

The NTT additionally uses Harvey-style *lazy* butterflies: values stay in
[0, 2q) between stages, the quotient estimate drops the low-limb carry
(underestimating by at most 2, so remainders stay under 4q < 2^64 given
q < 2^62), and a single normalization pass lands the output in [0, q).

Everything is exact integer arithmetic — no floats — so results agree
bit for bit with the python reference backend (enforced by
``tests/test_backend_parity.py``). Moduli at or above 2^62 are rejected
by :meth:`supports_modulus`; the registry then falls back to python.

The module degrades gracefully when numpy is absent: ``NumpyBackend`` is
``None`` and the registry simply never offers the backend.
"""

from __future__ import annotations

import functools
from typing import Sequence

from repro.backend.base import ComputeBackend, NttPlan
from repro.backend.python_backend import PythonBackend
from repro.crypto.modmath import mod_inverse

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal images
    np = None

_PY_FALLBACK = PythonBackend()  # exact path for shapes uint64 cannot hold

_DIRECT_LIMIT = 1 << 31  # q below this: products of residues fit in uint64
_MODULUS_LIMIT = 1 << 62  # q below this: (lazy) Shoup reduction is exact

if np is not None:
    _M32 = np.uint64(0xFFFFFFFF)
    _S32 = np.uint64(32)


def _mulhi64(xh, xl, yh, yl):
    """High 64 bits of the 128-bit product given pre-split 32-bit limbs."""
    ll = xl * yl
    lh = xl * yh
    hl = xh * yl
    carry = (ll >> _S32) + (lh & _M32) + (hl & _M32)
    return xh * yh + (lh >> _S32) + (hl >> _S32) + (carry >> _S32)


def _cond_sub(s, q):
    """Reduce s in [0, 2q) into [0, q) with one ufunc: if s < q then s - q
    wraps past 2^63, so the minimum is always the reduced residue."""
    return np.minimum(s, s - q)


def _as_stack(vecs):
    """A sequence of equal-length vectors as one 2D array (a stack passes
    through untouched, so nothing already stacked is copied again)."""
    return vecs if isinstance(vecs, np.ndarray) else np.stack(vecs)


def _shoup_mulmod(x, w, w_sh_h, w_sh_l, q):
    """x * w mod q for constant w < q with w' = floor(w * 2^64 / q) pre-split.

    Exact for any x < 2^64 when q < 2^63 (the remainder estimate lies in
    [0, 2q) which still fits in 64 bits).
    """
    q_hat = _mulhi64(x >> _S32, x & _M32, w_sh_h, w_sh_l)
    r = x * w - q_hat * q  # both wrap mod 2^64; true value < 2q
    return _cond_sub(r, q)


class _ModContext:
    """Per-modulus constants for the Shoup reduction path."""

    __slots__ = ("q", "c64", "c64_sh_h", "c64_sh_l")

    def __init__(self, q: int):
        self.q = np.uint64(q)
        c64 = (1 << 64) % q
        c64_sh = (c64 << 64) // q
        self.c64 = np.uint64(c64)
        self.c64_sh_h = np.uint64(c64_sh >> 32)
        self.c64_sh_l = np.uint64(c64_sh & 0xFFFFFFFF)


def _scalar_shoup(scalar: int, q: int):
    """(w, w'_hi, w'_lo) uint64 scalars for a constant multiplier."""
    scalar %= q
    sh = (scalar << 64) // q
    return np.uint64(scalar), np.uint64(sh >> 32), np.uint64(sh & 0xFFFFFFFF)


@functools.lru_cache(maxsize=16)
def _byte_power_table(width: int, moduli: tuple[int, ...]):
    """T[j, i] = 256^j mod moduli[i]: byte rows @ T are residues mod each."""
    return np.asarray(
        [[pow(256, j, q) for q in moduli] for j in range(width)],
        dtype=np.uint64,
    )


class _NumpyRnsDigitPlan:
    """Precomputed limb tables for the vectorized exact base conversion.

    Reconstructs the integer representative x of a coefficient from its
    CRT halves y_i (= x_i * (Q/q_i)^{-1} mod q_i) entirely in uint64/int64
    lanes, BEHZ-style, but *exactly*:

        sum_i y_i * (Q/q_i) = x + alpha*Q,   alpha = floor(sum_i y_i/q_i)

    * ``m_limbs`` holds every Q/q_i in base-2^w limbs (w = the digit
      width asked for; the wire codec uses 16), so the sum accumulates
      as an (n, L) uint64 matrix of lazy limbs — small-int multiply-adds
      only.
    * alpha is first *estimated* from below with the fixed-point
      reciprocals ``recips`` = floor(2^s / q_i): the estimate
      beta = floor(sum_i y_i*recips / 2^s) provably lies in
      {alpha-1, alpha} (lower bound with total error < k*q_max/2^s << 1).
    * subtracting beta*Q in limbs and carry-propagating yields
      x' = x or x + Q; one exact multi-limb conditional subtract of Q
      (the correction term) lands on x itself, so the resulting digits
      are bit-identical to bigint reconstruction for ANY input.

    Built by :meth:`_NumpyBackendImpl.make_rns_digit_plan`, which returns
    ``None`` when the (chain, digit width) shape could overflow a lane —
    the caller then uses the exact arbitrary-precision fallback.
    """

    __slots__ = (
        "base_bits", "mask", "limbs", "m_limbs", "q_limbs",
        "recips", "recip_shift", "num_primes",
    )

    def __init__(self, primes, q: int, base_bits: int):
        k = len(primes)
        w = base_bits
        mask = (1 << w) - 1
        # One spare limb so x + Q (the pre-correction candidate, < 2Q)
        # always fits, even when q.bit_length() is a multiple of w.
        limbs = -(-q.bit_length() // w) + 1
        self.base_bits = w
        self.mask = np.int64(mask)
        self.limbs = limbs
        self.num_primes = k
        self.m_limbs = np.asarray(
            [
                [((q // p) >> (j * w)) & mask for j in range(limbs)]
                for p in primes
            ],
            dtype=np.uint64,
        )
        self.q_limbs = np.asarray(
            [(q >> (j * w)) & mask for j in range(limbs)], dtype=np.int64
        )
        # Lower-bound reciprocals: shift chosen so sum_i y_i*recips[i]
        # stays under 2^63 (y_i < q_i and recips[i] <= 2^s/q_i).
        shift = 63 - k.bit_length()
        self.recip_shift = np.uint64(shift)
        self.recips = np.asarray(
            [(1 << shift) // p for p in primes], dtype=np.uint64
        )


class _NumpyNttPlan(NttPlan):
    """Precomputed bit-reversal permutation plus per-stage twiddle tables.

    Stage tables hold w_len^k for k < length/2 exactly as the reference
    iterative NTT generates them, so butterfly outputs match the python
    backend bit for bit.
    """

    def __init__(self, backend: "NumpyBackend", n: int, q: int, root: int):
        self.backend = backend
        self.n = n
        self.q = q
        self.n_inv = mod_inverse(n, q)
        self.perm = self._bit_reverse_indices(n)
        self.fwd_stages = self._stage_tables(root)
        self.inv_stages = self._stage_tables(mod_inverse(root, q))

    @staticmethod
    def _bit_reverse_indices(n: int):
        out = list(range(n))
        j = 0
        for i in range(1, n):
            bit = n >> 1
            while j & bit:
                j ^= bit
                bit >>= 1
            j |= bit
            if i < j:
                out[i], out[j] = out[j], out[i]
        return np.asarray(out, dtype=np.intp)

    def _stage_tables(self, base: int):
        n, q = self.n, self.q
        small = q < _DIRECT_LIMIT
        stages = []
        length = 2
        while length <= n:
            w_len = pow(base, n // length, q)
            half = length // 2
            tbl = [1] * half
            for k in range(1, half):
                tbl[k] = tbl[k - 1] * w_len % q
            w = np.asarray(tbl, dtype=np.uint64)
            if small:
                stages.append((w, None, None))
            else:
                sh = [(t << 64) // q for t in tbl]
                stages.append(
                    (
                        w,
                        np.asarray([s >> 32 for s in sh], dtype=np.uint64),
                        np.asarray([s & 0xFFFFFFFF for s in sh], dtype=np.uint64),
                    )
                )
            length <<= 1
        return stages

    def _transform(self, vec, stages, normalize=True):
        """Transform the last axis; rows of a stacked input stay independent.

        Harvey-style lazy butterflies: stage values live in [0, 2q), the
        twiddle product uses a carry-free quotient estimate (off by at most
        2, keeping remainders under 4q < 2^64 for q < 2^62), and a single
        final pass normalizes into [0, q). All integer, hence bit-exact.
        With ``normalize=False`` the output stays in [0, 2q) — valid only
        when the caller follows with a reducing pointwise multiply.
        """
        q = np.uint64(self.q)
        # Fancy indexing copies (so in-place below is safe) but on stacked
        # input it returns an axis-moved layout whose reshape would copy
        # again and drop the butterfly writes — force C order.
        a = np.ascontiguousarray(vec[..., self.perm])
        if self.q < _DIRECT_LIMIT:
            for stage, (w, _, _) in enumerate(stages):
                half = w.shape[0]
                block = a.reshape(-1, 2 * half)
                u = block[:, :half]
                x = block[:, half:]
                v = x if stage == 0 else (x * w) % q
                s = _cond_sub(u + v, q)
                block[:, half:] = np.minimum(u - v, u + (q - v))
                block[:, :half] = s
            return a
        two_q = np.uint64(2 * self.q)
        for stage, (w, w_sh_h, w_sh_l) in enumerate(stages):
            half = w.shape[0]
            block = a.reshape(-1, 2 * half)
            u = block[:, :half]  # in [0, 2q)
            x = block[:, half:]
            if stage == 0:
                v = x  # first stage twiddle is always 1
            else:
                # Lazy Shoup: the quotient estimate drops the low-limb carry
                # (underestimate <= 2) on top of Shoup's slack of 1, so the
                # remainder lies in [0, 4q); one conditional lands it in [0, 2q).
                xh = x >> _S32
                xl = x & _M32
                q_hat = (
                    xh * w_sh_h + ((xh * w_sh_l) >> _S32) + ((xl * w_sh_h) >> _S32)
                )
                r = x * w - q_hat * q
                v = np.minimum(r, r - two_q)
            s = u + v  # < 4q
            d = u + (two_q - v)  # in (0, 4q)
            block[:, :half] = np.minimum(s, s - two_q)
            block[:, half:] = np.minimum(d, d - two_q)
        if normalize:
            return np.minimum(a, a - q)  # [0, 2q) -> [0, q)
        return a

    def forward(self, vec):
        return self._transform(vec, self.fwd_stages)

    def forward_many(self, vecs, normalize=False):
        """All forward transforms as one stacked pass; unless normalized,
        rows may be unreduced residues in [0, 2q) per the base-class
        contract."""
        return self._transform(_as_stack(vecs), self.fwd_stages, normalize)

    def inverse(self, vec):
        out = self._transform(vec, self.inv_stages)
        return self.backend.scalar_mul(out, self.n_inv, self.q)

    def inverse_unscaled(self, vec):
        """Inverse transform WITHOUT the 1/n factor (caller folds it in);
        output may be unreduced per the base-class contract."""
        return self._transform(vec, self.inv_stages, normalize=False)

    def inverse_unscaled_many(self, vecs):
        """All unscaled inverse transforms as one stacked pass (unreduced
        outputs, same contract as :meth:`inverse_unscaled`)."""
        return self._transform(_as_stack(vecs), self.inv_stages, normalize=False)


class _NumpyBackendImpl(ComputeBackend):
    name = "numpy"

    def __init__(self):
        self._mod_contexts: dict[int, _ModContext] = {}

    def supports_modulus(self, q: int) -> bool:
        return 1 < q < _MODULUS_LIMIT

    def _ctx(self, q: int) -> _ModContext:
        ctx = self._mod_contexts.get(q)
        if ctx is None:
            ctx = self._mod_contexts[q] = _ModContext(q)
        return ctx

    # -- vectors -----------------------------------------------------------

    def asvec(self, values: Sequence[int], q: int):
        if isinstance(values, np.ndarray):
            if values.dtype == np.uint64:
                arr = values
            elif np.issubdtype(values.dtype, np.integer):
                # Signed arrays would wrap on an unsafe uint64 cast; reduce
                # in the signed domain first (exact: q < 2^62 fits int64 and
                # np.remainder is non-negative).
                return np.remainder(values, q).astype(np.uint64)
            else:
                return np.asarray(
                    [int(v) % q for v in values.tolist()], dtype=np.uint64
                )
        else:
            try:
                arr = np.asarray(values, dtype=np.uint64)
            except (OverflowError, TypeError, ValueError):
                try:  # negative entries (noise draws): the signed branch above
                    return self.asvec(np.asarray(values, dtype=np.int64), q)
                except (OverflowError, TypeError, ValueError):
                    # >= 2^63 in magnitude (delta-scaled coefficients built
                    # by the python path): reduce exactly first.
                    return np.asarray(
                        [int(v) % q for v in values], dtype=np.uint64
                    )
        if arr.size and int(arr.max()) >= q:
            arr = np.remainder(arr, np.uint64(q))
        return arr

    def tolist(self, vec) -> list[int]:
        return vec.tolist()  # ndarray.tolist() yields plain Python ints

    def veclen(self, vec) -> int:
        return int(vec.shape[0])

    def eq(self, a, b) -> bool:
        return bool(np.array_equal(a, b))

    def stack(self, vecs):
        return _as_stack(vecs)

    # -- elementwise -------------------------------------------------------

    def add(self, a, b, q):
        return _cond_sub(a + b, np.uint64(q))

    def sub(self, a, b, q):
        q = np.uint64(q)
        # a - b wraps huge when a < b; a + (q - b) wraps only when a >= b.
        return np.minimum(a - b, a + (q - b))

    def neg(self, a, q):
        q = np.uint64(q)
        return np.where(a == 0, a, q - a)

    def mul(self, a, b, q):
        if q < _DIRECT_LIMIT:
            return (a * b) % np.uint64(q)
        ctx = self._ctx(q)
        qv = ctx.q
        lo = a * b  # low 64 bits
        hi = _mulhi64(a >> _S32, a & _M32, b >> _S32, b & _M32)
        # a*b mod q = (hi * (2^64 mod q) + lo) mod q
        r = _shoup_mulmod(hi, ctx.c64, ctx.c64_sh_h, ctx.c64_sh_l, qv)
        return _cond_sub(r + np.remainder(lo, qv), qv)

    def mul_rows(self, rows, vec, q):
        return self.mul(_as_stack(rows), vec, q)  # vec broadcasts over rows

    def inner_product(self, a, b, q):
        a, b = _as_stack(a), _as_stack(b)
        if a.shape != b.shape:
            raise ValueError(
                f"inner product of {a.shape[0]} rows against {b.shape[0]}"
            )
        if q < _DIRECT_LIMIT:
            terms = a * b  # a < 2q, b < q: every product is below 2q^2
            bound = 2 * q * q
        else:
            terms = self.mul(a, b, q)  # exact for the lazy rows of a
            bound = q
        qv = np.uint64(q)
        while True:
            # One reduction per chunk of as many terms as 64 bits hold.
            chunk = (1 << 64) // bound
            rows = terms.shape[0]
            if rows <= chunk:
                return terms.sum(axis=0) % qv
            full = rows - rows % chunk
            sums = terms[:full].reshape(-1, chunk, terms.shape[1]).sum(axis=1)
            terms = np.concatenate((sums, terms[full:])) % qv
            bound = q  # partial sums and leftover terms are canonical now

    def scalar_mul(self, a, scalar, q):
        scalar %= q
        if q < _DIRECT_LIMIT:
            return (a * np.uint64(scalar)) % np.uint64(q)
        w, w_sh_h, w_sh_l = _scalar_shoup(scalar, q)
        return _shoup_mulmod(a, w, w_sh_h, w_sh_l, np.uint64(q))

    def max_value(self, vec) -> int:
        return int(vec.max()) if vec.size else 0

    # -- structure ---------------------------------------------------------

    def index_array(self, indices):
        return np.asarray(list(indices), dtype=np.intp)

    def permute(self, vec, index):
        return vec[index]

    def automorphism(self, vec, galois_element, q):
        n = vec.shape[0]
        qv = np.uint64(q)
        idx = (np.arange(n, dtype=np.int64) * galois_element) % (2 * n)
        wrap = idx >= n
        targets = np.where(wrap, idx - n, idx)
        values = np.where(wrap, self.neg(vec, q), vec)
        out = np.empty(n, dtype=np.uint64)
        out[targets] = values  # X -> X^g is a bijection: no collisions
        return out

    def decompose(self, vec, base_bits, num_digits, q):
        mask = np.uint64((1 << base_bits) - 1)
        shift = np.uint64(base_bits)
        digits = []
        work = vec
        for _ in range(num_digits):
            digits.append(work & mask)
            work = work >> shift
        return digits

    def crt_lift(self, residues, primes):
        x, product = residues[0], primes[0]
        for r, p in zip(residues[1:], primes[1:]):
            pv = np.uint64(p)
            # (r - x) mod p as r + (p - x mod p), below 2p; scalar_mul
            # reduces it times P^-1 exactly in either regime, and
            # x + P·t < P·p <= prod(primes) < 2^62.
            t = self.scalar_mul(r + (pv - x % pv), mod_inverse(product % p, p), p)
            x = x + np.uint64(product) * t
            product *= p
        return x

    # -- wire codec ---------------------------------------------------------

    def pack_le(self, limbs, limb_bytes, width):
        if len(limbs) == 1:
            lanes = limbs[0].astype("<u8")  # a reduced vector: one 8-byte lane
        else:
            lanes = np.stack(limbs, axis=1).astype(f"<u{limb_bytes}")
        raw = lanes.view(np.uint8).reshape(lanes.shape[0], -1)
        return raw[:, :width].tobytes()

    def unpack_le(self, data, width, moduli):
        raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
        if width <= 8:
            lanes = np.zeros((raw.shape[0], 8), dtype=np.uint8)
            lanes[:, :width] = raw
            values = lanes.view("<u8").ravel().astype(np.uint64)
            return [self.asvec(values, q) for q in moduli]
        if 255 * width * max(moduli) < 1 << 64:
            # Wider than a lane: sum_j byte_j * (256^j mod q) stays below
            # 2^64 for every modulus, so one (n, width) @ (width, k)
            # product and a reduction per column finish the job.
            sums = raw.astype(np.uint64) @ _byte_power_table(width, tuple(moduli))
            return [sums[:, i] % np.uint64(q) for i, q in enumerate(moduli)]
        exact = _PY_FALLBACK.unpack_le(data, width, moduli)
        return [self.asvec(values, q) for values, q in zip(exact, moduli)]

    # -- RNS base conversion -----------------------------------------------

    def make_rns_digit_plan(self, primes, q, base_bits):
        k = len(primes)
        if any(p >= _DIRECT_LIMIT for p in primes):
            return None  # y_i must fit 31 bits for lane-safe accumulation
        # Limb accumulator bound: k products of y_i (< 2^31) by a 2^w limb
        # must stay under 2^62 so the int64 carry sweep cannot overflow.
        if 31 + base_bits + max(1, (k - 1).bit_length()) > 62:
            return None
        return _NumpyRnsDigitPlan(primes, q, base_bits)

    def rns_digit_split(self, ys, plan, num_digits):
        w = plan.base_bits
        mask = plan.mask
        y = np.stack(ys)  # (k, n) uint64, each row reduced mod its prime
        # beta = alpha or alpha - 1, never more (lower-bound fixed point).
        beta = (
            (y * plan.recips[:, None]).sum(axis=0) >> plan.recip_shift
        ).astype(np.int64)
        # Lazy limbs of sum_i y_i * (Q/q_i): (n, k) @ (k, L), lane-exact.
        acc = (y.T @ plan.m_limbs).astype(np.int64)
        n = acc.shape[0]
        # x' = sum - beta*Q via one signed carry sweep; x' = x or x + Q.
        carry = np.zeros(n, dtype=np.int64)
        cand = []
        for j in range(plan.limbs):
            t = carry + acc[:, j] - beta * plan.q_limbs[j]
            cand.append(t & mask)
            carry = t >> np.int64(w)
        # Exact correction: subtract Q once more iff x' >= Q (no borrow).
        borrow = np.zeros(n, dtype=np.int64)
        corrected = []
        for j in range(plan.limbs):
            t = cand[j] - plan.q_limbs[j] + borrow
            corrected.append(t & mask)
            borrow = t >> np.int64(w)
        overshoot = borrow == 0
        digits = []
        for j in range(num_digits):
            if j < plan.limbs:
                digits.append(
                    np.where(overshoot, corrected[j], cand[j]).astype(np.uint64)
                )
            else:  # x < Q < 2^(limbs*w): everything above is zero
                digits.append(np.zeros(n, dtype=np.uint64))
        return digits

    # -- transforms --------------------------------------------------------

    def make_ntt_plan(self, n, q, root):
        return _NumpyNttPlan(self, n, q, root)

    # -- linear algebra ----------------------------------------------------

    def asmatrix(self, rows, q):
        if 2 * int(q).bit_length() > 64:
            # A single q^2-sized product overflows uint64, so matvec_mod
            # would fall back to exact Python every call: keep the list
            # representation up front and skip per-call conversion.
            return _PY_FALLBACK.asmatrix(rows, q)
        if isinstance(rows, np.ndarray) and rows.dtype == np.uint64:
            return rows
        return np.asarray(
            [[int(w) % q for w in row] for row in rows], dtype=np.uint64
        )

    def matvec_mod(self, matrix, vec, q):
        # Dot products accumulate n_in terms of q^2-sized products; chunk the
        # columns so partial sums stay below 2^64, or run the exact Python
        # path when even a single product would overflow.
        qbits = int(q).bit_length()
        headroom = 64 - 2 * qbits
        if headroom < 0:
            return _PY_FALLBACK.matvec_mod(matrix, vec, q)
        mat = self.asmatrix(matrix, q)
        n_in = mat.shape[1] if mat.ndim == 2 else 0
        if n_in == 0:
            return []
        qv = np.uint64(q)
        v = self.asvec(vec, q)
        chunk = max(1, 1 << min(headroom, 30))
        acc = np.zeros(mat.shape[0], dtype=np.uint64)
        for start in range(0, n_in, chunk):
            part = mat[:, start : start + chunk] @ v[start : start + chunk]
            acc = self.add(acc, np.remainder(part, qv), q)
        return self.tolist(acc)


NumpyBackend = None if np is None else _NumpyBackendImpl
