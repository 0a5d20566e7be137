"""Vectorized ``uint64`` backend with Barrett/Shoup residue arithmetic.

All coefficients live in flat ``uint64`` ndarrays. Pointwise kernels pick
one of two reduction regimes per modulus:

* **direct** (q < 2^31): residue products fit in 64 bits, so ``a * b % q``
  is exact with plain ufuncs. This covers the chain primes of the RNS
  parameter sets and small test moduli.
* **Shoup** (2^31 <= q < 2^62): products overflow 64 bits, so we compute
  the full 128-bit product from 32-bit limbs and reduce with Shoup's
  precomputed-quotient trick: for a constant w with
  w' = floor(w * 2^64 / q), the quotient estimate
  q_hat = mulhi64(x, w') satisfies x*w - q_hat*q in [0, 2q) for ANY
  x < 2^64, so one conditional subtraction finishes the job. A
  variable*variable product reduces its high word the same way against
  the constant 2^64 mod q.

The NTT (:class:`_NumpyNttPlan`) is one kernel for a whole *chain* of
residue rings — a ``(rings, rows, n)`` stack per call, per-ring moduli and
twiddles broadcast down the ring axis — and never divides: every
multiplier it meets (twiddles, the negacyclic twist, the scaled untwist)
is a constant with a precomputed Shoup companion, and its butterflies
are Harvey-style *lazy*, in 32-bit Shoup arithmetic when every modulus
is below 2^30 (:class:`_NarrowLanes`, where the bound is argued) and in
the 64-bit form otherwise (:class:`_WideLanes`). ``%`` therefore remains
only in pointwise operations, where the modulus is one scalar, and in
building tables. A final pass lands the output in [0, q), or in [0, 2q)
for callers that follow with a reducing product.

Everything is exact integer arithmetic — no floats — so results agree
bit for bit with the python reference backend (enforced by
``tests/test_backend_parity.py`` and ``tests/test_chain_ntt.py``). Moduli
at or above 2^62 are rejected by :meth:`supports_modulus`; the registry
then falls back to python.

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
_NARROW_LIMIT = 1 << 30  # q below this: the NTT's lazy values (< 4q) fit 32 bits
_TRANSPOSED_BLOCK = 32  # butterfly blocks up to this size run transposed

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


@functools.lru_cache(maxsize=64)
def _automorphism_scatter(n: int, galois_element: int):
    """Where X -> X^g sends coefficient i of a degree-n element, and
    whether X^n = -1 flips its sign on the way: (targets, wrap), a
    function of (n, g) alone, built once instead of once per rotation
    and ring. Shared between callers, hence read-only."""
    index = (np.arange(n, dtype=np.int64) * galois_element) % (2 * n)
    wrap = index >= n
    targets = np.where(wrap, index - n, index)
    targets.flags.writeable = wrap.flags.writeable = False
    return targets, wrap


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


def _ring_constant(values):
    """Per-ring constants — one each, or a row of k — shaped to broadcast
    against stage operands: ``(rings, 1, k, 1)``, or ``(1, k, 1)`` for a
    chain of one."""
    values = np.asarray(values, dtype=np.uint64)
    lead = values.shape[:1] if values.shape[0] > 1 else ()
    return values.reshape(*lead, 1, -1, 1)


class _NarrowLanes:
    """Butterfly arithmetic for a chain whose moduli are all below 2^30.

    Every value the transform holds stays below 4q < 2^32, so the twiddle
    product is a 32-bit Shoup multiply held entirely in ``uint64``: with
    w' = floor(w * 2^32 / q), ``x*w - ((x*w') >> 32)*q`` lies in [0, 2q)
    for ANY x < 2^32 (the quotient estimate is short by at most 1), and
    neither product overflows (x*w' < 2^64, x*w < 2^62). Harvey's lazy
    butterfly then needs one conditional subtract, on u, per stage: from
    u, x in [0, 4q) it leaves u' + v and u' - v + 2q, both in [0, 4q).
    No ``%`` and no ``//``: per-ring moduli broadcast down the ring axis,
    where a remainder by an *array* of moduli would be a hardware divide
    per element.

    Operands are views ``(rings, blocks, half, run)``; constants are
    shaped ``(rings, 1, k, 1)`` to broadcast against them (a chain of one
    drops the ring axis from both: fewer dimensions, cheaper calls).
    """

    def __init__(self, moduli):
        self.q = _ring_constant(moduli)
        self.two_q = self.q * np.uint64(2)

    def table(self, w):
        """A constant multiplier table with its Shoup companion."""
        return w, (w << _S32) // self.q  # w < 2^30: the shift cannot overflow

    def mul(self, x, table, out, tmp):
        """out = x*w mod q lazily, in [0, 2q), for x < 2^32 (out may be x)."""
        w, w_sh = table
        np.multiply(x, w_sh, out=tmp)
        tmp >>= _S32
        tmp *= self.q
        np.multiply(x, w, out=out)
        out -= tmp

    def butterfly(self, u, x, table, s1, s2):
        """(u, x) <- (u + w*x, u - w*x), in place, values in [0, 4q)."""
        if table is None:  # twiddle 1 (first stage): operands are below 2q
            np.subtract(u, x, out=s1)
            u += x
            np.add(s1, self.two_q, out=x)
            return
        # u and x are strided views, s1 and s2 contiguous: every pass that
        # can runs on the scratch, and each view is read twice, written once.
        self.mul(x, table, out=s2, tmp=s1)
        np.subtract(u, self.two_q, out=s1)
        np.minimum(u, s1, out=s1)  # u in [0, 2q)
        np.add(s1, s2, out=u)
        s1 += self.two_q
        np.subtract(s1, s2, out=x)

    def settle(self, a, tmp):
        """Stage values [0, 4q) -> the lazy output range [0, 2q)."""
        np.subtract(a, self.two_q, out=tmp)
        np.minimum(a, tmp, out=a)


class _WideLanes:
    """Butterfly arithmetic for a chain with a modulus in [2^30, 2^62).

    Same interface and layout as :class:`_NarrowLanes`, 64-bit products:
    the twiddle product takes the full-width Shoup quotient from 32-bit
    limbs, dropping the low-limb carry (an underestimate of at most 2 on
    top of Shoup's 1), so the remainder lies in [0, 4q) < 2^64 and one
    conditional subtract lands it in [0, 2q) — where every stage value
    stays.
    """

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        self.q = _ring_constant(moduli)
        self.two_q = self.q * np.uint64(2)

    def table(self, w):
        """A constant multiplier table with the two limbs of
        w' = floor(w * 2^64 / q) (128-bit numerators: Python ints)."""
        per_ring = w.reshape(len(self.moduli), -1).tolist()
        sh = np.asarray(
            [[(v << 64) // q for v in row] for row, q in zip(per_ring, self.moduli)],
            dtype=object,
        ).reshape(w.shape)
        return w, (sh >> 32).astype(np.uint64), (sh & 0xFFFFFFFF).astype(np.uint64)

    def mul(self, x, table, out, tmp):
        """out = x*w mod q lazily, in [0, 2q), for any x < 2^64."""
        w, w_sh_h, w_sh_l = table
        xh = x >> _S32
        xl = x & _M32
        q_hat = xh * w_sh_h + ((xh * w_sh_l) >> _S32) + ((xl * w_sh_h) >> _S32)
        np.multiply(x, w, out=tmp)
        tmp -= q_hat * self.q  # in [0, 4q)
        np.subtract(tmp, self.two_q, out=out)
        np.minimum(out, tmp, out=out)

    def butterfly(self, u, x, table, s1, s2):
        """(u, x) <- (u + w*x, u - w*x), in place, values in [0, 2q)."""
        if table is None:  # twiddle 1 (first stage): x is below 2q already
            v = x
        else:
            self.mul(x, table, out=s2, tmp=s1)
            v = s2
        np.add(u, v, out=s1)  # < 4q
        np.subtract(self.two_q, v, out=s2)
        s2 += u  # in (0, 4q)
        np.subtract(s1, self.two_q, out=u)
        np.minimum(u, s1, out=u)
        np.subtract(s2, self.two_q, out=x)
        np.minimum(x, s2, out=x)

    def settle(self, a, tmp):
        """Stage values are in the lazy output range [0, 2q) already."""


def _bit_reverse_indices(n: int):
    bits = n.bit_length() - 1
    index = np.arange(n, dtype=np.intp)
    out = np.zeros(n, dtype=np.intp)
    for bit in range(bits):
        out |= ((index >> bit) & 1) << (bits - 1 - bit)
    return out


class _NumpyNttPlan(NttPlan):
    """One kernel for every residue ring of a chain.

    The walk is the reference iterative Cooley-Tukey (bit-reversal, then
    stages of half = 1, 2, ... n/2 with twiddles w_len^k), so outputs
    match the python backend bit for bit; what differs is the layout:

    * the whole ``(rings, rows, n)`` stack goes through each ufunc at
      once, per-ring moduli and twiddles broadcasting down the ring axis;
    * the short stages (block = 2*half <= 32) run on a *transposed*
      ``(32, n/32)`` view of each row — the transpose is folded into the
      bit-reversal gather — where a butterfly's operands are whole rows of
      that view: every ufunc walks runs of n/32 contiguous elements
      instead of 1 to 16. One transpose copy then restores natural order
      for the long stages. Below 64 points there is no run worth walking
      and every stage takes the natural layout;
    * the negacyclic twist rides on the gathered array (its table is
      stored in gather order) and the untwist, with 1/n folded in, is the
      last pass.

    The arithmetic is :class:`_NarrowLanes` when every modulus is below
    2^30 and :class:`_WideLanes` otherwise; neither divides.
    """

    def __init__(self, backend, n: int, moduli, roots, twists):
        rings = len(moduli)
        if not (len(roots) == rings and (twists is None or len(twists) == rings)):
            raise ValueError("one root (and twist) per modulus")
        self.n = n
        self.rings = rings
        self.lanes = (
            _NarrowLanes if max(moduli) < _NARROW_LIMIT else _WideLanes
        )(moduli)
        self.lead = self.lanes.q.shape[:-3]  # (rings,), or () for a chain of one
        self.block = _TRANSPOSED_BLOCK if n >= 2 * _TRANSPOSED_BLOCK else 1
        self.gather = (
            _bit_reverse_indices(n).reshape(n // self.block, self.block).T.ravel()
        )

        def powers(bases, count):
            """bases[i]^k mod moduli[i] for k < count, a row per ring, by
            doubling: log2(count) vector products, not count scalar ones."""
            out = np.ones((rings, count), dtype=np.uint64)
            for row, base, q in zip(out, bases, moduli):
                done = 1
                while done < count:
                    row[done : 2 * done] = backend.scalar_mul(
                        row[:done], pow(base, done, q), q
                    )
                    done *= 2
            return out

        def stages(bases):
            """Per stage (half, twiddle table): w_len^k for k < half."""
            table = powers(bases, max(n // 2, 1))
            out, half = [], 1
            while half < n:  # no stage at all for n = 1
                w = np.ascontiguousarray(table[:, :: n // 2 // half])
                # w_len^0: the first stage multiplies by 1
                out.append(
                    (half, self.lanes.table(_ring_constant(w)) if half > 1 else None)
                )
                half *= 2
            return out

        def inverses(values):
            return [mod_inverse(v, q) for v, q in zip(values, moduli)]

        self.fwd_stages = stages(roots)
        self.inv_stages = stages(inverses(roots))
        # Going in: psi^k, in gather order. Coming out: psi^-k / n, or the
        # bare 1/n of a cyclic plan.
        n_inv = inverses([n] * rings)
        if twists is None:
            self.twist = None
            untwist = np.asarray(n_inv, dtype=np.uint64)[:, None]
        else:
            self.twist = self.lanes.table(
                _ring_constant(powers(twists, n)[:, self.gather])
            )
            untwist = np.stack(
                [
                    backend.scalar_mul(row, scale, q)
                    for row, scale, q in zip(
                        powers(inverses(twists), n), n_inv, moduli
                    )
                ]
            )
        self.untwist = self.lanes.table(_ring_constant(untwist))

    def _as_chain(self, stack):
        """The caller's ``[ring][row]`` stack as one (rings, rows, n) array."""
        if not isinstance(stack, np.ndarray):
            stack = np.asarray([list(rows) for rows in stack], dtype=np.uint64)
        if stack.shape[:1] != (self.rings,):
            raise ValueError(
                f"expected a stack for each of {self.rings} residue rings, "
                f"got {len(stack)}"
            )
        if stack.size == 0:
            return np.empty((self.rings, 0, self.n), dtype=np.uint64)
        if stack.ndim != 3:
            raise ValueError(f"expected [ring][row] vectors, got shape {stack.shape}")
        if stack.shape[2] != self.n:
            raise ValueError(
                f"expected rows of {self.n} values, got {stack.shape[2]}"
            )
        return stack

    def _transform(self, stack, stages, twist, untwist, lazy):
        src = self._as_chain(stack)
        lanes, lead = self.lanes, self.lead
        rings, rows, n = src.shape
        if rows == 0:
            return src
        a = np.take(src, self.gather, axis=-1).reshape(-1)  # fresh, contiguous
        scratch = np.empty_like(a)
        whole = (*lead, rows, n, 1)
        if twist is not None:
            lanes.mul(a.reshape(whole), twist, a.reshape(whole), scratch.reshape(whole))
        run = n // self.block if self.block > 1 else 1
        for half, table in stages:
            if run > 1 and half == self.block:
                # Short stages done: back to natural order, once — into
                # the scratch, which then trades places with the stack.
                np.copyto(
                    scratch.reshape(-1, run, self.block),
                    a.reshape(-1, self.block, run).transpose(0, 2, 1),
                )
                a, scratch = scratch, a
                run = 1
            pairs = a.reshape(*lead, -1, 2, half, run)
            halves = scratch.reshape(2, *lead, pairs.shape[-4], half, run)
            lanes.butterfly(
                pairs[..., 0, :, :], pairs[..., 1, :, :], table, halves[0], halves[1]
            )
        out, tmp = a.reshape(whole), scratch.reshape(whole)
        if untwist is not None:
            lanes.mul(out, untwist, out, tmp)
        else:
            lanes.settle(out, tmp)
        if not lazy:
            np.subtract(out, lanes.q, out=tmp)
            np.minimum(out, tmp, out=out)  # [0, 2q) -> [0, q)
        return a.reshape(rings, rows, n)

    def forward(self, stack, lazy=False):
        return self._transform(stack, self.fwd_stages, self.twist, None, lazy)

    def inverse(self, stack):
        return self._transform(stack, self.inv_stages, None, self.untwist, False)


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

    def automorphism(self, rows, galois_element, moduli):
        rows = _as_stack(rows)
        targets, wrap = _automorphism_scatter(rows.shape[1], galois_element)
        q = np.asarray(moduli, dtype=np.uint64)[:, None]
        negated = np.where(rows == 0, rows, q - rows)
        out = np.empty_like(rows)
        # X -> X^g is a bijection on exponents: no collisions.
        out[:, targets] = np.where(wrap, negated, rows)
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

    def make_ntt_plan(self, n, moduli, roots, twists=None):
        return _NumpyNttPlan(self, n, moduli, roots, twists)

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
