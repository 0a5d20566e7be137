"""Homomorphic linear-layer evaluation (Gazelle-style packed kernels).

The hybrid protocol's offline phase asks the server to compute ``W @ r`` on
an encrypted random vector ``r``. We implement the Halevi-Shoup diagonal
method for packed matrix-vector products — in Gazelle's output-rotation
(Horner) order, see :meth:`HomomorphicLinearEvaluator.matvec` — and
evaluate convolutions by
lowering them to a matrix-vector product over the flattened input (the
im2col/Toeplitz matrix). Gazelle's rotation-optimized convolution kernels
differ only in *cost*, never in the computed function; their operation
counts are modeled separately in :mod:`repro.he.costmodel`.

A server's weights are the same for every request, so the plaintext side
of a matvec — gathering the diagonals, encoding them, lifting them into
the ciphertext ring and transforming them — is done once per process:
:data:`_PLAIN_CACHE` keeps the evaluation-domain plaintexts of every
diagonal block, keyed by a digest of the matrix content and the ring
they live in (see :meth:`HomomorphicLinearEvaluator.matvec`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.he.bfv import BfvContext, Ciphertext, GaloisKeys
from repro.he.encoder import BatchEncoder
from repro.he.polynomial import EvalPair

# Bytes of cached plaintext stacks per process: a delphi_params 16-8-3
# MLP keeps ~1.2 MB, a fast_params(256) 16-128-3 one ~0.3 MB.
_PLAIN_CACHE_BUDGET = 32 << 20


class _PlainEvalCache:
    """LRU of evaluation-domain plaintext stacks, bounded in bytes.

    The get → ``move_to_end`` / insert → evict sequence is compound and the
    gateway's refill and selector threads both run matvecs, so it sits
    behind a lock like the NTT-context LRU; encoding happens outside it
    (two threads missing on one block both encode it, identically, and
    the second insert is a no-op). An entry larger than the whole budget
    is not kept. Entries are pure functions of their keys, so a forked
    child may use what it inherits; pool workers drop it anyway through
    :func:`repro.runtime.reset_process_state`.
    """

    def __init__(self):
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, stack, nbytes: int) -> None:
        with self._lock:
            if key in self._entries or nbytes > _PLAIN_CACHE_BUDGET:
                return
            self._entries[key] = (stack, nbytes)
            self._bytes += nbytes
            while self._bytes > _PLAIN_CACHE_BUDGET:
                _, (_, freed) = self._entries.popitem(last=False)
                self._bytes -= freed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def size(self) -> tuple[int, int]:
        """(entries, bytes)."""
        with self._lock:
            return len(self._entries), self._bytes


_PLAIN_CACHE = _PlainEvalCache()


def clear_plain_cache() -> None:
    """Drop every cached plaintext stack (tests, parameter sweeps, forks)."""
    _PLAIN_CACHE.clear()


def plain_cache_size() -> tuple[int, int]:
    """(entries, bytes) of the plaintext cache, for tests and probes."""
    return _PLAIN_CACHE.size()


def _matrix_digest(matrix) -> bytes:
    """Content digest of a weight matrix: dtype, shape and bytes of an
    array, the entries' integers of a list of rows."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(matrix, np.ndarray) and matrix.dtype != object:
        h.update(f"{matrix.dtype.str}{matrix.shape}".encode())
        h.update(matrix.tobytes())
    else:
        h.update(repr([[int(v) for v in row] for row in matrix]).encode())
    return h.digest()


def _frozen(stack, bound: int):
    """A read-only chain stack of values below ``bound``, and its bytes:
    on numpy the narrowest unsigned lane that holds them (``uint32`` for
    the lazy output of every chain prime below 2^31), on the python
    backend tuples (counted at a word per coefficient)."""
    if isinstance(stack, np.ndarray):
        lane = np.uint32 if bound <= 1 << 32 else np.uint64
        stack = stack.astype(lane, copy=False)
        stack.flags.writeable = False
        return stack, stack.nbytes
    stack = tuple(tuple(tuple(row) for row in rows) for rows in stack)
    return stack, 8 * sum(len(row) for rows in stack for row in rows)


class HomomorphicLinearEvaluator:
    """Server-side evaluator for encrypted matrix-vector products."""

    def __init__(self, ctx: BfvContext, encoder: BatchEncoder, galois_keys: GaloisKeys):
        self._ctx = ctx
        self._encoder = encoder
        self._galois_keys = galois_keys
        self.rotations_performed = 0
        self.plain_mults_performed = 0

    def _diagonals(self, matrix, start: int, stop: int, n_in: int, n_out: int):
        """Generalized diagonals start..stop-1, each padded to a full
        batching row and pre-rotated right by its own index: entry j of
        diagonal d is ``matrix[(j - d) % row_size][j % n_in]`` where that
        row exists, else 0 — rotating it left by d gives the textbook
        diagonal ``matrix[i][(i + d) % n_in]``.

        One fancy-index for the whole block when the matrix is an ndarray
        (see :meth:`_gatherable`); the list path keeps the reference loop.
        """
        t = self._encoder.params.t
        row_size = self._encoder.row_size
        if isinstance(matrix, np.ndarray):
            slots = np.arange(row_size)
            rows = (slots - np.arange(start, stop)[:, None]) % row_size
            values = matrix[np.minimum(rows, n_out - 1), slots % n_in]
            return np.where(rows < n_out, values % np.uint64(t), np.uint64(0))
        return [
            [
                matrix[(j - d) % row_size][j % n_in] % t
                if (j - d) % row_size < n_out
                else 0
                for j in range(row_size)
            ]
            for d in range(start, stop)
        ]

    def _gatherable(self, matrix):
        """The matrix as a ``uint64`` array whenever plaintexts live on a
        vectorized backend. ``asmatrix`` keeps lists from t = 2^32 up —
        its products would overflow a lane — but gathering a diagonal
        multiplies nothing, so that choice need not cost a Python loop
        per diagonal here. Entries a lane cannot hold stay a list."""
        if isinstance(matrix, np.ndarray) or self._encoder.backend.name == "python":
            return matrix
        try:
            return np.asarray(matrix, dtype=np.uint64)
        except OverflowError:  # negative or >= 2^64: the list path reduces
            return matrix

    @staticmethod
    def _both_rows(diag):
        """Replicate a row-sized diagonal into both batching rows."""
        if isinstance(diag, np.ndarray):
            return np.concatenate([diag, diag])
        return diag + diag

    def matvec(self, ct_x: Ciphertext, matrix) -> Ciphertext:
        """Homomorphically compute ``matrix @ x`` via the diagonal method.

        ``ct_x`` must encrypt x replicated to fill a batching row (see
        :meth:`pack_vector`); the matrix width must divide the row size.
        ``matrix`` is a 2D field matrix — list of rows or ndarray.

        Computes ``sum_d rotate^d(P_d * ct_x)`` in Horner form,
        ``acc = P_{w-1} * x; acc = rotate(acc) + P_d * x`` for d = w-2 …
        0, with ``P_d`` the d-th diagonal pre-rotated right by d
        (:meth:`_diagonals`) — the ciphertext the public ``rotate`` /
        ``mul_plain`` / ``+`` ops build in that order, residue for
        residue. Rotating the *accumulator* instead of the input means
        every key-switch error is added after the weights have been
        multiplied in, never scaled by them, which is what lets the
        parameter sets key-switch on few, wide digits. The working pair
        never leaves the evaluation domain
        (:class:`repro.he.polynomial.EvalPair`): the input is transformed
        once, every step is a permutation plus one inner product per
        component, and the sum is transformed back once.

        Diagonals are taken a bounded block at a time, each block's
        evaluation-domain plaintexts from the process-wide cache or, on
        a miss, gathered, encoded, range-checked, lifted, transformed and
        inserted (:meth:`_plain_block`). The key is the matrix content
        and the ring the plaintexts live in, so a model's weights are
        encoded once per process however many protocols lower them.
        """
        ctx, encoder = self._ctx, self._encoder
        p = ctx.params
        row_size = encoder.row_size
        n_out = len(matrix)
        n_in = len(matrix[0])
        if row_size % n_in != 0:
            raise ValueError(f"matrix width {n_in} must divide row size {row_size}")
        if n_out > row_size:
            raise ValueError(f"matrix height {n_out} exceeds row size {row_size}")

        g = encoder.galois_element_for_rotation(1)
        groups = p.digit_groups
        matrix = self._gatherable(matrix)
        ring = ct_x.c1.ring_ntt()
        # Everything the cached stacks depend on besides the weights: the
        # encoding (n, t, the plaintext backend) and the ring (its moduli
        # — q or the chain's primes — and backend).
        content = (
            _matrix_digest(matrix), p.n, p.t, encoder.backend.name,
            ring.moduli, ring.backend.name,
        )
        x = EvalPair.from_coeff(ct_x.c0, ct_x.c1)
        # A width-1 product rotates nothing and needs no key.
        keyed = x.keyed(ctx.rotation_keys(g, self._galois_keys)) if n_in > 1 else None
        # About 2^15 coefficients of encoded diagonals at a time, over all
        # residue rings: 2 rows at delphi_params, 128 at fast_params(256).
        block = max(1, (1 << 15) // (p.n * len(ring.moduli)))
        acc: EvalPair | None = None
        for stop in range(n_in, 0, -block):
            start = max(stop - block, 0)
            plains = self._plain_block(
                (*content, start, stop), matrix, start, stop, 2 * max(ring.moduli)
            )
            for k in range(stop - start - 1, -1, -1):
                plain = [rows[k] for rows in plains]
                if acc is None:
                    acc = x.times(plain)
                else:
                    acc = acc.rotated_plus(g, keyed, groups, p.decomp_bits, plain)
                    self.rotations_performed += 1
                self.plain_mults_performed += 1
            # An uncached block's stacks go before the next block allocates.
            del plains
        assert acc is not None
        c0, c1 = acc.to_coeff()
        return Ciphertext(p, c0, c1)

    def _plain_block(self, key, matrix, start: int, stop: int, bound: int):
        """Per residue ring, the read-only evaluation-domain stack of the
        diagonals start..stop-1 (a row each, lazily reduced: entries
        below ``bound``) — cached, or encoded now and inserted. Every
        plaintext passes ``plain_evals``' range check when it is encoded."""
        plains = _PLAIN_CACHE.get(key)
        if plains is None:
            n_in, n_out = len(matrix[0]), len(matrix)
            diagonals = self._diagonals(matrix, start, stop, n_in, n_out)
            # Replicate into the second row so both rows stay consistent.
            plains, nbytes = _frozen(
                self._ctx.plain_evals(
                    self._encoder.encode_many([self._both_rows(d) for d in diagonals])
                ),
                bound,
            )
            _PLAIN_CACHE.put(key, plains, nbytes)
        return plains

    def pack_vector(self, vector: list[int]) -> list[int]:
        """Replicate a vector periodically across a full batching row.

        With the replicated layout, a cyclic row rotation by d places
        x[(i+d) mod n_in] at slot i, which is exactly what the diagonal
        method consumes.
        """
        row_size = self._encoder.row_size
        n_in = len(vector)
        if row_size % n_in != 0:
            raise ValueError(f"vector length {n_in} must divide row size {row_size}")
        reps = row_size // n_in
        row = list(vector) * reps
        return row + row  # both batching rows

    @staticmethod
    def conv_as_matrix(
        weights: np.ndarray, in_shape: tuple[int, int, int], padding: int, modulus: int
    ) -> list[list[int]]:
        """Lower a (C_out, C_in, k, k) convolution to an explicit matrix.

        The returned matrix maps the flattened (C_in, H, W) input to the
        flattened (C_out, H, W) output, 'same' spatial size with the given
        zero padding (stride 1, as in the paper's downsample-free networks).
        """
        c_out, c_in, k, _ = weights.shape
        channels, height, width = in_shape
        if channels != c_in:
            raise ValueError("input channel mismatch")
        n_in = c_in * height * width
        n_out = c_out * height * width
        matrix = [[0] * n_in for _ in range(n_out)]
        for oc in range(c_out):
            for oy in range(height):
                for ox in range(width):
                    row = (oc * height + oy) * width + ox
                    for ic in range(c_in):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy + ky - padding
                                ix = ox + kx - padding
                                if 0 <= iy < height and 0 <= ix < width:
                                    col = (ic * height + iy) * width + ix
                                    matrix[row][col] = int(weights[oc, ic, ky, kx]) % modulus
        return matrix
