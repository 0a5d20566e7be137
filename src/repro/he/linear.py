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
"""

from __future__ import annotations

import numpy as np

from repro.he.bfv import BfvContext, Ciphertext, GaloisKeys
from repro.he.encoder import BatchEncoder
from repro.he.polynomial import EvalPair


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
        component, and the sum is transformed back once. Diagonals are
        encoded a bounded block at a time so the working set stays a few
        hundred KB at any width.
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
        x = EvalPair.from_coeff(ct_x.c0, ct_x.c1)
        # A width-1 product rotates nothing and needs no key.
        keyed = x.keyed(ctx.rotation_keys(g, self._galois_keys)) if n_in > 1 else None
        # About 2^15 coefficients of encoded diagonals at a time, over all
        # residue rings: 2 rows at delphi_params, 128 at fast_params(256).
        block = max(1, (1 << 15) // (p.n * len(x.e0)))
        acc: EvalPair | None = None
        for stop in range(n_in, 0, -block):
            start = max(stop - block, 0)
            diagonals = self._diagonals(matrix, start, stop, n_in, n_out)
            # Replicate into the second row so both rows stay consistent.
            plains = ctx.plain_evals(
                encoder.encode_many([self._both_rows(d) for d in diagonals])
            )
            for k in range(stop - start - 1, -1, -1):
                plain = [rows[k] for rows in plains]
                if acc is None:
                    acc = x.times(plain)
                else:
                    acc = acc.rotated_plus(g, keyed, groups, p.decomp_bits, plain)
                    self.rotations_performed += 1
                self.plain_mults_performed += 1
            # Free this block's stacks before the next block allocates.
            del diagonals, plains
        assert acc is not None
        c0, c1 = acc.to_coeff()
        return Ciphertext(p, c0, c1)

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
