"""Number-theoretic transforms over Z_q.

Two flavours are provided:

* :class:`Ntt` — the plain cyclic NTT (X^n - 1), used by the BFV batch
  encoder to map plaintext slot values to polynomial coefficients.
* :class:`NegacyclicNtt` — the negacyclic NTT (X^n + 1), used for fast
  multiplication in the RLWE ciphertext ring R_q = Z_q[X]/(X^n + 1).

Root finding and psi-twisting live here; the transform kernel itself is
delegated to the active compute backend (:mod:`repro.backend`): iterative
Cooley-Tukey over ``list[int]`` on the python backend, precomputed
twiddle-table stages over ``uint64`` ndarrays on the numpy backend. Both
produce bit-identical outputs.

The public ``forward``/``inverse``/``multiply`` methods keep the seed's
list-in/list-out contract; the ``*_vec`` variants operate on backend-native
vectors and are what :class:`repro.he.polynomial.RingPoly` uses so the hot
path never round-trips through Python lists.
"""

from __future__ import annotations

from repro.backend import ComputeBackend, backend_for
from repro.crypto.modmath import mod_inverse, primitive_root_of_unity


class Ntt:
    """Cyclic NTT of size n over Z_q (requires q ≡ 1 mod n)."""

    def __init__(
        self,
        n: int,
        q: int,
        root: int | None = None,
        backend: ComputeBackend | None = None,
    ):
        if n & (n - 1):
            raise ValueError("NTT size must be a power of two")
        self.n = n
        self.q = q
        self.backend = backend or backend_for(q)
        self.root = root if root is not None else primitive_root_of_unity(n, q)
        self.root_inv = mod_inverse(self.root, q)
        self.n_inv = mod_inverse(n, q)
        self._plan = self.backend.make_ntt_plan(n, q, self.root)

    def _check_length(self, values) -> None:
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(values)}")

    # -- backend-native API -------------------------------------------------

    def forward_vec(self, vec):
        return self._plan.forward(vec)

    def inverse_vec(self, vec):
        return self._plan.inverse(vec)

    # -- list API (reference semantics) ------------------------------------

    def forward(self, values: list[int]) -> list[int]:
        self._check_length(values)
        be = self.backend
        return be.tolist(self.forward_vec(be.asvec(values, self.q)))

    def inverse(self, values: list[int]) -> list[int]:
        self._check_length(values)
        be = self.backend
        return be.tolist(self.inverse_vec(be.asvec(values, self.q)))


class NegacyclicNtt:
    """Negacyclic NTT for R_q = Z_q[X]/(X^n + 1) (requires q ≡ 1 mod 2n).

    Uses the standard psi-twisting: multiply coefficient i by psi^i before a
    cyclic NTT, where psi is a primitive 2n-th root of unity, and by
    psi^{-i} after the inverse transform. Pointwise products in the
    transformed domain then realize negacyclic convolution.
    """

    def __init__(self, n: int, q: int, backend: ComputeBackend | None = None):
        if n & (n - 1):
            raise ValueError("ring degree must be a power of two")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} is not NTT friendly for degree {n}")
        self.n = n
        self.q = q
        self.backend = backend or backend_for(q)
        self.psi = primitive_root_of_unity(2 * n, q)
        self.psi_inv = mod_inverse(self.psi, q)
        self._ntt = Ntt(n, q, root=self.psi * self.psi % q, backend=self.backend)
        self._psi_powers = self.backend.asvec(self._powers(self.psi), q)
        # 1/n folded into the untwist table: the inverse transform then skips
        # its separate scaling pass (identical values, one fewer vector op).
        n_inv = self._ntt.n_inv
        self._psi_inv_scaled = self.backend.asvec(
            [p * n_inv % q for p in self._powers(self.psi_inv)], q
        )

    def _powers(self, base: int) -> list[int]:
        powers = [1] * self.n
        for i in range(1, self.n):
            powers[i] = powers[i - 1] * base % self.q
        return powers

    # -- backend-native API -------------------------------------------------

    def forward_vec(self, vec):
        if self.backend.veclen(vec) != self.n:
            raise ValueError(f"expected {self.n} coefficients")
        twisted = self.backend.mul(vec, self._psi_powers, self.q)
        return self._ntt.forward_vec(twisted)

    def inverse_vec(self, vec):
        if self.backend.veclen(vec) != self.n:
            raise ValueError(f"expected {self.n} values")
        coeffs = self._ntt._plan.inverse_unscaled(vec)
        return self.backend.mul(coeffs, self._psi_inv_scaled, self.q)

    def multiply_vec(self, a, b):
        """Negacyclic product of two backend-native coefficient vectors."""
        be = self.backend
        ta = be.mul(a, self._psi_powers, self.q)
        tb = be.mul(b, self._psi_powers, self.q)
        fa, fb = self._ntt._plan.forward_pair(ta, tb)
        return self.inverse_vec(be.mul(fa, fb, self.q))

    def multiply_shared_vec(self, shared, others):
        """Products shared*o for every vector in ``others``.

        The shared operand is twisted and transformed exactly once, and all
        forward transforms (1 + len(others)) land in a single batched plan
        call — likewise the inverse transforms — so a two-component
        ciphertext op (c0, c1 against one plaintext) costs one
        stacked forward and one stacked inverse instead of four and two
        separate transforms. Outputs are fully reduced and bit-identical to
        ``[multiply_vec(shared, o) for o in others]``.
        """
        be = self.backend
        q = self.q
        twisted = [
            be.mul(v, self._psi_powers, q) for v in (shared, *others)
        ]
        transformed = self._ntt._plan.forward_many(twisted)
        f_shared = transformed[0]
        products = [be.mul(f_shared, f, q) for f in transformed[1:]]
        untwisted = self._ntt._plan.inverse_unscaled_many(products)
        return [be.mul(v, self._psi_inv_scaled, q) for v in untwisted]

    def key_switch_inner_vec(self, digit_vecs, key0_evals, key1_evals):
        """Fused key-switch inner product (Σ_j d_j·k0_j, Σ_j d_j·k1_j).

        ``digit_vecs`` are coefficient-domain backend vectors; the key
        components arrive already in the evaluation domain (stored eval
        form, :meth:`forward_vec` output), so no key-side forward
        transforms happen here. All D digit forwards run in one stacked
        :meth:`~repro.backend.base.NttPlan.forward_many` pass, the D
        pointwise products accumulate *in the eval domain*, and a single
        two-vector unscaled inverse + untwist finishes both components:
        D + 2 transform rows instead of the 5D (3 forward + 2 inverse
        per digit) a per-digit multiply-accumulate loop costs.

        Bit-identical to that loop: the backend's ``mul`` is exact mod q
        for the unreduced ``forward_many`` outputs, modular addition is
        associative, and the inverse transform is linear, so accumulating
        before the inverse yields the same canonical residues as summing
        per-digit inverses.
        """
        be = self.backend
        q = self.q
        twisted = [be.mul(v, self._psi_powers, q) for v in digit_vecs]
        transformed = self._ntt._plan.forward_many(twisted)
        acc0 = acc1 = None
        for f, k0, k1 in zip(
            transformed, key0_evals, key1_evals, strict=True
        ):  # a digit/key count mismatch must not truncate silently
            p0 = be.mul(f, k0, q)
            p1 = be.mul(f, k1, q)
            acc0 = p0 if acc0 is None else be.add(acc0, p0, q)
            acc1 = p1 if acc1 is None else be.add(acc1, p1, q)
        untwisted = self._ntt._plan.inverse_unscaled_many([acc0, acc1])
        return (
            be.mul(untwisted[0], self._psi_inv_scaled, q),
            be.mul(untwisted[1], self._psi_inv_scaled, q),
        )

    # -- list API (reference semantics) ------------------------------------

    def forward(self, coeffs: list[int]) -> list[int]:
        be = self.backend
        return be.tolist(self.forward_vec(be.asvec(coeffs, self.q)))

    def inverse(self, values: list[int]) -> list[int]:
        be = self.backend
        return be.tolist(self.inverse_vec(be.asvec(values, self.q)))

    def multiply(self, a: list[int], b: list[int]) -> list[int]:
        """Negacyclic product of two coefficient vectors."""
        be = self.backend
        return be.tolist(
            self.multiply_vec(be.asvec(a, self.q), be.asvec(b, self.q))
        )
