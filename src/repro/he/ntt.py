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
        self._automorphism_indices: dict[int, object] = {}

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
        fa, fb = self.forward_stack([a, b], lazy=True)
        return self.inverse_vec(self.backend.mul(fa, fb, self.q))

    def forward_stack(self, vecs, lazy=False):
        """Evaluation-domain forms of every coefficient vector, twisted and
        transformed as one stacked pass.

        Rows are canonical unless ``lazy``; lazy rows may be unreduced
        (the :meth:`~repro.backend.base.NttPlan.inverse_unscaled`
        contract) and are only valid as the first operand of a reducing
        product — ``mul``, ``mul_rows``, ``inner_product``.
        """
        if not len(vecs):
            return []
        twisted = self.backend.mul_rows(vecs, self._psi_powers, self.q)
        return self._ntt._plan.forward_many(twisted, normalize=not lazy)

    def inverse_stack(self, evals):
        """Coefficient vectors (canonical) of every evaluation-domain
        vector: one stacked unscaled inverse, then the scaled untwist."""
        if not len(evals):
            return []
        coeffs = self._ntt._plan.inverse_unscaled_many(evals)
        return self.backend.mul_rows(coeffs, self._psi_inv_scaled, self.q)

    def automorphism_index(self, galois_element: int):
        """Gather index applying X -> X^g to an evaluation-domain vector.

        Entry k of a forward transform is the evaluation at psi^(2k+1)
        (the ordering :class:`~repro.he.encoder.BatchEncoder` maps slots
        through), and a(X^g) evaluated there is a at psi^(g(2k+1)): the
        automorphism is the index permutation
        ``out[k] = in[((g(2k+1) mod 2n) - 1) / 2]``, no arithmetic at all.
        """
        index = self._automorphism_indices.get(galois_element)
        if index is None:
            if galois_element % 2 == 0:
                raise ValueError("Galois element must be odd")
            two_n = 2 * self.n
            index = self.backend.index_array(
                (galois_element * (2 * k + 1) % two_n - 1) // 2
                for k in range(self.n)
            )
            self._automorphism_indices[galois_element] = index
        return index

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
        transformed = self.forward_stack([shared, *others], lazy=True)
        products = self.backend.mul_rows(
            transformed[1:], transformed[0], self.q
        )
        return list(self.inverse_stack(products))

    def key_switch_eval(self, digit_evals, key0_evals, key1_evals):
        """The key-switch inner product (Σ_j d_j·k0_j, Σ_j d_j·k1_j), in
        and out of the evaluation domain.

        ``digit_evals`` are the (possibly lazy) transforms of the digits,
        the key stacks the stored canonical eval form: each sum is one
        stacked, lazily reduced
        :meth:`~repro.backend.base.ComputeBackend.inner_product`. The one
        key-switch kernel — :meth:`key_switch_inner_vec` (a lone
        rotation) and the evaluation-domain matvec both end up here.
        """
        be = self.backend
        return (
            be.inner_product(digit_evals, key0_evals, self.q),
            be.inner_product(digit_evals, key1_evals, self.q),
        )

    def key_switch_inner_vec(self, digit_vecs, key0_evals, key1_evals):
        """Key-switch inner product of coefficient-domain digits, back in
        the coefficient domain.

        All D digit forwards run in one stacked pass, the products
        accumulate *in the eval domain* (:meth:`key_switch_eval`; the key
        stacks arrive already transformed, so no key-side forwards happen
        here), and a single two-vector inverse finishes both components:
        D + 2 transform rows instead of the 5D (3 forward + 2 inverse
        per digit) a per-digit multiply-accumulate loop costs.

        Bit-identical to that loop: every product is exact mod q,
        modular addition is associative, and the inverse transform is
        linear, so accumulating before the inverse yields the same
        canonical residues as summing per-digit inverses.
        """
        transformed = self.forward_stack(digit_vecs, lazy=True)
        return tuple(
            self.inverse_stack(
                self.key_switch_eval(transformed, key0_evals, key1_evals)
            )
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
