"""Number-theoretic transforms over Z_q.

:class:`NegacyclicNtt` is the negacyclic NTT (X^n + 1), used for fast
multiplication in the RLWE ciphertext ring R_q = Z_q[X]/(X^n + 1) and by
the BFV batch encoder to map plaintext slot values to polynomial
coefficients. One context serves a whole *chain* of residue rings
(:class:`repro.he.polynomial.RnsPoly`), a single modulus being a chain of
one: every transform step of a ring element is one plan call, all residue
rings stacked.

Root finding lives here; the transform kernel itself, psi-twisting
included, is delegated to the active compute backend
(:mod:`repro.backend`): iterative Cooley-Tukey over ``list[int]`` on the
python backend, one chain-stacked table-driven kernel over ``uint64``
ndarrays on the numpy backend. Both produce bit-identical outputs.

The ``forward``/``inverse``/``multiply`` methods keep the seed's
list-in/list-out contract over one modulus; everything the ring
polynomials use (``*_stack``, :meth:`NegacyclicNtt.multiply_shared`,
:meth:`NegacyclicNtt.key_switch_eval`) operates on backend-native
vectors, a ``[ring][row]`` chain stack at a time, so the hot path never
round-trips through Python lists.
"""

from __future__ import annotations

import numbers

from repro.backend import ComputeBackend, backend_for
from repro.crypto.modmath import primitive_root_of_unity


class NegacyclicNtt:
    """Negacyclic NTTs for a chain of residue rings Z_{q_i}[X]/(X^n + 1)
    (every q_i ≡ 1 mod 2n); ``q`` is one modulus or the chain's primes.

    Uses the standard psi-twisting: multiply coefficient k by psi^k before
    a cyclic NTT, where psi is a primitive 2n-th root of unity, and by
    psi^{-k} after the inverse transform. Pointwise products in the
    transformed domain then realize negacyclic convolution. Twisting is
    part of the backend's plan (:meth:`~repro.backend.base.ComputeBackend.
    make_ntt_plan`), which transforms all rings of the chain in one call;
    what is pointwise in the evaluation domain runs per ring, on the rows
    of that call's output.
    """

    def __init__(self, n: int, q, backend: ComputeBackend | None = None):
        moduli = (int(q),) if isinstance(q, numbers.Integral) else tuple(q)
        if n & (n - 1):
            raise ValueError("ring degree must be a power of two")
        for p in moduli:
            if (p - 1) % (2 * n) != 0:
                raise ValueError(f"q={p} is not NTT friendly for degree {n}")
        self.n = n
        self.moduli = moduli
        self.backend = backend or backend_for(max(moduli))
        self.psis = tuple(primitive_root_of_unity(2 * n, p) for p in moduli)
        self._plan = self.backend.make_ntt_plan(
            n,
            moduli,
            [psi * psi % p for psi, p in zip(self.psis, moduli)],
            self.psis,
        )
        self._automorphism_indices: dict[int, object] = {}

    # -- chain stacks: [ring][row] backend-native vectors --------------------

    def forward_stack(self, stack, lazy=False):
        """Evaluation-domain forms of every coefficient vector of a chain
        stack, twisted and transformed in one plan call.

        Rows are canonical unless ``lazy``; lazy rows may be unreduced
        (the :meth:`~repro.backend.base.NttPlan.forward` contract) and are
        only valid as the first operand of a reducing product — ``mul``,
        ``mul_rows``, ``inner_product``.
        """
        return self._plan.forward(stack, lazy)

    def inverse_stack(self, stack):
        """Coefficient vectors (canonical) of every evaluation-domain
        vector of a chain stack: one plan call, the scaled untwist
        included."""
        return self._plan.inverse(stack)

    def automorphism_index(self, galois_element: int):
        """Gather index applying X -> X^g to an evaluation-domain vector.

        Entry k of a forward transform is the evaluation at psi^(2k+1)
        (the ordering :class:`~repro.he.encoder.BatchEncoder` maps slots
        through), and a(X^g) evaluated there is a at psi^(g(2k+1)): the
        automorphism is the index permutation
        ``out[k] = in[((g(2k+1) mod 2n) - 1) / 2]``, no arithmetic at all —
        the same in every ring of the chain.
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

    def multiply_shared(self, shared, others):
        """Products shared*o for every element of ``others``; ``shared``
        and each o hold one coefficient vector per ring.

        The shared operand is twisted and transformed exactly once, and all
        forward transforms (1 + len(others) rows in every ring) land in a
        single plan call — likewise the inverse transforms — so a
        two-component ciphertext op (c0, c1 against one plaintext) costs
        one forward and one inverse call instead of four and two
        transforms per ring. Outputs are fully reduced.
        """
        if not others:
            return []
        be = self.backend
        evals = self.forward_stack(
            [[vec, *(o[i] for o in others)] for i, vec in enumerate(shared)],
            lazy=True,
        )
        products = self.inverse_stack(
            [
                be.mul_rows(rows[1:], rows[0], q)
                for rows, q in zip(evals, self.moduli)
            ]
        )
        return [[rows[j] for rows in products] for j in range(len(others))]

    def key_switch_eval(self, digit_evals, eval_keys):
        """The key-switch inner products, in and out of the evaluation
        domain: per ring the pair (Σ_j d_j·k0_j, Σ_j d_j·k1_j) — itself a
        two-row chain stack.

        ``digit_evals`` holds per ring the (possibly lazy) transforms of
        the digits, ``eval_keys`` per ring the ``(K0, K1)`` stacks of the
        stored canonical eval form: each sum is one stacked, lazily
        reduced :meth:`~repro.backend.base.ComputeBackend.inner_product`.
        The one key-switch kernel — a lone rotation and the
        evaluation-domain matvec both end up here. A ring-count mismatch
        raises instead of truncating, as a row-count mismatch does inside.
        """
        be = self.backend
        return [
            (be.inner_product(rows, k0, q), be.inner_product(rows, k1, q))
            for rows, (k0, k1), q in zip(
                digit_evals, eval_keys, self.moduli, strict=True
            )
        ]

    # -- one modulus: vectors and the list API (reference semantics) ---------

    def forward_vec(self, vec):
        return self.forward_stack([[vec]])[0][0]

    def inverse_vec(self, vec):
        return self.inverse_stack([[vec]])[0][0]

    def forward(self, coeffs: list[int]) -> list[int]:
        be = self.backend
        return be.tolist(self.forward_vec(be.asvec(coeffs, *self.moduli)))

    def inverse(self, values: list[int]) -> list[int]:
        be = self.backend
        return be.tolist(self.inverse_vec(be.asvec(values, *self.moduli)))

    def multiply(self, a: list[int], b: list[int]) -> list[int]:
        """Negacyclic product of two coefficient vectors."""
        be = self.backend
        (q,) = self.moduli
        ((product,),) = self.multiply_shared([be.asvec(a, q)], [[be.asvec(b, q)]])
        return be.tolist(product)
