"""BFV batch (SIMD) encoding.

Maps vectors of n values in Z_t to plaintext polynomials such that
homomorphic operations act slot-wise, and Galois automorphisms X -> X^(3^r)
rotate the two n/2-slot rows cyclically — the packing DELPHI inherits from
Gazelle for its matrix-vector and convolution kernels.
"""

from __future__ import annotations

import functools

from repro.backend import ComputeBackend, backend_for
from repro.he.ntt import NegacyclicNtt
from repro.he.params import BfvParams
from repro.he.polynomial import RingPoly, _context


@functools.lru_cache(maxsize=16)
def _slot_gathers(n: int, backend: ComputeBackend):
    """(encode, decode) gather indices between slot order and transform
    order for degree n — a function of n alone, built once per backend
    instead of once per encoder (every mint constructs two encoders).
    Shared between encoders: never mutated."""
    two_n = 2 * n
    row_size = n // 2
    # Slot i of row 0 lives at evaluation point zeta^(3^i); slot i of
    # row 1 at zeta^(-3^i). Forward negacyclic NTT output index k holds
    # the evaluation at zeta^(2k+1), hence the (e-1)/2 mapping.
    slot_to_eval = [0] * n
    e = 1
    for i in range(row_size):
        slot_to_eval[i] = (e - 1) // 2
        slot_to_eval[i + row_size] = (two_n - e - 1) // 2
        e = e * 3 % two_n
    eval_to_slot = [0] * n
    for slot, pos in enumerate(slot_to_eval):
        eval_to_slot[pos] = slot
    # Native gather indices: encode scatters values[slot] to position
    # slot_to_eval[slot], which is the gather values[eval_to_slot[pos]].
    return backend.index_array(eval_to_slot), backend.index_array(slot_to_eval)


class BatchEncoder:
    """Encode/decode between slot vectors and plaintext polynomials."""

    def __init__(self, params: BfvParams):
        self.params = params
        self._backend = backend_for(params.t, prefer=params.backend)
        self._gather_encode, self._gather_decode = _slot_gathers(
            params.n, self._backend
        )

    @property
    def _ntt(self) -> NegacyclicNtt:
        """The mod-t transform, from the LRU the ciphertext rings share."""
        return _context(self.params.n, self.params.t, self._backend)

    @property
    def backend(self) -> ComputeBackend:
        """The backend plaintext vectors live on."""
        return self._backend

    @property
    def slot_count(self) -> int:
        return self.params.n

    @property
    def row_size(self) -> int:
        return self.params.row_size

    def encode(self, values) -> RingPoly:
        """Encode up to n values (padded with zeros) into a plaintext poly."""
        p = self.params
        if len(values) > p.n:
            raise ValueError(f"too many values for {p.n} slots")
        if len(values) < p.n:
            values = list(values) + [0] * (p.n - len(values))
        return self.encode_many([values])[0]

    def encode_many(self, rows) -> list[RingPoly]:
        """Plaintexts of several full slot vectors (n values each): the
        gathers feed one stacked inverse transform mod t."""
        p = self.params
        be = self._backend
        if any(len(row) != p.n for row in rows):
            raise ValueError(f"encode_many takes full slot vectors of {p.n} values")
        evals = [
            be.permute(be.asvec(row, p.t), self._gather_encode) for row in rows
        ]
        (coeffs,) = self._ntt.inverse_stack([evals])  # t is a chain of one
        return [RingPoly._from_vec(vec, p.t, be) for vec in coeffs]

    def decode(self, plaintext: RingPoly) -> list[int]:
        """Decode a plaintext polynomial back to its n slot values."""
        return self._backend.tolist(self.decode_vec(plaintext))

    def decode_vec(self, plaintext: RingPoly):
        """:meth:`decode` as a backend vector, for a caller that computes on
        the slots rather than reading them."""
        p = self.params
        be = self._backend
        if plaintext.n != p.n:
            raise ValueError("plaintext degree mismatch")
        vec = plaintext.vec if plaintext.backend is be else be.asvec(
            plaintext.coeffs, p.t
        )
        return be.permute(self._ntt.forward_vec(vec), self._gather_decode)

    def galois_element_for_rotation(self, steps: int) -> int:
        """Galois element realizing a cyclic row rotation by ``steps``.

        A positive step rotates slot contents left: new[i] = old[i + steps].
        """
        p = self.params
        steps %= p.row_size
        return pow(3, steps, 2 * p.n)

    def galois_element_for_row_swap(self) -> int:
        """Galois element swapping the two rows (conjugation, X -> X^(2n-1))."""
        return 2 * self.params.n - 1
