"""Abstract interface every compute backend implements.

A backend owns the representation of coefficient vectors over Z_q and
provides the vectorized modular kernels the HE/GC/protocol layers are
written against. Two implementations exist:

* :mod:`repro.backend.python_backend` — ``list[int]`` vectors with
  arbitrary-precision Python arithmetic. Exact for any modulus; this is
  the reference semantics every other backend must match bit for bit.
* :mod:`repro.backend.numpy_backend` — ``uint64`` ndarray vectors with
  Barrett/Shoup reduction. Exact for moduli below 2^62; larger moduli
  must fall back to the python backend (see
  :func:`repro.backend.backend_for`).

Vectors are opaque to callers: obtain one with :meth:`asvec`, convert
back with :meth:`tolist`, and never assume the concrete type. All kernels
are pure — they return fresh vectors and never mutate their inputs.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

Vec = Any  # backend-native vector (list[int] or np.ndarray)
# Backend-native stack of equal-length vectors (list of lists or a 2D
# ndarray): index or iterate it for its rows. Kernels that take a stack
# also take any sequence of vectors; what they return is a stack.
Stack = Any
Mat = Any  # backend-native 2D matrix (list[list[int]] or np.ndarray)
Index = Any  # backend-native gather index (list[int] or np.ndarray)
# One stack per residue ring of a chain, ``[ring][row]`` (3D ndarray or
# nested sequences): what an :class:`NttPlan` transforms in one call.
ChainStack = Any


class NttPlan(abc.ABC):
    """Precomputed transform tables for a chain of residue rings: one
    size-n transform per modulus, every ring of the chain in one call.

    Both methods take and return a *chain stack* ``[ring][row]`` of
    backend-native vectors — ``(rings, rows, n)`` as a 3D array or any
    nested sequence, a single modulus being a chain of one ring. A
    negacyclic plan (built with ``twists``, see
    :meth:`ComputeBackend.make_ntt_plan`) multiplies coefficient k by
    psi^k before the cyclic transform and by psi^-k after its inverse.
    A ring count other than the plan's, or a row whose length is not n,
    raises ``ValueError`` instead of truncating or padding.
    """

    @abc.abstractmethod
    def forward(self, stack: ChainStack, lazy: bool = False) -> ChainStack:
        """Transforms of every row (entries reduced, or at most below 2q).

        Rows come back canonical unless ``lazy``; lazy rows may hold
        *unreduced* residues (congruent mod q, below 2q) and are only
        valid as the first operand of a reducing product on the same
        backend — ``mul``, ``mul_rows``, ``inner_product``.
        """

    @abc.abstractmethod
    def inverse(self, stack: ChainStack) -> ChainStack:
        """Inverse transforms of every row, the 1/n factor included;
        rows take entries below 2q and come back canonical."""


class ComputeBackend(abc.ABC):
    """Vectorized modular arithmetic over Z_q."""

    name: str = "abstract"

    @abc.abstractmethod
    def supports_modulus(self, q: int) -> bool:
        """Whether this backend computes exactly for modulus ``q``."""

    # -- vector construction / conversion ---------------------------------

    @abc.abstractmethod
    def asvec(self, values: Sequence[int], q: int) -> Vec:
        """Native vector of ``values`` reduced into [0, q)."""

    @abc.abstractmethod
    def tolist(self, vec: Vec) -> list[int]:
        """Plain Python ints, the interchange format between backends."""

    @abc.abstractmethod
    def veclen(self, vec: Vec) -> int: ...

    @abc.abstractmethod
    def eq(self, a: Vec, b: Vec) -> bool: ...

    @abc.abstractmethod
    def stack(self, vecs: Sequence[Vec]) -> Stack:
        """The vectors as one native stack (a stack passes through): an
        operand reused across kernel calls is stacked once, not per call."""

    # -- elementwise mod-q kernels ----------------------------------------

    @abc.abstractmethod
    def add(self, a: Vec, b: Vec, q: int) -> Vec: ...

    @abc.abstractmethod
    def sub(self, a: Vec, b: Vec, q: int) -> Vec: ...

    @abc.abstractmethod
    def neg(self, a: Vec, q: int) -> Vec: ...

    @abc.abstractmethod
    def mul(self, a: Vec, b: Vec, q: int) -> Vec:
        """Elementwise product mod q (both operands reduced)."""

    @abc.abstractmethod
    def mul_rows(self, rows: Stack, vec: Vec, q: int) -> Stack:
        """Every vector of ``rows`` times ``vec`` mod q (operands as for
        :meth:`mul`): the twist of a whole batch in one kernel call."""

    @abc.abstractmethod
    def inner_product(self, a: Stack, b: Stack, q: int) -> Vec:
        """``sum_j a[j] * b[j] mod q``, fully reduced — the key-switch
        and plaintext-accumulation kernel of the evaluation domain.

        Rows of ``a`` may be lazily reduced transform outputs (entries
        below 2q), rows of ``b`` are canonical. Reduction is lazy too: a
        backend sums as many products as its lanes hold before each
        ``mod q`` and derives that count from ``q``. A row-count mismatch
        raises ``ValueError`` rather than truncating or broadcasting.
        """

    @abc.abstractmethod
    def scalar_mul(self, a: Vec, scalar: int, q: int) -> Vec:
        """``a * scalar mod q``; entries of ``a`` need only be < q' <= q,
        so this also performs the plaintext lift c -> c * delta mod q."""

    @abc.abstractmethod
    def max_value(self, vec: Vec) -> int: ...

    # -- structural kernels ------------------------------------------------

    @abc.abstractmethod
    def index_array(self, indices: Sequence[int]) -> Index:
        """Precompiled gather index for :meth:`permute`."""

    @abc.abstractmethod
    def permute(self, vec: Vec, index: Index) -> Vec:
        """Gather: out[i] = vec[index[i]]."""

    @abc.abstractmethod
    def automorphism(
        self, rows: Stack, galois_element: int, moduli: Sequence[int]
    ) -> Stack:
        """Apply X -> X^g (g odd) to one coefficient vector per residue
        ring of an element — row i in Z_{moduli[i]}[X]/(X^n + 1) — all
        rings through one scatter."""

    @abc.abstractmethod
    def decompose(
        self, vec: Vec, base_bits: int, num_digits: int, q: int
    ) -> list[Vec]:
        """Digit decomposition: vec = sum_j digits[j] << (j * base_bits)."""

    @abc.abstractmethod
    def crt_lift(self, residues: Sequence[Vec], primes: Sequence[int]) -> Vec:
        """The integer below ``prod(primes)`` with the given residues, per
        element — the key-switching digit of a group of chain primes.

        Garner's mixed-radix form, ``x <- x + P·(((r - x)·P^-1) mod p)``
        prime by prime, so every intermediate stays below the product,
        which the caller guarantees is under 2^62. Bit-identical to
        reducing the CRT representative mod ``prod(primes)``.
        """

    # -- wire codec ---------------------------------------------------------

    @abc.abstractmethod
    def pack_le(self, limbs: Sequence[Vec], limb_bytes: int, width: int) -> bytes:
        """Fixed-width little-endian packing, ``width`` bytes per element.

        Element i is the integer sum_j limbs[j][i] * 256^(limb_bytes*j),
        which the caller guarantees fits ``width`` bytes. A single reduced
        vector is one limb (``limb_bytes = width``); the RNS codec hands
        over the base-2^16 digit vectors of :meth:`rns_digit_split`.
        """

    @abc.abstractmethod
    def unpack_le(self, data, width: int, moduli: Sequence[int]) -> list[Vec]:
        """Inverse of :meth:`pack_le`: the ``len(data) // width`` integers
        of ``data`` reduced mod each of ``moduli`` — one native vector per
        modulus, without materializing the integers where lanes allow."""

    # -- RNS base conversion -----------------------------------------------

    def make_rns_digit_plan(self, primes: Sequence[int], q: int, base_bits: int):
        """Precomputed constants for :meth:`rns_digit_split`, or ``None``.

        ``None`` means this backend has no exact fast kernel for the given
        chain/digit-width shape (the python backend never has one: it
        reconstructs); the caller (:class:`repro.backend.rns.RnsContext`)
        then falls back to arbitrary-precision CRT reconstruction. The
        returned plan is opaque and backend-specific — it is only ever
        handed back to the same backend's :meth:`rns_digit_split`.
        """
        return None

    def rns_digit_split(self, ys: Sequence[Vec], plan, num_digits: int) -> list[Vec]:
        """Base-2^w digits of the CRT representative, without bigints.

        ``ys[i]`` holds y_i = x_i * (Q/q_i)^{-1} mod q_i for every
        coefficient (the per-prime halves of the CRT reconstruction, all
        on this backend). The integer representative is
        x = sum_i y_i*(Q/q_i) - alpha*Q for some alpha < k, and the
        output is its digit decomposition
        ``[x & mask, (x >> w) & mask, ...]`` — REQUIRED to be
        bit-identical to reconstructing x exactly and splitting, for any
        input. Digit vectors hold values < 2^base_bits.
        """
        raise NotImplementedError(
            f"{self.name} backend returned no rns digit plan"
        )

    # -- transforms --------------------------------------------------------

    @abc.abstractmethod
    def make_ntt_plan(
        self,
        n: int,
        moduli: Sequence[int],
        roots: Sequence[int],
        twists: Sequence[int] | None = None,
    ) -> NttPlan:
        """Plan for the size-n NTTs of a chain: ring i transforms mod
        ``moduli[i]`` with the primitive n-th root ``roots[i]``. With
        ``twists`` — per ring a primitive 2n-th root psi whose square is
        the ring's root — the plan is negacyclic (X^n + 1), else cyclic.
        """

    # -- linear algebra ----------------------------------------------------

    @abc.abstractmethod
    def asmatrix(self, rows: Sequence[Sequence[int]], q: int) -> Mat:
        """Native 2D matrix with entries reduced into [0, q)."""

    @abc.abstractmethod
    def matvec_mod(self, matrix: Mat, vec: Sequence[int], q: int) -> list[int]:
        """``matrix @ vec mod q`` as plain ints (accepts either matrix
        representation so lowered networks survive backend switches)."""
