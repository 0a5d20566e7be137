"""Arithmetic in the RLWE ciphertext ring R_q = Z_q[X]/(X^n + 1).

Two representations of a ring element are provided:

* ``RingPoly`` — one coefficient vector mod q ("bigint"): backend-native
  (plain ``list[int]`` on the python backend, ``uint64`` ndarray on
  numpy), exact for any q because oversized moduli resolve to the python
  backend. The reference semantics.
* ``RnsPoly`` — one residue vector per prime of an RNS (CRT) chain whose
  product is q. Every residue fits the numpy backend's exact reduction,
  so wide-modulus parameter sets (the paper-faithful 100/180-bit q)
  run vectorized. Bit-exact with ``RingPoly`` at the same q; enforced by
  ``tests/test_rns_parity.py``.

The ``coeffs`` property of either class materializes (and caches) a
plain-int list for decryption and tests — for ``RnsPoly`` that is the CRT
reconstruction. Serialization does not go through it: ``to_bytes`` packs
the wire form from the backend vectors (see
:meth:`repro.backend.rns.RnsContext.pack_le`).

Either class is, to the transform layer, one coefficient vector per
*residue ring* (:meth:`RingPoly.ring_vecs`; a ``RingPoly`` has one ring)
and one :class:`~repro.he.ntt.NegacyclicNtt` context for the whole chain
(:meth:`RingPoly.ring_ntt`): every transform step — the operands of a
product, the digits of a key switch, a ciphertext pair — is ONE plan
call on a ``[ring][row]`` chain stack, whatever the chain length. What is
pointwise in the evaluation domain (products, inner products, sums) runs
per ring on the rows of that call's output.

Operands that are only ever *multiplied* never need their coefficient
form in the hot path. Galois key components are held as evaluation-domain
stacks (:func:`eval_stacks`, transformed once at
keygen or on first use after deserialization), and the diagonal matvec
keeps its whole working ciphertext there (:class:`EvalPair`): rotate by an
index permutation plus the key-switch inner product, multiply and
accumulate pointwise, and transform back once at the end. Wire formats
stay in the coefficient domain; an eval form is local, never serialized.

Ring multiplications share :class:`~repro.he.ntt.NegacyclicNtt` contexts
through a bounded LRU cache keyed by (n, q, backend) — q a single modulus
or the tuple of a chain's primes: parameter sweeps used to grow the old
unbounded dict without limit. An RNS chain occupies ONE slot, whatever
its length (pinned by ``tests/test_ntt_cache.py``).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

from repro.backend import ComputeBackend, RnsContext, backend_for
from repro.he.ntt import NegacyclicNtt

_NTT_CACHE: OrderedDict[tuple, NegacyclicNtt] = OrderedDict()
_NTT_CACHE_MAX = 32
# The get→insert→evict sequence is compound: the serving gateway's inline
# refill thread and its selector thread can both run HE work, and an
# unlocked eviction racing a move_to_end would KeyError. Twiddle-table
# construction happens outside the lock's hot path concern (building the
# same context twice would merely waste work, but the lock removes even
# that).
_NTT_CACHE_LOCK = threading.Lock()


def _context(n: int, q, backend: ComputeBackend) -> NegacyclicNtt:
    """The shared transform context of one modulus ``q``, or of the chain
    whose primes ``q`` lists."""
    key = (n, q, backend.name)
    with _NTT_CACHE_LOCK:
        ctx = _NTT_CACHE.get(key)
        if ctx is not None:
            _NTT_CACHE.move_to_end(key)
            return ctx
    ctx = NegacyclicNtt(n, q, backend=backend)
    with _NTT_CACHE_LOCK:
        _NTT_CACHE[key] = ctx
        while len(_NTT_CACHE) > _NTT_CACHE_MAX:
            _NTT_CACHE.popitem(last=False)
    return ctx


def clear_ntt_cache() -> None:
    """Drop all cached NTT contexts (tests and parameter sweeps)."""
    with _NTT_CACHE_LOCK:
        _NTT_CACHE.clear()


def ntt_cache_size() -> int:
    with _NTT_CACHE_LOCK:
        return len(_NTT_CACHE)


def ntt_cache_keys() -> tuple[tuple, ...]:
    """Cache keys oldest-first (the LRU eviction order), for tests."""
    with _NTT_CACHE_LOCK:  # iterating a dict another thread resizes raises
        return tuple(_NTT_CACHE)


class RingPoly:
    """Polynomial in Z_q[X]/(X^n + 1), coefficients stored reduced mod q."""

    __slots__ = ("n", "q", "_backend", "_vec", "_coeffs")

    def __init__(self, coeffs, q: int, backend: ComputeBackend | None = None):
        self._backend = backend or backend_for(q)
        self._vec = self._backend.asvec(coeffs, q)
        self.n = self._backend.veclen(self._vec)
        self.q = q
        self._coeffs: list[int] | None = None

    @classmethod
    def _from_vec(cls, vec, q: int, backend: ComputeBackend) -> "RingPoly":
        """Wrap an already-reduced backend vector without copying."""
        poly = cls.__new__(cls)
        poly._backend = backend
        poly._vec = vec
        poly.n = backend.veclen(vec)
        poly.q = q
        poly._coeffs = None
        return poly

    @classmethod
    def constant(cls, value: int, n: int, q: int) -> "RingPoly":
        coeffs = [0] * n
        coeffs[0] = value % q
        return cls(coeffs, q)

    # -- representation -----------------------------------------------------

    @property
    def coeffs(self) -> list[int]:
        """Coefficients as plain Python ints (computed once, then cached)."""
        if self._coeffs is None:
            self._coeffs = self._backend.tolist(self._vec)
        return self._coeffs

    @property
    def backend(self) -> ComputeBackend:
        return self._backend

    @property
    def vec(self):
        """Backend-native coefficient vector (treat as immutable)."""
        return self._vec

    def to_bytes(self, width: int) -> bytes:
        """Wire form: every coefficient as ``width`` little-endian bytes,
        packed straight from the backend vector."""
        return self._backend.pack_le([self._vec], width, width)

    def _coerce(self, other: "RingPoly | RnsPoly"):
        """Other's vector on this poly's backend (same ring checked first).

        Accepts an :class:`RnsPoly` operand too (its ``coeffs`` are the
        CRT reconstruction), so cross-representation arithmetic works in
        either operand order.
        """
        backend = getattr(other, "_backend", None)
        if backend is self._backend:
            return other._vec
        return self._backend.asvec(other.coeffs, self.q)

    def _check(self, other: "RingPoly | RnsPoly") -> None:
        if self.n != other.n or self.q != other.q:
            raise ValueError("ring mismatch between polynomials")

    def _operand_vecs(self, other: "RingPoly | RnsPoly") -> list:
        """``other``'s per-ring vectors as an operand of this element
        (``ValueError`` unless it lives in the same ring)."""
        self._check(other)
        return [self._coerce(other)]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "RingPoly") -> "RingPoly":
        self._check(other)
        be = self._backend
        return RingPoly._from_vec(
            be.add(self._vec, self._coerce(other), self.q), self.q, be
        )

    def __sub__(self, other: "RingPoly") -> "RingPoly":
        self._check(other)
        be = self._backend
        return RingPoly._from_vec(
            be.sub(self._vec, self._coerce(other), self.q), self.q, be
        )

    def __neg__(self) -> "RingPoly":
        be = self._backend
        return RingPoly._from_vec(be.neg(self._vec, self.q), self.q, be)

    def __mul__(self, other: "RingPoly | int") -> "RingPoly":
        be = self._backend
        if isinstance(other, int):
            return RingPoly._from_vec(
                be.scalar_mul(self._vec, other, self.q), self.q, be
            )
        return multiply_shared(self, [other])[0]

    __rmul__ = __mul__

    def automorphism(self, galois_element: int) -> "RingPoly":
        """Apply X -> X^g; g must be odd so the map is a ring automorphism."""
        if galois_element % 2 == 0:
            raise ValueError("Galois element must be odd")
        be = self._backend
        (vec,) = be.automorphism([self._vec], galois_element, (self.q,))
        return RingPoly._from_vec(vec, self.q, be)

    def decompose(self, groups, base_bits: int | None = None) -> list["RingPoly"]:
        """Key-switching digits, self = sum_j digits[j] * g_j mod q for
        the gadget g of :meth:`repro.he.params.BfvParams.gadget_factors`.

        Along the prime ``groups`` of a chain (whose product is q;
        :attr:`~repro.he.params.BfvParams.digit_groups`) digit G is every
        coefficient reduced mod the product of group G — the bigint
        reference :meth:`RnsPoly.decompose` is held bit-identical to. A
        chainless modulus (``groups`` None) splits into base-2^base_bits
        positional digits instead.
        """
        be = self._backend
        if groups is None:
            num_digits = -(-self.q.bit_length() // base_bits)
            vecs = be.decompose(self._vec, base_bits, num_digits, self.q)
        else:
            vecs = [be.asvec(self._vec, math.prod(group)) for group in groups]
        return [RingPoly._from_vec(vec, self.q, be) for vec in vecs]

    # -- residue-ring views (one ring: the element itself) --------------------

    def own_digits(self, groups) -> list[int | None]:
        """Per residue ring, which digit of :meth:`decompose` is, read in
        that ring, the element's own vector there: none in a single ring
        (see :class:`RnsPoly`)."""
        return [None]

    def ring_ntt(self) -> NegacyclicNtt:
        """The transform context of this element's residue rings."""
        return _context(self.n, self.q, self._backend)

    def ring_vecs(self) -> list:
        """The coefficient vector in every residue ring (immutable)."""
        return [self._vec]

    def from_ring_vecs(self, vecs) -> "RingPoly":
        """An element of this one's ring from per-ring canonical vectors."""
        (vec,) = vecs
        return RingPoly._from_vec(vec, self.q, self._backend)

    # -- cross-modulus helpers (plaintext <-> ciphertext ring) --------------

    def lift(self, new_q: int, backend: ComputeBackend | None = None) -> "RingPoly":
        """Reinterpret in Z_new_q (coefficients must already be < new_q).

        ``backend`` pins the target backend (callers holding a resolved
        per-params preference); otherwise the registry resolves it.
        """
        target = backend or backend_for(new_q)
        if target is self._backend and new_q >= self.q:
            return RingPoly._from_vec(self._vec, new_q, target)
        return RingPoly(self.coeffs, new_q, backend=target)

    def lift_scale(
        self, factor: int, new_q: int, backend: ComputeBackend | None = None
    ) -> "RingPoly":
        """Coefficients * factor mod new_q, e.g. the delta-scaling lift."""
        target = backend or backend_for(new_q)
        if target is self._backend:
            return RingPoly._from_vec(
                target.scalar_mul(self._vec, factor, new_q), new_q, target
            )
        factor %= new_q
        return RingPoly(
            [c * factor % new_q for c in self.coeffs], new_q, backend=target
        )

    def max_coeff(self) -> int:
        return self._backend.max_value(self._vec)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RingPoly):
            if self.q != other.q:
                return False
            if other._backend is self._backend:
                return self._backend.eq(self._vec, other._vec)
            return self.coeffs == other.coeffs
        if isinstance(other, RnsPoly) and other.q == self.q:
            # Mirror RnsPoly.__eq__ so equality is symmetric across
            # representations.
            return self.coeffs == other.coeffs
        return False

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        return f"RingPoly(n={self.n}, q={self.q}, [{head}, ...])"


class RnsPoly:
    """Polynomial in Z_q[X]/(X^n + 1) held as CRT residues, q = prod q_i.

    ``residues[i]`` is a backend-native coefficient vector mod the chain's
    i-th prime. All ring operations act residue-wise (they commute with
    the CRT isomorphism), so each runs as small-modulus vectorized
    kernels — key-switch digits included, each lifted from the residues
    of one group of chain primes (:meth:`decompose`); only
    ``coeffs`` and decryption rounding, which need the integer
    representative, pay for CRT reconstruction. Mirrors the
    :class:`RingPoly` surface the BFV layer uses, so ciphertexts are
    representation-agnostic.
    """

    __slots__ = ("ctx", "residues", "n", "_coeffs")

    def __init__(self, ctx: RnsContext, residues):
        self.ctx = ctx
        self.residues = list(residues)  # of a 2D stack: its row views
        self.n = ctx.backend.veclen(self.residues[0])
        self._coeffs: list[int] | None = None

    @classmethod
    def from_coeffs(cls, ctx: RnsContext, values) -> "RnsPoly":
        """Decompose integer (or backend-native) coefficients into residues."""
        return cls(ctx, ctx.to_rns(values))

    # -- representation -----------------------------------------------------

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def coeffs(self) -> list[int]:
        """CRT-reconstructed coefficients in [0, q) (computed once)."""
        if self._coeffs is None:
            self._coeffs = self.ctx.from_rns(self.residues)
        return self._coeffs

    def to_bytes(self, width: int) -> bytes:
        """Wire form: the integer representative of every coefficient as
        ``width`` little-endian bytes (:meth:`RnsContext.pack_le`, no CRT
        reconstruction on the vectorized backend)."""
        return self.ctx.pack_le(self.residues, width)

    def _coerce(self, other: "RnsPoly | RingPoly") -> "RnsPoly":
        if isinstance(other, RnsPoly):
            if other.ctx.primes != self.ctx.primes or other.n != self.n:
                raise ValueError("ring mismatch between RNS polynomials")
            return other
        if isinstance(other, RingPoly) and other.q == self.q:
            if other.n != self.n:
                raise ValueError("ring mismatch between polynomials")
            # Cross-representation operand (e.g. a deserialized bigint
            # ciphertext meeting RNS key material): decompose it.
            return RnsPoly.from_coeffs(self.ctx, other.coeffs)
        raise TypeError(f"cannot combine RnsPoly with {type(other).__name__}")

    def _operand_vecs(self, other: "RnsPoly | RingPoly") -> list:
        """``other``'s per-ring vectors as an operand of this element."""
        return self._coerce(other).residues

    def _map(self, op) -> "RnsPoly":
        be = self.ctx.backend
        return RnsPoly(
            self.ctx, [op(i, p, be) for i, p in enumerate(self.ctx.primes)]
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "RnsPoly":
        o = self._coerce(other)
        return self._map(
            lambda i, p, be: be.add(self.residues[i], o.residues[i], p)
        )

    def __sub__(self, other) -> "RnsPoly":
        o = self._coerce(other)
        return self._map(
            lambda i, p, be: be.sub(self.residues[i], o.residues[i], p)
        )

    def __neg__(self) -> "RnsPoly":
        return self._map(lambda i, p, be: be.neg(self.residues[i], p))

    def __mul__(self, other) -> "RnsPoly":
        if isinstance(other, int):
            return self._map(
                lambda i, p, be: be.scalar_mul(self.residues[i], other, p)
            )
        return multiply_shared(self, [other])[0]

    __rmul__ = __mul__

    def automorphism(self, galois_element: int) -> "RnsPoly":
        """Apply X -> X^g residue-wise (the map commutes with the CRT),
        every ring through one scatter."""
        if galois_element % 2 == 0:
            raise ValueError("Galois element must be odd")
        return RnsPoly(
            self.ctx,
            self.ctx.backend.automorphism(
                self.residues, galois_element, self.ctx.primes
            ),
        )

    def decompose(self, groups, base_bits: int | None = None) -> list["RnsPoly"]:
        """Key-switching digits along the element's own chain: digit G is
        the integer below the product of prime group G with the residues
        held there (:meth:`~repro.backend.base.ComputeBackend.crt_lift`;
        the residue itself for a group of one), re-expressed in every
        base — in the group's own rings that is the residue already
        held, elsewhere one reduction of a vector that fits a lane. No
        integer representative mod q anywhere. Bit-identical to
        :meth:`RingPoly.decompose` along the same groups.
        """
        if tuple(p for group in groups or () for p in group) != self.ctx.primes:
            raise ValueError("an RNS element decomposes along its own chain")
        be = self.ctx.backend
        digits, start = [], 0
        for group in groups:
            stop = start + len(group)
            lifted = be.crt_lift(self.residues[start:stop], group)
            digits.append(
                RnsPoly(
                    self.ctx,
                    [
                        self.residues[i] if start <= i < stop else be.asvec(lifted, p)
                        for i, p in enumerate(self.ctx.primes)
                    ],
                )
            )
            start = stop
        return digits

    # -- residue-ring views ----------------------------------------------------

    def own_digits(self, groups) -> list[int]:
        """Digit G of :meth:`decompose` is the residue itself in every
        ring of group G: its transform there need never be recomputed."""
        return [j for j, group in enumerate(groups) for _ in group]

    def ring_ntt(self) -> NegacyclicNtt:
        """The transform context of this element's residue rings: one for
        the whole chain."""
        return _context(self.n, self.ctx.primes, self.ctx.backend)

    def ring_vecs(self) -> list:
        """The coefficient vector in every residue ring (immutable)."""
        return self.residues

    def from_ring_vecs(self, vecs) -> "RnsPoly":
        """An element of this one's ring from per-ring canonical vectors."""
        return RnsPoly(self.ctx, vecs)

    def max_coeff(self) -> int:
        return max(self.coeffs)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RnsPoly) and other.ctx.primes == self.ctx.primes:
            return all(
                self.ctx.backend.eq(a, b)
                for a, b in zip(self.residues, other.residues)
            )
        if isinstance(other, (RnsPoly, RingPoly)) and other.q == self.q:
            return self.coeffs == other.coeffs
        return False

    def __repr__(self) -> str:
        bits = [p.bit_length() for p in self.ctx.primes]
        return f"RnsPoly(n={self.n}, chain={bits} bits)"


def eval_stacks(polys, lazy: bool = False):
    """The evaluation-domain chain stack of ``polys`` — per residue ring,
    one row each; all in one ring and representation: a single forward
    plan call for every ring and row, rows canonical unless ``lazy`` (see
    :meth:`~repro.he.ntt.NegacyclicNtt.forward_stack`).
    """
    columns = zip(*(poly.ring_vecs() for poly in polys))
    return polys[0].ring_ntt().forward_stack([list(c) for c in columns], lazy)


def _column(stack, j: int) -> list:
    """Row j of every ring of a chain stack: one element's per-ring vectors."""
    return [rows[j] for rows in stack]


def key_switch_inner(digits, eval_keys):
    """(Σ_j d_j·k0_j, Σ_j d_j·k1_j) with eval-domain key stacks.

    ``digits`` are coefficient-domain ring elements (all the same
    representation); ``eval_keys`` holds one ``(K0, K1)`` pair of stacks
    per residue ring, a row per digit
    (:meth:`repro.he.bfv.GaloisKeys.eval_keys`). All D digit forwards of
    all rings run in one plan call, the products accumulate *in the eval
    domain* (:meth:`~repro.he.ntt.NegacyclicNtt.key_switch_eval`; the key
    stacks arrive already transformed, so no key-side forwards happen
    here), and a single two-row inverse call finishes both components:
    D + 2 transform rows per ring instead of the 5D (3 forward + 2
    inverse per digit) a per-digit multiply-accumulate loop costs.

    Bit-identical to that loop: every product is exact mod q, modular
    addition is associative, and the inverse transform is linear, so
    accumulating before the inverse yields the same canonical residues as
    summing per-digit inverses. Digits and keys must be one per gadget
    factor; a count mismatch raises instead of truncating.
    """
    first = digits[0]
    ntt = first.ring_ntt()
    sums = ntt.key_switch_eval(eval_stacks(digits, lazy=True), eval_keys)
    out = ntt.inverse_stack(sums)
    return first.from_ring_vecs(_column(out, 0)), first.from_ring_vecs(_column(out, 1))


class EvalPair:
    """Two elements of one ring — a ciphertext's (c0, c1) — resident in the
    evaluation domain: per residue ring, one canonical eval vector each.

    The working form of the diagonal matvec, which is a Horner recurrence
    on pairs: ``acc <- rot(acc) + plain ⊙ x`` (:meth:`rotated_plus`),
    seeded with a pointwise product (:meth:`times`). Everything between
    the two domain changes is pointwise — a rotation is an index
    permutation plus the key-switch inner product, and the plaintext
    product rides in that same inner product as one more row. Only the
    key-switch *digits* need coefficients: they depend on the canonical
    integer representative of c1, so each step inverts c1 alone. Every
    value is the canonical residue of the same ring element the
    coefficient-domain ops compute, hence bit-identical ciphertexts.
    """

    __slots__ = ("_like", "_ntt", "e0", "e1")

    def __init__(self, like, e0, e1):
        self._like = like  # any element of the ring (rebuilds polys)
        self._ntt = like.ring_ntt()
        self.e0 = e0
        self.e1 = e1

    @classmethod
    def from_coeff(cls, c0, c1) -> "EvalPair":
        """Transform a coefficient-domain pair (one two-row plan call)."""
        evals = eval_stacks([c0, c1])
        return cls(c1, _column(evals, 0), _column(evals, 1))

    def to_coeff(self):
        """Back to coefficient-domain ring elements (c0, c1)."""
        out = self._ntt.inverse_stack([list(pair) for pair in zip(self.e0, self.e1)])
        return (
            self._like.from_ring_vecs(_column(out, 0)),
            self._like.from_ring_vecs(_column(out, 1)),
        )

    def times(self, plain) -> "EvalPair":
        """plain ⊙ self: ``plain`` holds, per residue ring, the (possibly
        lazy) eval vector of the multiplier."""
        be, moduli = self._ntt.backend, self._ntt.moduli
        return EvalPair(
            self._like,
            [be.mul(row, a, q) for row, a, q in zip(plain, self.e0, moduli)],
            [be.mul(row, b, q) for row, b, q in zip(plain, self.e1, moduli)],
        )

    def keyed(self, eval_keys) -> list[tuple]:
        """Per residue ring, the key stacks of one Galois element with
        this pair's components appended as one more row each,
        ``(K0 ⧺ e0, K1 ⧺ e1)``: the canonical side of every
        :meth:`rotated_plus` that adds a multiple of this pair, stacked
        once per matvec instead of once per step."""
        be = self._ntt.backend
        return [
            (be.stack([*k0, a]), be.stack([*k1, b]))
            for (k0, k1), a, b in zip(eval_keys, self.e0, self.e1, strict=True)
        ]

    def rotated_plus(
        self, galois_element: int, keyed, groups, base_bits, plain
    ) -> "EvalPair":
        """rot(self) + plain ⊙ x for the pair x that built ``keyed``
        (:meth:`keyed`) — one Horner step of the diagonal matvec: X -> X^g
        on both components, key-switched back as
        :meth:`repro.he.bfv.BfvContext.rotate` does it, plus the product
        :meth:`times` computes, eval domain in and out.

        The digits are taken exactly as ``rotate`` takes them — the
        coefficient-domain automorphism of c1, decomposed — so they are
        bit-identical; c0 is permuted in place of being transformed, and
        on a chain so is the ring's own digit (:meth:`RnsPoly.own_digits`),
        which is the rotated c1 residue whose eval form is already held.
        The plaintext row is stacked onto the digit rows as x's
        components are onto the key rows, so each component is one
        lazily reduced inner product, ``Σ_j d_j·k_j + plain·x``. Two plan
        calls whatever the chain length: c1 back to coefficients, the
        other rings' digits forward.
        """
        ntt = self._ntt
        be = ntt.backend
        c1 = self._like.from_ring_vecs(
            _column(ntt.inverse_stack([[e] for e in self.e1]), 0)
        )
        rotated_c1 = c1.automorphism(galois_element)
        own_digits = rotated_c1.own_digits(groups)
        digit_vecs = [
            d.ring_vecs() for d in rotated_c1.decompose(groups, base_bits)
        ]
        forwarded = ntt.forward_stack(
            [
                [vecs[i] for j, vecs in enumerate(digit_vecs) if j != own]
                for i, own in enumerate(own_digits)
            ],
            lazy=True,
        )
        index = ntt.automorphism_index(galois_element)
        stacks = []
        for i, own in enumerate(own_digits):
            rows = list(forwarded[i])
            if own is not None:
                rows.insert(own, be.permute(self.e1[i], index))
            rows.append(plain[i])
            stacks.append(be.stack(rows))
        sums = ntt.key_switch_eval(stacks, keyed)
        e0 = [
            be.add(be.permute(a, index), m0, q)
            for a, (m0, _), q in zip(self.e0, sums, ntt.moduli)
        ]
        return EvalPair(self._like, e0, [m1 for _, m1 in sums])


def multiply_shared(shared, others):
    """Products shared*o for each ring element o, batching NTT transforms.

    The shared operand (the lifted plaintext in ``mul_plain``) is
    forward-transformed once and all transforms run as two plan calls for
    every residue ring together — see
    :meth:`~repro.he.ntt.NegacyclicNtt.multiply_shared`. Either
    representation; results are bit-identical to ``[shared * o for o in
    others]``, ring mismatches raise as they do there.
    """
    operands = [shared._operand_vecs(o) for o in others]
    products = shared.ring_ntt().multiply_shared(shared.ring_vecs(), operands)
    return [shared.from_ring_vecs(vecs) for vecs in products]
