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

Operands that are only ever *multiplied* never need their coefficient
form in the hot path. Galois key components are held as evaluation-domain
stacks (:func:`eval_stacks`, one per residue ring, transformed once at
keygen or on first use after deserialization), and the diagonal matvec
keeps its whole working ciphertext there (:class:`EvalPair`): rotate by an
index permutation plus the key-switch inner product, multiply and
accumulate pointwise, and transform back once at the end. Wire formats
stay in the coefficient domain; an eval form is local, never serialized.

Ring multiplications share :class:`~repro.he.ntt.NegacyclicNtt` contexts
through a bounded LRU cache keyed by (n, q, backend): parameter sweeps
used to grow the old unbounded dict without limit. An RNS chain of k
primes occupies k slots (one per residue ring); the bound comfortably
exceeds any realistic chain so a chain never evicts its own contexts
mid-ciphertext-op (pinned by ``tests/test_ntt_cache.py``).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

from repro.backend import ComputeBackend, RnsContext, backend_for
from repro.he.ntt import NegacyclicNtt

_NTT_CACHE: OrderedDict[tuple[int, int, str], NegacyclicNtt] = OrderedDict()
_NTT_CACHE_MAX = 32
# The get→insert→evict sequence is compound: the serving gateway's inline
# refill thread and its selector thread can both run HE work, and an
# unlocked eviction racing a move_to_end would KeyError. Twiddle-table
# construction happens outside the lock's hot path concern (building the
# same context twice would merely waste work, but the lock removes even
# that).
_NTT_CACHE_LOCK = threading.Lock()


def _context(n: int, q: int, backend: ComputeBackend) -> NegacyclicNtt:
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


def ntt_cache_keys() -> tuple[tuple[int, int, str], ...]:
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
        self._check(other)
        ctx = _context(self.n, self.q, be)
        return RingPoly._from_vec(
            ctx.multiply_vec(self._vec, self._coerce(other)), self.q, be
        )

    __rmul__ = __mul__

    def automorphism(self, galois_element: int) -> "RingPoly":
        """Apply X -> X^g; g must be odd so the map is a ring automorphism."""
        if galois_element % 2 == 0:
            raise ValueError("Galois element must be odd")
        be = self._backend
        return RingPoly._from_vec(
            be.automorphism(self._vec, galois_element, self.q), self.q, be
        )

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

    def ring_ntts(self) -> list[NegacyclicNtt]:
        """The transform context of every residue ring of this element."""
        return [_context(self.n, self.q, self._backend)]

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

    def __init__(self, ctx: RnsContext, residues: list):
        self.ctx = ctx
        self.residues = residues
        self.n = ctx.backends[0].veclen(residues[0])
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

    def _map(self, op) -> "RnsPoly":
        return RnsPoly(
            self.ctx,
            [
                op(i, p, be)
                for i, (p, be) in enumerate(
                    zip(self.ctx.primes, self.ctx.backends)
                )
            ],
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
        o = self._coerce(other)
        return self._map(
            lambda i, p, be: _context(self.n, p, be).multiply_vec(
                self.residues[i], o.residues[i]
            )
        )

    __rmul__ = __mul__

    def mul_shared(self, others: list) -> list["RnsPoly"]:
        """self*o for each o, batching NTTs per residue ring (the paired
        c0/c1 transform: self is forward-transformed once per prime)."""
        coerced = [self._coerce(o) for o in others]
        per_prime = [
            _context(self.n, p, be).multiply_shared_vec(
                self.residues[i], [o.residues[i] for o in coerced]
            )
            for i, (p, be) in enumerate(
                zip(self.ctx.primes, self.ctx.backends)
            )
        ]
        return [
            RnsPoly(self.ctx, [prime_out[j] for prime_out in per_prime])
            for j in range(len(others))
        ]

    def automorphism(self, galois_element: int) -> "RnsPoly":
        """Apply X -> X^g residue-wise (the map commutes with the CRT)."""
        if galois_element % 2 == 0:
            raise ValueError("Galois element must be odd")
        return self._map(
            lambda i, p, be: be.automorphism(self.residues[i], galois_element, p)
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
        rings = list(zip(self.ctx.primes, self.ctx.backends))
        digits, start = [], 0
        for group in groups:
            stop = start + len(group)
            lifted = rings[start][1].crt_lift(self.residues[start:stop], group)
            digits.append(
                RnsPoly(
                    self.ctx,
                    [
                        self.residues[i] if start <= i < stop else be.asvec(lifted, p)
                        for i, (p, be) in enumerate(rings)
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

    def ring_ntts(self) -> list[NegacyclicNtt]:
        """The transform context of every residue ring of this element."""
        return [
            _context(self.n, p, be)
            for p, be in zip(self.ctx.primes, self.ctx.backends)
        ]

    def ring_vecs(self) -> list:
        """The coefficient vector in every residue ring (immutable)."""
        return self.residues

    def from_ring_vecs(self, vecs) -> "RnsPoly":
        """An element of this one's ring from per-ring canonical vectors."""
        return RnsPoly(self.ctx, list(vecs))

    def max_coeff(self) -> int:
        return max(self.coeffs)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RnsPoly) and other.ctx.primes == self.ctx.primes:
            return all(
                be.eq(a, b)
                for a, b, be in zip(
                    self.residues, other.residues, self.ctx.backends
                )
            )
        if isinstance(other, (RnsPoly, RingPoly)) and other.q == self.q:
            return self.coeffs == other.coeffs
        return False

    def __repr__(self) -> str:
        bits = [p.bit_length() for p in self.ctx.primes]
        return f"RnsPoly(n={self.n}, chain={bits} bits)"


def eval_stacks(polys, lazy: bool = False) -> list:
    """Per residue ring, the evaluation-domain stack of ``polys`` (one row
    each; all in one ring and representation): a single stacked forward
    pass per ring, rows canonical unless ``lazy`` (see
    :meth:`~repro.he.ntt.NegacyclicNtt.forward_stack`).
    """
    columns = zip(*(poly.ring_vecs() for poly in polys))
    return [
        ntt.forward_stack(list(column), lazy)
        for ntt, column in zip(polys[0].ring_ntts(), columns)
    ]


def key_switch_inner(digits, eval_keys):
    """(Σ_j d_j·k0_j, Σ_j d_j·k1_j) with eval-domain key stacks.

    ``digits`` are coefficient-domain ring elements (all the same
    representation); ``eval_keys`` holds one ``(K0, K1)`` pair of stacks
    per residue ring, a row per digit
    (:meth:`repro.he.bfv.GaloisKeys.eval_keys`). Each ring pays one
    stacked digit forward pass, the eval-domain inner product
    (:meth:`~repro.he.ntt.NegacyclicNtt.key_switch_eval`) and one
    two-vector inverse — key material is never forward-transformed here.
    Bit-identical to a per-digit ``multiply_shared`` + accumulate loop.
    Digits and keys must be one per gadget factor; a count mismatch
    raises instead of truncating.
    """
    first = digits[0]
    columns = zip(*(d.ring_vecs() for d in digits))
    out = [
        ntt.key_switch_inner_vec(list(column), k0, k1)
        for ntt, column, (k0, k1) in zip(
            first.ring_ntts(), columns, eval_keys, strict=True
        )
    ]
    m0, m1 = zip(*out)
    return first.from_ring_vecs(m0), first.from_ring_vecs(m1)


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

    __slots__ = ("_like", "_ntts", "e0", "e1")

    def __init__(self, like, ntts, e0, e1):
        self._like = like  # any element of the ring (rebuilds polys)
        self._ntts = ntts
        self.e0 = e0
        self.e1 = e1

    @classmethod
    def from_coeff(cls, c0, c1) -> "EvalPair":
        """Transform a coefficient-domain pair (one two-row pass per ring)."""
        e0, e1 = zip(*eval_stacks([c0, c1]))
        return cls(c1, c1.ring_ntts(), e0, e1)

    def to_coeff(self):
        """Back to coefficient-domain ring elements (c0, c1)."""
        c0, c1 = zip(
            *(
                ntt.inverse_stack([a, b])
                for ntt, a, b in zip(self._ntts, self.e0, self.e1)
            )
        )
        return self._like.from_ring_vecs(c0), self._like.from_ring_vecs(c1)

    def times(self, plain) -> "EvalPair":
        """plain ⊙ self: ``plain`` holds, per residue ring, the (possibly
        lazy) eval vector of the multiplier."""
        e0, e1 = [], []
        for ntt, row, a, b in zip(self._ntts, plain, self.e0, self.e1):
            e0.append(ntt.backend.mul(row, a, ntt.q))
            e1.append(ntt.backend.mul(row, b, ntt.q))
        return EvalPair(self._like, self._ntts, e0, e1)

    def keyed(self, eval_keys) -> list[tuple]:
        """Per residue ring, the key stacks of one Galois element with
        this pair's components appended as one more row each,
        ``(K0 ⧺ e0, K1 ⧺ e1)``: the canonical side of every
        :meth:`rotated_plus` that adds a multiple of this pair, stacked
        once per matvec instead of once per step."""
        return [
            (ntt.backend.stack([*k0, a]), ntt.backend.stack([*k1, b]))
            for ntt, (k0, k1), a, b in zip(
                self._ntts, eval_keys, self.e0, self.e1, strict=True
            )
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
        lazily reduced inner product, ``Σ_j d_j·k_j + plain·x``.
        """
        c1 = self._like.from_ring_vecs(
            [ntt.inverse_vec(e) for ntt, e in zip(self._ntts, self.e1)]
        )
        rotated_c1 = c1.automorphism(galois_element)
        own_digits = rotated_c1.own_digits(groups)
        digit_vecs = [
            d.ring_vecs() for d in rotated_c1.decompose(groups, base_bits)
        ]
        e0, e1 = [], []
        for i, (ntt, (k0, k1)) in enumerate(zip(self._ntts, keyed, strict=True)):
            be = ntt.backend
            own = own_digits[i]
            index = ntt.automorphism_index(galois_element)
            rows = list(
                ntt.forward_stack(
                    [vecs[i] for j, vecs in enumerate(digit_vecs) if j != own],
                    lazy=True,
                )
            )
            if own is not None:
                rows.insert(own, be.permute(self.e1[i], index))
            rows.append(plain[i])
            m0, m1 = ntt.key_switch_eval(be.stack(rows), k0, k1)
            e0.append(be.add(be.permute(self.e0[i], index), m0, ntt.q))
            e1.append(m1)
        return EvalPair(self._like, self._ntts, e0, e1)


def multiply_shared(shared, others):
    """Products shared*o for each ring element o, batching NTT transforms.

    The shared operand (the lifted plaintext in ``mul_plain``) is
    forward-transformed once and all transforms run as stacked plan
    calls — see
    :meth:`~repro.he.ntt.NegacyclicNtt.multiply_shared_vec`. Dispatches on
    representation; results are bit-identical to ``[shared * o for o in
    others]`` either way.
    """
    others = list(others)
    if isinstance(shared, RnsPoly):
        return shared.mul_shared(others)
    coerced = []
    for o in others:
        shared._check(o)  # same ValueError the elementwise path raises
        coerced.append(shared._coerce(o))
    be = shared.backend
    ctx = _context(shared.n, shared.q, be)
    vecs = ctx.multiply_shared_vec(shared.vec, coerced)
    return [RingPoly._from_vec(v, shared.q, be) for v in vecs]
