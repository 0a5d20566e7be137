"""The BFV (Brakerski/Fan-Vercauteren) homomorphic encryption scheme.

Implements exactly the surface DELPHI needs from SEAL: key generation,
encryption, decryption, ciphertext addition, plaintext multiplication and
addition, and slot rotations via Galois automorphisms with gadget key
switching (CRT digits on a prime chain, positional digits otherwise).
Ciphertext-ciphertext multiplication is deliberately absent — the hybrid
protocol never uses it.

The ciphertext-ring representation follows from the parameter set and
its backend (see :meth:`repro.he.params.BfvParams.resolve_representation`):
``bigint`` keeps one coefficient vector mod q (the python backend),
``rns`` keeps CRT residues per chain prime so wide moduli run on the
vectorized backend. Both produce bit-identical transcripts under the
same randomness; everything below the construction helpers is
representation-agnostic.

Everything the client sends is made with its secret key: ``Enc(r)`` is a
symmetric encryption ``(-(a·s + e) + Δm, a)`` and each Galois-key digit
is ``(-(a_j·s + e_j) + g_j·σ(s), a_j)``, every uniform ``a`` expanded
from a fresh 32-byte seed (:func:`uniform_from_seed`), so the wire
carries the seed in its place — SEAL's seeded serialization. Public-key
encryption stays for callers that hold only a :class:`PublicKey`; the
protocol never makes or sends one.

What the server sends back is modulus-switched first
(:meth:`BfvContext.mod_switch`): rounded down to the chain minus its
last key-switching group, the shortest modulus with margin for the
client's decryption. A ciphertext knows its own modulus
(:attr:`Ciphertext.q`); decryption and the noise budget work at it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate

from repro.backend import RnsContext, backend_for
from repro.crypto.prg import SEED_BYTES, expand_uniform
from repro.crypto.rng import SecureRandom
from repro.he.params import BfvParams
from repro.he.polynomial import (
    RingPoly,
    RnsPoly,
    eval_stacks,
    key_switch_inner,
    multiply_shared,
)


@dataclass
class SecretKey:
    params: BfvParams
    s: "RingPoly | RnsPoly"


@dataclass
class PublicKey:
    """A public encryption key; the protocol's client encrypts with its
    secret key instead and never sends one."""

    params: BfvParams
    p0: "RingPoly | RnsPoly"  # -(a*s + e)
    p1: "RingPoly | RnsPoly"  # a

    @property
    def byte_size(self) -> int:
        return self.params.ciphertext_bytes


@dataclass
class GaloisKeys:
    """Key-switching keys for a set of Galois elements.

    ``keys`` holds the coefficient-domain components and ``seeds`` the
    seed each digit's uniform ``k1`` expands from; ``k0`` and that seed
    are the serialized form (``network/serialize.py`` reads exactly
    these, so wire formats are independent of any cached transform
    state). The evaluation-domain form every rotation actually
    multiplies against lives in ``_eval``: a derived cache (never
    serialized, excluded from equality) built once per Galois element via
    :meth:`eval_keys` — eagerly at keygen, lazily after deserialization.
    """

    params: BfvParams
    keys: dict[int, list[tuple["RingPoly | RnsPoly", "RingPoly | RnsPoly"]]]
    seeds: dict[int, list[bytes]] = field(default_factory=dict)
    _eval: dict[int, list[tuple]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def byte_size(self) -> int:
        per_digit = self.params.seeded_ciphertext_bytes
        return sum(len(digits) * per_digit for digits in self.keys.values())

    def eval_keys(self, galois_element: int) -> list[tuple]:
        """Per residue ring, the ``(K0, K1)`` evaluation-domain stacks of
        one element's key (a row per digit), built once.

        All 2·D components of all rings go through one forward plan
        call and are kept as the two halves of each ring's share of its
        output, which is the shape the key-switch inner product
        consumes: nothing is transformed, re-stacked or copied per
        rotation. The stacks survive `_NTT_CACHE` eviction because they
        are stored here, not in the NTT context.
        """
        stacks = self._eval.get(galois_element)
        if stacks is None:
            pairs = self.keys[galois_element]
            both = eval_stacks(
                [k0 for k0, _ in pairs] + [k1 for _, k1 in pairs]
            )
            d = len(pairs)
            stacks = self._eval[galois_element] = [
                (rows[:d], rows[d:]) for rows in both
            ]
        return stacks


class Ciphertext:
    """A two-component BFV ciphertext (c0 + c1*s ≈ delta*m).

    ``seed`` is set on a fresh symmetric encryption, whose ``c1`` is the
    expansion of that seed: it travels in ``c1``'s place. Any operation
    yields an unseeded ciphertext. Its ring is the parameters' q, or
    :attr:`~repro.he.params.BfvParams.switched_q` after
    :meth:`BfvContext.mod_switch`.
    """

    __slots__ = ("params", "c0", "c1", "seed")

    def __init__(self, params: BfvParams, c0, c1, seed: bytes | None = None):
        self.params = params
        self.c0 = c0
        self.c1 = c1
        self.seed = seed

    @property
    def q(self) -> int:
        """The modulus this ciphertext is at."""
        return self.c0.q

    @property
    def byte_size(self) -> int:
        if self.seed is not None:
            return self.params.seeded_ciphertext_bytes
        return 2 * self.params.n * ((self.q.bit_length() + 7) // 8)

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        return Ciphertext(self.params, self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Ciphertext") -> "Ciphertext":
        return Ciphertext(self.params, self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Ciphertext":
        return Ciphertext(self.params, -self.c0, -self.c1)


def check_digit_count(params: BfvParams, galois_element: int, found: int) -> None:
    """Reject a Galois key whose digit count is not the parameters' gadget
    (e.g. a one-digit-per-prime key from an older build): the key switch
    would otherwise pair digits against the wrong factors and decrypt to
    noise.
    """
    expected = params.num_decomp_digits
    if found != expected:
        raise ValueError(
            f"Galois key for element {galois_element} carries {found} "
            f"key-switching digits; these parameters use {expected}"
        )


def make_ring_element(coeffs, params: BfvParams):
    """Ciphertext-ring element in the params' resolved representation
    (from integer coefficients; wire bytes use
    :func:`ring_element_from_bytes`)."""
    if params.resolve_representation() == "rns":
        ctx = RnsContext.for_primes(params.rns_primes, prefer=params.backend)
        return RnsPoly.from_coeffs(ctx, coeffs)
    return RingPoly(
        coeffs, params.q, backend=backend_for(params.q, prefer=params.backend)
    )


def uniform_from_seed(seed: bytes, params: BfvParams):
    """The uniform ring element ``seed`` expands to, in the params'
    resolved representation. On a chain it is one uniform residue vector
    per prime (the CRT image of uniform mod q), so no wide integer is
    ever sampled; the bigint oracle reconstructs the same element from
    the same residues."""
    if params.rns_primes is None:
        (coeffs,) = expand_uniform(seed, params.n, (params.q,))
        return make_ring_element(coeffs, params)
    rns = RnsContext.for_primes(params.rns_primes, prefer=params.backend)
    rows = expand_uniform(seed, params.n, rns.primes)
    poly = RnsPoly(
        rns, [rns.backend.asvec(row, prime) for row, prime in zip(rows, rns.primes)]
    )
    if params.resolve_representation() == "rns":
        return poly
    return make_ring_element(poly.coeffs, params)


def ring_element_from_bytes(data, params: BfvParams, primes=None):
    """Ring element from its wire form (``n`` little-endian integers of
    ``len(data) // n`` bytes), landing directly in the params' resolved
    representation — bytes to residues or to the backend vector, with no
    list of Python ints in between on the vectorized backend. ``primes``
    (a prefix of the chain, e.g. the switched one) names a smaller ring
    than the whole chain's.
    """
    width = len(data) // params.n
    primes = primes or params.rns_primes
    if params.resolve_representation() == "rns":
        ctx = RnsContext.for_primes(primes, prefer=params.backend)
        return RnsPoly(ctx, ctx.unpack_le(data, width))
    q = params.q if primes is None else math.prod(primes)
    be = backend_for(q, prefer=params.backend)
    (vec,) = be.unpack_le(data, width, (q,))
    return RingPoly._from_vec(vec, q, be)


class BfvContext:
    """Stateless algorithm bundle for one parameter set.

    Separate from the key material so the client and the server can share a
    context while holding different keys, mirroring how SEAL contexts are
    shared in DELPHI.
    """

    def __init__(self, params: BfvParams, rng: SecureRandom | None = None):
        self.params = params
        self._rng = rng or SecureRandom()
        # Resolved once so every polynomial this context creates agrees;
        # oversized q falls back to the exact python backend automatically.
        self._rq = backend_for(params.q, prefer=params.backend)
        self._rt = backend_for(params.t, prefer=params.backend)
        self._rns = (
            RnsContext.for_primes(params.rns_primes, prefer=params.backend)
            if params.resolve_representation() == "rns"
            else None
        )

    def _ring_poly(self, coeffs):
        if self._rns is not None:
            return RnsPoly.from_coeffs(self._rns, coeffs)
        return RingPoly(coeffs, self.params.q, backend=self._rq)

    def _ternary_poly(self):
        """A ternary ring element (a secret key, public-key encryption's u):
        the residue chain takes the draw as an array, the exact ring as ints."""
        draw = self._rng.ternary_array(self.params.n)
        return self._ring_poly(draw if self._rns is not None else draw.tolist())

    def _lift_plain(self, plaintext: RingPoly):
        """Reinterpret a mod-t plaintext in the ciphertext ring."""
        if self._rns is not None:
            # Plaintext coefficients are < t; each backend reduces them
            # into its residue ring directly (vectorized when native).
            return RnsPoly.from_coeffs(self._rns, plaintext.vec)
        return plaintext.lift(self.params.q, backend=self._rq)

    def _scale_plain(self, plaintext: RingPoly):
        """The delta-scaling lift: coefficients * floor(q/t) mod q."""
        if self._rns is not None:
            return self._lift_plain(plaintext) * self.params.delta
        return plaintext.lift_scale(
            self.params.delta, self.params.q, backend=self._rq
        )

    # -- key generation ----------------------------------------------------

    def secret_keygen(self) -> SecretKey:
        """A ternary secret key: all the protocol's client needs."""
        return SecretKey(self.params, self._ternary_poly())

    def keygen(self) -> tuple[SecretKey, PublicKey]:
        """A secret key and its public key ``(-(a·s + e), a)``."""
        sk = self.secret_keygen()
        p0, a, _ = self._seeded_sample(sk)
        return sk, PublicKey(self.params, p0, a)

    def galois_keygen(self, sk: SecretKey, elements: list[int]) -> GaloisKeys:
        """Generate key-switching keys for each Galois element, each
        digit's uniform half from its own seed."""
        p = self.params
        factors = p.gadget_factors()
        keys: dict[int, list[tuple]] = {}
        seeds: dict[int, list[bytes]] = {}
        for g in elements:
            rotated_s = sk.s.automorphism(g)
            keys[g], seeds[g] = [], []
            for factor in factors:
                # One key-switching digit: -(a*s + e) + rotated_s * g_j.
                k0, a_j, seed = self._seeded_sample(sk)
                keys[g].append((k0 + rotated_s * factor, a_j))
                seeds[g].append(seed)
        gk = GaloisKeys(p, keys, seeds)
        for g in elements:
            gk.eval_keys(g)  # pay the key-side forward NTTs once, here
        return gk

    # -- encryption / decryption -------------------------------------------

    def encrypt(self, key: SecretKey | PublicKey, plaintext: RingPoly) -> Ciphertext:
        """Encrypt a plaintext polynomial with coefficients in [0, t).

        Under a :class:`SecretKey` the encryption is symmetric and seeded,
        ``(-(a·s + e) + Δm, a)``: one noise term, and ``a`` travels as its
        seed. Under a :class:`PublicKey` it is ``(u·p0 + e1 + Δm, u·p1 + e2)``.
        """
        p = self.params
        self._check_plaintext(plaintext)
        if isinstance(key, SecretKey):
            c0, a, seed = self._seeded_sample(key)
            return Ciphertext(p, c0 + self._scale_plain(plaintext), a, seed)
        pk = key
        u = self._ternary_poly()
        e1, e2 = self._noise(), self._noise()
        scaled = self._scale_plain(plaintext)
        # u multiplies both key components: one shared forward transform.
        m0, m1 = multiply_shared(u, (pk.p0, pk.p1))
        return Ciphertext(p, m0 + e1 + scaled, m1 + e2)

    def decrypt(self, sk: SecretKey, ct: Ciphertext) -> RingPoly:
        """Decrypt to a plaintext polynomial over Z_t, at the ciphertext's
        own modulus."""
        t = self.params.t
        # The rounding divide floor((t·c + floor(q/2)) / q) mod t: on a
        # chain it runs on the residues themselves (scale-and-round, no
        # coefficient rebuilt as an integer), in one ring on exact ints.
        return RingPoly(self._phase(sk, ct).scale_round(t), t, backend=self._rt)

    def noise_budget_bits(self, sk: SecretKey, ct: Ciphertext) -> int:
        """Remaining noise budget in bits at the ciphertext's own modulus
        q: ``(q // 2t).bit_length()`` for a noiseless one, one bit less
        per bit of noise, 0 when decryption may fail."""
        q, t = ct.q, self.params.t
        delta = q // t
        message = self.decrypt(sk, ct).coeffs
        residual = (
            (c - delta * m) % q
            for c, m in zip(self._phase(sk, ct).coeffs, message)
        )
        worst = max(min(c, q - c) for c in residual)  # centered magnitude
        return max(0, (q // (2 * t)).bit_length() - worst.bit_length())

    def mod_switch(self, ct: Ciphertext) -> Ciphertext:
        """``ct`` rounded to the chain the parameters switch returns to,
        round(c·q'/q) per coefficient of both components
        (:attr:`~repro.he.params.BfvParams.switched_primes`); the identity
        when that drops nothing.

        It divides the noise by q/q' and adds a rounding error of about
        √n, and Δm becomes Δ'm plus m·(q' mod t)/t, up to t, which is
        what sets the budget: at delphi the four primes kept leave 39 bits
        after the benchmark matvecs, three would leave 10 (pinned in
        ``tests/test_keyswitch_gadget.py``).
        """
        primes = self.params.switched_primes
        if primes is None:
            return ct
        return Ciphertext(
            self.params, ct.c0.mod_switch(primes), ct.c1.mod_switch(primes)
        )

    # -- homomorphic operations ---------------------------------------------

    def add_plain(self, ct: Ciphertext, plaintext: RingPoly) -> Ciphertext:
        p = self.params
        self._check_plaintext(plaintext)
        scaled = self._scale_plain(plaintext)
        return Ciphertext(p, ct.c0 + scaled, ct.c1)

    def sub_plain(self, ct: Ciphertext, plaintext: RingPoly) -> Ciphertext:
        p = self.params
        self._check_plaintext(plaintext)
        scaled = self._scale_plain(plaintext)
        return Ciphertext(p, ct.c0 - scaled, ct.c1)

    def mul_plain(self, ct: Ciphertext, plaintext: RingPoly) -> Ciphertext:
        """Multiply by a plaintext polynomial (coefficients in [0, t)).

        The lifted plaintext multiplies both ciphertext components, so its
        forward NTT is shared and all transforms of all rings run as one
        forward and one inverse plan call (see
        :func:`repro.he.polynomial.multiply_shared`).
        """
        p = self.params
        self._check_plaintext(plaintext)
        lifted = self._lift_plain(plaintext)
        c0, c1 = multiply_shared(lifted, (ct.c0, ct.c1))
        return Ciphertext(p, c0, c1)

    def rotation_keys(self, galois_element: int, gk: GaloisKeys) -> list[tuple]:
        """The evaluation-domain key stacks for one rotation, after the
        checks every key switch makes first: the key exists (``KeyError``)
        and carries the parameters' digit count (``ValueError``)."""
        if galois_element not in gk.keys:
            raise KeyError(f"no Galois key for element {galois_element}")
        check_digit_count(
            self.params, galois_element, len(gk.keys[galois_element])
        )
        return gk.eval_keys(galois_element)

    def rotate(self, ct: Ciphertext, galois_element: int, gk: GaloisKeys) -> Ciphertext:
        """Apply the automorphism X -> X^g and switch back to the original key.

        The key-switch inner product runs against the stored eval-domain
        key stacks (:meth:`GaloisKeys.eval_keys`) — one forward plan call
        over all digits of all rings and a single two-row inverse, no
        key-side transforms. The digits come from the parameters' gadget
        (:meth:`~repro.he.params.BfvParams.gadget_factors`): on a chain
        they are c1 mod each group of chain primes, built from the
        residues c1 already consists of. A chain of rotations and
        plaintext products should not call this in a loop:
        :meth:`repro.he.linear.HomomorphicLinearEvaluator.matvec` keeps
        the ciphertext in the evaluation domain in between.
        """
        p = self.params
        eval_keys = self.rotation_keys(galois_element, gk)
        rotated_c0 = ct.c0.automorphism(galois_element)
        rotated_c1 = ct.c1.automorphism(galois_element)
        digits = rotated_c1.decompose(p.digit_groups, p.decomp_bits)
        m0, m1 = key_switch_inner(digits, eval_keys)
        return Ciphertext(p, rotated_c0 + m0, m1)

    def plain_evals(self, plaintexts: list[RingPoly]) -> list:
        """Per residue ring of the ciphertext modulus, the evaluation-
        domain stack (a row per plaintext, lazily reduced) of plaintexts
        lifted into the ciphertext ring — the multiplier form of
        :meth:`mul_plain`, a block at a time through one plan call. Every
        plaintext passes the degree and range check ``mul_plain``
        applies."""
        for plaintext in plaintexts:
            self._check_plaintext(plaintext)
        return eval_stacks(
            [self._lift_plain(plaintext) for plaintext in plaintexts],
            lazy=True,
        )

    # -- helpers --------------------------------------------------------------

    def _phase(self, sk: SecretKey, ct: Ciphertext):
        """c0 + c1·s at the ciphertext's modulus — a prefix of the chain's
        product — with s reduced to it."""
        s = sk.s
        if ct.q != s.q:
            chain = self.params.rns_primes or ()
            products = list(accumulate(chain, operator.mul))
            if ct.q not in products:
                raise ValueError("ciphertext modulus is not a prefix of the chain")
            s = s.reduce_to(chain[: products.index(ct.q) + 1])
        return ct.c0 + ct.c1 * s

    def _seeded_sample(self, sk: SecretKey):
        """``(-(a·s + e), a, seed)``: an RLWE sample under ``sk`` whose
        uniform ``a`` expands from a fresh seed, drawn before ``e``."""
        seed = self._rng.bytes(SEED_BYTES)
        a = uniform_from_seed(seed, self.params)
        return -(a * sk.s + self._noise()), a, seed

    def _noise(self):
        p = self.params
        return self._ring_poly(
            self._rng.centered_binomial_vector(p.n, p.noise_eta)
        )

    def _check_plaintext(self, plaintext: RingPoly) -> None:
        p = self.params
        if plaintext.n != p.n:
            raise ValueError("plaintext degree mismatch")
        if plaintext.max_coeff() >= p.t:
            raise ValueError("plaintext coefficients must be reduced mod t")
