"""BFV parameter sets.

The DELPHI/Gazelle pipeline only ever evaluates depth-1 circuits under HE
(one plaintext-ciphertext product plus additions and rotations per linear
layer), so a modest ciphertext modulus gives ample noise budget. The
plaintext modulus doubles as the secret-sharing field, exactly as in
DELPHI where the SEAL plain modulus equals the share prime.

Wide ciphertext moduli come in two representations (see
:mod:`repro.he.polynomial`):

* ``bigint`` — one coefficient vector mod q; exact on the python backend
  for any width. The oracle semantics.
* ``rns`` — q is a product of small NTT primes (``rns_primes``) and ring
  elements live as per-prime residue vectors, so the whole ciphertext
  ring runs on the vectorized numpy backend. SEAL does exactly this.

``representation="auto"`` (optionally overridden by the
``REPRO_REPRESENTATION`` environment variable) picks ``rns`` whenever the
parameter set carries a chain, the modulus is too wide for the numpy
backend directly (q >= 2^62), and a vectorized backend is active —
i.e. precisely the case where ``bigint`` would fall back to
arbitrary-precision Python.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.crypto.modmath import (
    crt_combine,
    find_ntt_prime,
    generate_ntt_primes,
    register_modulus_factors,
)

_REPRESENTATIONS = ("auto", "bigint", "rns")


@dataclass(frozen=True)
class BfvParams:
    """Ring-LWE parameters for the BFV scheme.

    Attributes:
        n: polynomial ring degree (power of two); also the slot count.
        q: ciphertext coefficient modulus (≡ 1 mod 2n): a single NTT
            prime, or the product of the ``rns_primes`` chain.
        t: plaintext modulus (prime, ≡ 1 mod 2n so batching works).
        noise_eta: centered-binomial width for fresh encryption noise.
        decomp_bits: key-switching digit width of a *chainless* modulus
            (base-2^w positional digits; defaults to 16). Parameter sets
            with an ``rns_primes`` chain key-switch on the chain itself —
            one digit per prime, see :meth:`gadget_factors` — and reject
            a ``decomp_bits`` rather than ignore it.
        backend: compute backend preference ('auto', 'python', 'numpy')
            for every object built from these params; whatever is chosen,
            moduli a backend cannot handle exactly fall back to python
            (see :mod:`repro.backend`).
        rns_primes: optional CRT chain of distinct NTT primes whose
            product is q; required for the ``rns`` representation.
        representation: ciphertext-ring representation ('auto', 'bigint',
            'rns'); resolve with :meth:`resolve_representation`.
    """

    n: int
    q: int
    t: int
    noise_eta: int = 4
    decomp_bits: int | None = None
    backend: str = "auto"
    rns_primes: tuple[int, ...] | None = None
    representation: str = "auto"

    def __post_init__(self) -> None:
        if self.n & (self.n - 1):
            raise ValueError("ring degree must be a power of two")
        if (self.q - 1) % (2 * self.n) != 0:
            raise ValueError("q must be congruent to 1 mod 2n")
        if (self.t - 1) % (2 * self.n) != 0:
            raise ValueError("t must be congruent to 1 mod 2n for batching")
        if self.t >= self.q:
            raise ValueError("plaintext modulus must be below q")
        if self.representation not in _REPRESENTATIONS:
            raise ValueError(
                f"unknown representation {self.representation!r}; choose one "
                f"of {', '.join(_REPRESENTATIONS)}"
            )
        if self.rns_primes is None:
            if self.representation == "rns":
                raise ValueError("representation='rns' requires rns_primes")
            if self.decomp_bits is None:
                object.__setattr__(self, "decomp_bits", 16)
        else:
            if self.decomp_bits is not None:
                raise ValueError(
                    "decomp_bits applies to chainless parameters only: a "
                    "chain key-switches with one digit per rns_primes entry"
                )
            primes = tuple(int(p) for p in self.rns_primes)
            object.__setattr__(self, "rns_primes", primes)
            product = 1
            for p in primes:
                if (p - 1) % (2 * self.n) != 0:
                    raise ValueError(
                        f"RNS prime {p} is not NTT friendly for degree {self.n}"
                    )
                product *= p
            if product != self.q:
                raise ValueError("rns_primes must multiply to q")
            # Distinctness is checked here; the bigint oracle needs the
            # factorization to find roots of unity in the composite ring.
            register_modulus_factors(self.q, primes)

    def resolve_representation(self) -> str:
        """The concrete ciphertext-ring representation for these params.

        Explicit ``representation`` wins; ``auto`` consults the
        ``REPRO_REPRESENTATION`` environment variable and otherwise picks
        ``rns`` exactly when it beats bigint: a chain exists, q is too
        wide for direct vectorization, and the resolved backend for the
        chain's primes is vectorized. An env-forced ``rns`` on chainless
        params fails soft to ``bigint`` so configs stay portable.
        """
        rep = self.representation
        if rep == "auto":
            rep = os.environ.get("REPRO_REPRESENTATION", "").strip().lower()
            if rep not in ("bigint", "rns"):
                rep = "auto"
        if rep == "rns" and not self.rns_primes:
            return "bigint"
        if rep == "auto":
            if self.rns_primes is None or self.q < (1 << 62):
                return "bigint"
            from repro.backend import backend_for

            vectorized = (
                backend_for(max(self.rns_primes), prefer=self.backend).name
                != "python"
            )
            return "rns" if vectorized else "bigint"
        return rep

    @property
    def delta(self) -> int:
        """Plaintext scaling factor floor(q / t)."""
        return self.q // self.t

    @property
    def slot_count(self) -> int:
        return self.n

    @property
    def row_size(self) -> int:
        """Slots per batching row (n/2); rotations act within a row."""
        return self.n // 2

    @property
    def q_bits(self) -> int:
        return self.q.bit_length()

    @property
    def ciphertext_bytes(self) -> int:
        """Serialized size of a fresh 2-component ciphertext."""
        return 2 * self.n * ((self.q_bits + 7) // 8)

    @property
    def num_decomp_digits(self) -> int:
        """Key-switching digits per Galois key (= pairs on the wire)."""
        if self.rns_primes is not None:
            return len(self.rns_primes)
        return -(-self.q_bits // self.decomp_bits)

    def gadget_factors(self) -> list[int]:
        """The key-switching gadget g with <digits(c), g> = c mod q.

        Chain parameters use the RNS gadget SEAL uses: digit i of c is
        its residue mod p_i and g_i is the CRT idempotent
        (q/p_i)·[(q/p_i)^-1 mod p_i] — 1 mod p_i, 0 mod every other chain
        prime — so the digits are the residues the ring already holds.
        Chainless parameters use base-2^decomp_bits positional digits
        with g_j = 2^(j·decomp_bits).
        """
        if self.rns_primes is None:
            return [
                pow(2, j * self.decomp_bits, self.q)
                for j in range(self.num_decomp_digits)
            ]
        k = len(self.rns_primes)
        return [
            crt_combine([int(i == j) for j in range(k)], self.rns_primes)
            for i in range(k)
        ]

    field_cache: dict = field(default_factory=dict, compare=False, hash=False)


def toy_params(n: int = 256, t_bits: int = 17) -> BfvParams:
    """Small, fast parameters for unit tests (insecure; functional only).

    The ~100-bit ciphertext modulus — a chain of four 25-bit NTT primes,
    so the ring runs RNS-vectorized whenever numpy is available — leaves
    enough noise headroom for a chain of row rotations followed by a
    plaintext multiplication with full-width weights, which is what the
    diagonal-method matvec performs: key-switching on the four residues
    (see :func:`delphi_params`) it keeps 22 of its 76 fresh bits after a
    full-row (128-wide) matvec, 25 after a 16-wide one.
    """
    primes = generate_ntt_primes(n, count=4, bits=25)
    q = 1
    for p in primes:
        q *= p
    t = find_ntt_prime(t_bits, n)
    return BfvParams(n=n, q=q, t=t, rns_primes=primes)


def fast_params(n: int = 256, t_bits: int = 17, backend: str = "auto") -> BfvParams:
    """Vectorization-friendly parameters (insecure; functional only).

    Like :func:`toy_params` but with a single 62-bit ciphertext prime —
    the widest the numpy backend's Shoup reduction handles exactly — so
    the whole BFV pipeline runs vectorized without RNS bookkeeping. With
    no chain to key-switch on, it keeps the positional gadget, and the
    narrower q buys noise budget back by shrinking the digits to 4 bits
    (sixteen digits per rotation, each contributing far less noise): a
    16-wide diagonal matvec at a 17-bit plaintext field retains ~9 bits
    of budget and a full-row (128-wide) one 3-6, versus going negative
    with the default 16-bit digits. The python backend computes these
    parameters exactly too, which is what makes cross-backend parity and
    benchmark comparisons apples-to-apples.
    """
    q = find_ntt_prime(62, n)
    t = find_ntt_prime(t_bits, n)
    return BfvParams(n=n, q=q, t=t, decomp_bits=4, backend=backend)


def delphi_params() -> BfvParams:
    """Parameters mirroring DELPHI's SEAL configuration in spirit.

    DELPHI uses degree 8192 with a ~41-bit plain modulus (the share prime
    2061584302081 ≈ 2^41). We keep the 41-bit plaintext field but use degree
    2048 so arbitrary-precision execution stays tractable; byte accounting
    exposes the true n so cost hooks can scale.

    The ciphertext modulus is a ~180-bit chain of six 30-bit NTT primes —
    the same shape as the RNS chain SEAL uses for this profile. A 41-bit
    plaintext modulus needs that much width to absorb plain-multiplication
    noise: the (q mod t)·k rounding term reaches ~n·t² ≈ 2^93, against a
    q/2t ≈ 2^138 budget. (A single wide prime chosen ≡ 1 mod t could kill
    that term at 120 bits, but no <2^31 chain prime can satisfy a 41-bit
    congruence, and the chain is what puts the ring on the vectorized
    backend — SEAL makes the same trade.)

    Key switching uses the chain as its gadget, as SEAL does: six digits,
    the residues of c1, against the six CRT idempotents
    (:meth:`BfvParams.gadget_factors`) — half the key material of the
    twelve 16-bit positional digits this set used before, and no base
    conversion inside a rotation. The price is noise. One key switch adds
    Σ_i d_i·e_i with d_i < 2^30 and centered-binomial e_i (variance 2):
    about 2^30·sqrt(6·n·2) ≈ 2^37, peaks near 2^39, where 16-bit digits
    added ~2^25. The diagonal matvec then multiplies by full-width
    weights (~sqrt(n)·t ≈ 2^47 per term) and sums w terms, so the
    rotation share lands near 2^(86 + log2(w)/2) — now level with the
    rounding term instead of far below it. Measured budget after a
    width-w matvec with random 41-bit weights (fresh: 131 bits): 50 bits
    at w = 16 and 46 at w = 256, down from 55 and 51; the floor is pinned
    in ``tests/test_keyswitch_gadget.py``.
    """
    n = 2048
    t = find_ntt_prime(41, n)
    primes = generate_ntt_primes(n, count=6, bits=30)
    q = 1
    for p in primes:
        q *= p
    return BfvParams(n=n, q=q, t=t, rns_primes=primes)
