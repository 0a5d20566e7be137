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

import math
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
            see ``digit_primes`` and :meth:`gadget_factors` — and reject
            a ``decomp_bits`` rather than ignore it.
        backend: compute backend preference ('auto', 'python', 'numpy')
            for every object built from these params; whatever is chosen,
            moduli a backend cannot handle exactly fall back to python
            (see :mod:`repro.backend`).
        rns_primes: optional CRT chain of distinct NTT primes whose
            product is q; required for the ``rns`` representation.
        representation: ciphertext-ring representation ('auto', 'bigint',
            'rns'); resolve with :meth:`resolve_representation`.
        digit_primes: consecutive chain primes per key-switching digit
            (defaults to 1): digit G of c is ``c mod`` the product of the
            G-th group of ``rns_primes``. Must divide the chain length,
            and a group's product must stay below 2^62 so a digit fits a
            vectorized lane. Chainless parameters reject it, as a chain
            rejects ``decomp_bits``.
    """

    n: int
    q: int
    t: int
    noise_eta: int = 4
    decomp_bits: int | None = None
    backend: str = "auto"
    rns_primes: tuple[int, ...] | None = None
    representation: str = "auto"
    digit_primes: int | None = None

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
            if self.digit_primes is not None:
                raise ValueError(
                    "digit_primes applies to chain parameters only: a "
                    "chainless modulus key-switches on decomp_bits"
                )
            if self.decomp_bits is None:
                object.__setattr__(self, "decomp_bits", 16)
        else:
            if self.decomp_bits is not None:
                raise ValueError(
                    "decomp_bits applies to chainless parameters only: a "
                    "chain key-switches on groups of digit_primes primes"
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
            if self.digit_primes is None:
                object.__setattr__(self, "digit_primes", 1)
            if self.digit_primes < 1 or len(primes) % self.digit_primes:
                raise ValueError(
                    f"digit_primes={self.digit_primes} must divide the "
                    f"chain length {len(primes)}"
                )
            if any(math.prod(group) >= 1 << 62 for group in self.digit_groups):
                raise ValueError(
                    f"a group of {self.digit_primes} chain primes reaches "
                    "2^62: a key-switching digit must fit a 64-bit lane"
                )
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
    def digit_groups(self) -> tuple[tuple[int, ...], ...] | None:
        """The chain split into its key-switching groups of
        ``digit_primes`` consecutive primes (None without a chain) — what
        ``decompose`` takes next to ``decomp_bits``."""
        if self.rns_primes is None:
            return None
        k = self.digit_primes
        return tuple(
            self.rns_primes[i : i + k] for i in range(0, len(self.rns_primes), k)
        )

    @property
    def num_decomp_digits(self) -> int:
        """Key-switching digits per Galois key (= pairs on the wire)."""
        if self.rns_primes is not None:
            return len(self.rns_primes) // self.digit_primes
        return -(-self.q_bits // self.decomp_bits)

    def gadget_factors(self) -> list[int]:
        """The key-switching gadget g with <digits(c), g> = c mod q.

        Chain parameters use the RNS gadget SEAL uses: digit G of c is
        its residue mod P_G, the product of the G-th group of chain
        primes, and g_G is the CRT idempotent
        (q/P_G)·[(q/P_G)^-1 mod P_G] — 1 mod every prime of the group, 0
        mod every other chain prime. With ``digit_primes`` = 1 the digits
        are the residues the ring already holds. Chainless parameters use
        base-2^decomp_bits positional digits with g_j = 2^(j·decomp_bits).
        """
        if self.rns_primes is None:
            return [
                pow(2, j * self.decomp_bits, self.q)
                for j in range(self.num_decomp_digits)
            ]
        return [
            crt_combine([int(p in group) for p in self.rns_primes], self.rns_primes)
            for group in self.digit_groups
        ]

    field_cache: dict = field(default_factory=dict, compare=False, hash=False)


def toy_params(n: int = 256, t_bits: int = 17) -> BfvParams:
    """Small, fast parameters for unit tests (insecure; functional only).

    The ~100-bit ciphertext modulus — a chain of four 25-bit NTT primes,
    so the ring runs RNS-vectorized whenever numpy is available — leaves
    ample noise headroom for the diagonal-method matvec. Key switching
    keeps one digit per chain prime (``digit_primes=1``): the matvec
    rotates its accumulator, so a key-switch error is only ever *added*
    (see :func:`delphi_params`), but a 100-bit q has less room above the
    n·t² rounding term than delphi's 180 bits — four 25-bit digits keep
    38 of the 76 fresh bits after a full-row (128-wide) matvec and 44
    after a 16-wide one, two 50-bit digits would keep 20-23.
    """
    primes = generate_ntt_primes(n, count=4, bits=25)
    q = 1
    for p in primes:
        q *= p
    t = find_ntt_prime(t_bits, n)
    return BfvParams(n=n, q=q, t=t, rns_primes=primes, digit_primes=1)


def fast_params(n: int = 256, t_bits: int = 17, backend: str = "auto") -> BfvParams:
    """Vectorization-friendly parameters (insecure; functional only).

    Like :func:`toy_params` but with a single 62-bit ciphertext prime —
    the widest the numpy backend's Shoup reduction handles exactly — so
    the whole BFV pipeline runs vectorized without RNS bookkeeping. With
    no chain to key-switch on, it keeps the positional gadget: three
    21-bit digits. The diagonal matvec rotates its *accumulator*
    (:meth:`repro.he.linear.HomomorphicLinearEvaluator.matvec`), so each
    key switch adds its error Σ_j d_j·e_j ≈ 2^21·sqrt(3·n·2) ≈ 2^26 once,
    after the weights — w of them sum to ~2^30 at a full row, far below
    the n·t² ≈ 2^42 rounding term of the plaintext products that sets the
    budget. Measured after a matvec at a 17-bit plaintext field (fresh:
    37 bits): 4 bits at a full row (128 wide), 10 at 16 wide, the same at
    every digit width up to 21 bits; 31-bit digits (two of them) reach
    that term and drop to 1-4. The floors are pinned in
    ``tests/test_keyswitch_gadget.py``. The python backend computes these
    parameters exactly too, which is what makes cross-backend parity and
    benchmark comparisons apples-to-apples.
    """
    q = find_ntt_prime(62, n)
    t = find_ntt_prime(t_bits, n)
    return BfvParams(n=n, q=q, t=t, decomp_bits=21, backend=backend)


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

    Key switching uses the chain as its gadget, as SEAL does, two primes
    to a digit (``digit_primes=2``): three digits, c1 mod p_a·p_b (below
    2^60, rebuilt from the two residues in one 64-bit lane), against the
    CRT idempotents of the pairs (:meth:`BfvParams.gadget_factors`) —
    half the key material of one digit per prime, a quarter of the
    twelve 16-bit positional digits this set started with. The price is
    noise, and the matvec is arranged so that it is cheap: one key switch
    adds Σ_G d_G·e_G with d_G < 2^60 and centered-binomial e_G (variance
    2), about 2^60·sqrt(3·n·2) ≈ 2^67, and because the diagonal method
    rotates its *accumulator* (Horner order, see
    :meth:`repro.he.linear.HomomorphicLinearEvaluator.matvec`) that error
    is added after the weights have been multiplied in — w of them sum
    to ~2^(67 + log2(w)/2), against the ~2^93 rounding term above. (With
    input rotations every such error was scaled by ~sqrt(n)·t ≈ 2^47,
    which is what held the digits at 30 bits.) Measured budget after a
    width-w matvec with random 41-bit weights (fresh: 130 bits): 53 bits
    at w = 16, 48 at 64, 44 at 256 — identical with one digit per prime;
    the floors are pinned in ``tests/test_keyswitch_gadget.py``.
    """
    n = 2048
    t = find_ntt_prime(41, n)
    primes = generate_ntt_primes(n, count=6, bits=30)
    q = 1
    for p in primes:
        q *= p
    return BfvParams(n=n, q=q, t=t, rns_primes=primes, digit_primes=2)
