"""The key-switching gadget per parameter family, and what it costs.

Chain parameters (``toy_params``, ``delphi_params``) key-switch on the
chain itself — one digit per group of ``digit_primes`` chain primes (one
prime at toy, a pair at delphi), against the CRT idempotents of the
groups — while chainless ones (``fast_params``) keep base-2^w positional
digits, three of 21 bits. These tests pin the digit counts, the gadget
identity, the pair-CRT digit kernel against Python integers, bit-exact
parity across representations and backends, the noise budget each family
keeps after the matvecs it is asked for (and that the next wider gadget
would not keep it), the typed error an old-gadget key meets, and the
exact byte accounting that follows from the digit count.
"""

import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from repro.backend import (
    RnsContext,
    available_backends,
    backend_for,
    get_backend,
    using_backend,
)
from repro.core.protocol import HybridProtocol
from repro.core.validation import predict_comm
from repro.crypto.modmath import crt_combine, generate_ntt_primes
from repro.crypto.rng import SecureRandom
from repro.he.bfv import BfvContext, GaloisKeys
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator
from repro.he.params import BfvParams, delphi_params, fast_params, toy_params
from repro.he.polynomial import RingPoly, RnsPoly, clear_ntt_cache
from repro.network.serialize import deserialize_galois_keys, serialize_galois_keys
from repro.nn.datasets import tiny_dataset
from repro.nn.models import tiny_mlp
from repro.runtime.store import params_fingerprint

PARAM_SETS = {
    "delphi": delphi_params(),
    "toy": toy_params(),
    "fast": fast_params(),
}
DIGITS = {"delphi": 3, "toy": 4, "fast": 3}


def with_representation(params: BfvParams, rep: str) -> BfvParams:
    return dataclasses.replace(params, representation=rep)


def vectorized(params: BfvParams) -> BfvParams:
    """Pin the heavy cases to the vectorized path where numpy exists.

    Noise and byte counts do not depend on backend or representation
    (the parity tests here and in ``test_rns_parity`` hold them
    bit-identical), and a 256-wide delphi matvec on the python oracle is
    minutes — so the CI matrix legs that force python/bigint still run
    these on numpy residues.
    """
    if "numpy" not in available_backends():
        return params
    rep = "rns" if params.rns_primes else params.representation
    return dataclasses.replace(params, backend="numpy", representation=rep)


def keyed_context(params, seed):
    ctx = BfvContext(params, SecureRandom(seed))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    g = encoder.galois_element_for_rotation(1)
    return ctx, encoder, sk, pk, g, ctx.galois_keygen(sk, [g])


class TestGadgetShape:
    @pytest.mark.parametrize("name", PARAM_SETS)
    def test_digit_count(self, name):
        params = PARAM_SETS[name]
        assert params.num_decomp_digits == DIGITS[name]
        assert len(params.gadget_factors()) == DIGITS[name]

    def test_chain_digits_are_one_per_group_of_primes(self):
        for name, per_digit in (("delphi", 2), ("toy", 1)):
            params = PARAM_SETS[name]
            assert params.decomp_bits is None
            assert params.digit_primes == per_digit
            groups = params.digit_groups
            assert sum(groups, ()) == params.rns_primes
            assert {len(group) for group in groups} == {per_digit}
            assert params.num_decomp_digits == len(groups)
            # The CRT idempotents of the groups: 1 mod each of their own
            # primes, 0 mod the rest.
            for group, factor in zip(groups, params.gadget_factors()):
                assert [factor % p for p in params.rns_primes] == [
                    int(p in group) for p in params.rns_primes
                ]

    def test_chainless_digits_are_positional(self):
        params = PARAM_SETS["fast"]
        assert params.rns_primes is None and params.decomp_bits == 21
        assert params.digit_primes is None and params.digit_groups is None
        assert params.gadget_factors() == [
            1 << (21 * j) for j in range(params.num_decomp_digits)
        ]

    def test_digit_width_on_a_chain_is_rejected_not_ignored(self):
        toy = PARAM_SETS["toy"]
        with pytest.raises(ValueError, match="decomp_bits"):
            BfvParams(
                n=toy.n, q=toy.q, t=toy.t, rns_primes=toy.rns_primes,
                decomp_bits=16,
            )
        # Chainless parameters default to 16-bit digits, as before.
        fast = PARAM_SETS["fast"]
        assert BfvParams(n=fast.n, q=fast.q, t=fast.t).decomp_bits == 16

    def test_digit_primes_is_checked_at_construction(self):
        fast, toy, delphi = (PARAM_SETS[k] for k in ("fast", "toy", "delphi"))
        with pytest.raises(ValueError, match="digit_primes"):  # no chain
            BfvParams(n=fast.n, q=fast.q, t=fast.t, digit_primes=1)
        for bad in (0, 3, 8):  # does not divide the four-prime chain
            with pytest.raises(ValueError, match="divide the chain length 4"):
                dataclasses.replace(toy, digit_primes=bad)
        # 3 x 30 bits and 4 x 25 bits no longer fit a 64-bit lane.
        with pytest.raises(ValueError, match="2\\^62"):
            dataclasses.replace(delphi, digit_primes=3)
        with pytest.raises(ValueError, match="2\\^62"):
            dataclasses.replace(toy, digit_primes=4)
        # A chain defaults to one digit per prime; pairs of 25-bit primes fit.
        plain = BfvParams(n=toy.n, q=toy.q, t=toy.t, rns_primes=toy.rns_primes)
        assert plain.digit_primes == 1 and plain == toy
        assert dataclasses.replace(toy, digit_primes=2).num_decomp_digits == 2

    @pytest.mark.parametrize("name", PARAM_SETS)
    def test_digits_recombine_through_the_gadget(self, name):
        params = PARAM_SETS[name]
        rng = random.Random(11)
        q = params.q
        coeffs = [0, 1, q - 1, q // 2] + [
            rng.randrange(q) for _ in range(params.n - 4)
        ]
        poly = RingPoly(coeffs, q, backend=backend_for(q, prefer=params.backend))
        digits = poly.decompose(params.digit_groups, params.decomp_bits)
        assert len(digits) == params.num_decomp_digits
        factors = params.gadget_factors()
        if params.rns_primes:
            bound = max(math.prod(group) for group in params.digit_groups)
        else:
            bound = 1 << params.decomp_bits
        assert bound < 1 << 62  # a digit fits a vectorized lane
        for i in range(0, params.n, 97):
            parts = [d.coeffs[i] for d in digits]
            assert max(parts) < bound
            assert sum(d * g for d, g in zip(parts, factors)) % q == coeffs[i]

    def test_store_fingerprint_separates_the_gadgets(self):
        """The fingerprint covers the whole gadget — digit width without a
        chain, the chain and its grouping with one — so blobs minted under
        16-bit positional digits, one digit per prime, or another digit
        width live in other directories and are never looked up."""
        delphi, fast = PARAM_SETS["delphi"], PARAM_SETS["fast"]
        singles = dataclasses.replace(delphi, digit_primes=1)
        assert singles.num_decomp_digits == 6
        prints = {
            params_fingerprint(delphi),
            params_fingerprint(singles),
            params_fingerprint(fast),
            params_fingerprint(dataclasses.replace(fast, decomp_bits=4)),
        }
        assert len(prints) == 4
        for old_style in (
            (delphi.n, delphi.q, delphi.t, delphi.noise_eta, 16, delphi.rns_primes),
            (delphi.n, delphi.q, delphi.t, delphi.noise_eta, None, delphi.rns_primes),
        ):
            assert (
                hashlib.sha256(repr(old_style).encode()).hexdigest()[:12]
                not in prints
            )


class TestGadgetParity:
    """Same seed, same keys, same rotated ciphertext — whatever computes it."""

    @staticmethod
    def _transcript(params, seed=5):
        clear_ntt_cache()
        ctx, encoder, sk, pk, g, gk = keyed_context(params, seed)
        ct = ctx.encrypt(pk, encoder.encode(list(range(40))))
        out = ctx.rotate(ct, g, gk)
        return {
            "keys": [(k0.coeffs, k1.coeffs) for k0, k1 in gk.keys[g]],
            "wire": serialize_galois_keys(gk),
            "c0": out.c0.coeffs,
            "c1": out.c1.coeffs,
            "decoded": encoder.decode(ctx.decrypt(sk, out))[:39],
        }

    @pytest.mark.parametrize("name", ("toy", "delphi"))
    def test_rns_equals_bigint(self, name):
        # The delphi chain at degree 256 (its primes are 1 mod 4096, so
        # they serve any smaller power of two) keeps the oracle quick.
        params = dataclasses.replace(PARAM_SETS[name], n=256)
        rns = self._transcript(with_representation(params, "rns"))
        big = self._transcript(with_representation(params, "bigint"))
        assert rns == big
        assert rns["decoded"] == list(range(1, 40))

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy backend unavailable"
    )
    @pytest.mark.parametrize("name", ("fast", "toy"))
    def test_python_equals_numpy(self, name):
        # Pinned to rns, the chain computes as residues on either backend.
        params = {
            "fast": fast_params(n=128),
            "toy": with_representation(toy_params(n=128), "rns"),
        }[name]
        runs = {}
        for backend in ("python", "numpy"):
            with using_backend(backend):
                runs[backend] = self._transcript(params)
        assert runs["python"] == runs["numpy"]
        assert runs["numpy"]["decoded"] == list(range(1, 40))

class TestPairDigits:
    """Digit G of c is c mod the product of prime group G, rebuilt from
    the group's residues in one 64-bit lane (``crt_lift``): numpy
    residues, python residues and the bigint ``c mod P_G`` agree on every
    coefficient, worst cases included."""

    PAIRS = {
        "delphi": PARAM_SETS["delphi"],
        "toy-pairs": dataclasses.replace(PARAM_SETS["toy"], digit_primes=2),
    }

    @staticmethod
    def coefficients(params):
        """Edge coefficients first — 0, 1, q - 1 (every residue p - 1),
        and per pair (p_a > p_b) the residue patterns that stress the
        lift: r_a = p_a - 1 >= p_b over r_b = 0, r_a = 0 under r_b =
        p_b - 1, both maximal — then uniform draws."""
        q, primes = params.q, params.rns_primes
        rng = random.Random(7)
        coeffs = [0, 1, q - 1, q // 2]
        for a, b in params.digit_groups:
            assert a > b  # chains are generated downward from 2^bits
            for r_a, r_b in ((a - 1, 0), (0, b - 1), (a - 1, b - 1), (b, 1)):
                residues = [
                    r_a if p == a else r_b if p == b else rng.randrange(p)
                    for p in primes
                ]
                coeffs.append(crt_combine(residues, primes))
        return coeffs + [rng.randrange(q) for _ in range(64 - len(coeffs))]

    @pytest.mark.parametrize("name", PAIRS)
    def test_rns_digits_are_the_bigint_reference_on_every_backend(self, name):
        params = self.PAIRS[name]
        groups = params.digit_groups
        coeffs = self.coefficients(params)
        want = [[c % math.prod(group) for c in coeffs] for group in groups]
        big = RingPoly(coeffs, params.q).decompose(groups, None)
        assert [d.coeffs for d in big] == want
        for backend in available_backends():
            ctx = RnsContext.for_primes(params.rns_primes, prefer=backend)
            assert ctx.backend.name == backend
            poly = RnsPoly.from_coeffs(ctx, coeffs)
            digits = poly.decompose(groups)
            # A digit is below P_G < q, so its CRT reconstruction is itself.
            assert [d.coeffs for d in digits] == want
            # In its own group's rings a digit is the residue already held.
            owners = poly.own_digits(groups)
            assert owners == [j for j, group in enumerate(groups) for _ in group]
            for ring, owner in enumerate(owners):
                assert digits[owner].residues[ring] is poly.residues[ring]
        factors = params.gadget_factors()
        for i, c in enumerate(coeffs):
            assert sum(d[i] * g for d, g in zip(want, factors)) % params.q == c

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_lift_kernel_matches_python_ints(self, backend_name):
        """``crt_lift`` alone, beyond the shipped chains: the largest
        30/31-bit pairs, a 20-bit next to a 41-bit prime (the wide one
        reduces through the Shoup path on numpy), a triple of 20-bit
        primes, a group of one — every product below 2^62."""
        be = get_backend(backend_name)
        groups = [
            tuple(generate_ntt_primes(2048, 2, 30)),
            tuple(generate_ntt_primes(64, 2, 31)),
            (generate_ntt_primes(64, 1, 20)[0], generate_ntt_primes(64, 1, 41)[0]),
            (generate_ntt_primes(64, 1, 41)[0], generate_ntt_primes(64, 1, 20)[0]),
            tuple(generate_ntt_primes(64, 3, 20)),
            tuple(generate_ntt_primes(64, 1, 25)),
        ]
        rng = random.Random(9)
        for primes in groups:
            product = math.prod(primes)
            assert product < 1 << 62
            values = [0, 1, product - 1, product // 2, primes[0] % product]
            values += [  # one residue maximal, the others 0
                crt_combine([p - 1 if p == top else 0 for p in primes], primes)
                for top in primes
            ]
            values += [rng.randrange(product) for _ in range(50)]
            residues = [be.asvec([v % p for v in values], p) for p in primes]
            assert be.tolist(be.crt_lift(residues, primes)) == values


# (parameter set, (n_out, n_in)) -> bits that must remain.
FLOORS = {
    ("delphi", (256, 256)): 42,  # measured 44 (one digit per prime: 44)
    ("delphi", (8, 16)): 50,  # 53
    ("fast", (3, 128)): 3,  # 4 (sixteen 4-bit digits: 4)
    ("fast", (128, 16)): 9,  # 10
    ("toy", (128, 128)): 34,  # 38
}
TOO_WIDE = {
    "fast": dataclasses.replace(PARAM_SETS["fast"], decomp_bits=31),  # 1 and 4
    "toy": dataclasses.replace(PARAM_SETS["toy"], digit_primes=2),  # 20
}


def floor_id(case):
    name, (n_out, n_in) = case
    return f"{name}-{n_out}x{n_in}"


class TestNoiseBudgetFloor:
    """Bits of budget left after a diagonal matvec with full-width random
    weights — the minimum over eight keyed contexts, at every shape the
    benchmark mints and the widest each set is asked for. The matvec
    rotates its accumulator, so key-switch errors are added after the
    weights and the budget is set by the plaintext products alone: the
    measured minima (in the comments) are the same at every narrower
    gadget, and the next wider one — two 31-bit digits at fast, prime
    pairs at toy — falls below the floor, so the shipped widths are the
    edge, not a guess. Delphi's row holds 1024 slots; width 256 keeps the
    test at a couple of seconds per seed and the remaining factor of four
    in rotations costs two more bits.
    """

    SEEDS = range(1, 9)

    @staticmethod
    def budget_after_matvec(params, shape, seed):
        """Budget of ``matrix @ x`` under ``params`` keyed from ``seed``,
        after checking that it decrypts to the plaintext product."""
        n_out, n_in = shape
        assert params.row_size % n_in == 0
        ctx, encoder, sk, pk, g, gk = keyed_context(params, seed)
        rng = random.Random(seed)
        matrix = np.array(
            [[rng.randrange(params.t) for _ in range(n_in)] for _ in range(n_out)],
            dtype=np.uint64,
        )
        x = [rng.randrange(params.t) for _ in range(n_in)]
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
        out = evaluator.matvec(ct, matrix)
        assert evaluator.rotations_performed == n_in - 1
        want = [
            sum(int(w) * v for w, v in zip(row, x)) % params.t for row in matrix
        ]
        assert encoder.decode(ctx.decrypt(sk, out))[:n_out] == want
        return ctx.noise_budget_bits(sk, out)

    @pytest.mark.parametrize("case", FLOORS, ids=floor_id)
    def test_floor_after_matvec(self, case):
        name, shape = case
        params = vectorized(PARAM_SETS[name])
        worst = min(
            self.budget_after_matvec(params, shape, seed) for seed in self.SEEDS
        )
        assert worst >= FLOORS[case]

    @pytest.mark.parametrize(
        "case", [case for case in FLOORS if case[0] in TOO_WIDE], ids=floor_id
    )
    def test_the_next_wider_gadget_falls_below_the_floor(self, case):
        name, shape = case
        params = vectorized(TOO_WIDE[name])
        assert params.num_decomp_digits == 2
        worst = min(
            self.budget_after_matvec(params, shape, seed) for seed in self.SEEDS
        )
        assert worst < FLOORS[case]


class TestDigitCountMismatch:
    """An old-gadget key meets new code: a typed error naming both counts,
    never a silently truncated inner product."""

    @pytest.fixture(scope="class")
    def stale(self):
        params = vectorized(PARAM_SETS["delphi"])
        ctx, encoder, sk, pk, g, gk = keyed_context(params, seed=2)
        # Six (k0, k1) pairs, the shape of a one-digit-per-prime delphi key.
        return ctx, encoder, pk, g, GaloisKeys(params, {g: gk.keys[g] * 2})

    def test_deserialize_rejects_a_six_digit_key(self, stale):
        ctx, encoder, pk, g, old = stale
        wire = serialize_galois_keys(old)
        with pytest.raises(ValueError, match=r"6 .*use 3"):
            deserialize_galois_keys(wire, ctx.params)

    def test_rotate_and_matvec_reject_a_six_digit_key(self, stale):
        ctx, encoder, pk, g, old = stale
        ct = ctx.encrypt(pk, encoder.encode([1, 2, 3]))
        with pytest.raises(ValueError, match=r"6 .*use 3"):
            ctx.rotate(ct, g, old)
        with pytest.raises(ValueError, match=r"6 .*use 3"):
            HomomorphicLinearEvaluator(ctx, encoder, old).matvec(ct, [[1, 2]])

    def test_too_few_digits_rejected_too(self, stale):
        ctx, encoder, pk, g, old = stale
        short = GaloisKeys(ctx.params, {g: old.keys[g][:2]})
        with pytest.raises(ValueError, match=r"2 .*use 3"):
            ctx.rotate(ctx.encrypt(pk, encoder.encode([1])), g, short)
        with pytest.raises(ValueError, match=r"2 .*use 3"):
            deserialize_galois_keys(serialize_galois_keys(short), ctx.params)

    def test_a_sixteen_digit_fast_key_is_rejected(self):
        """The 4-bit-digit key an older build minted at ``fast_params``."""
        params = PARAM_SETS["fast"]
        old_params = dataclasses.replace(params, decomp_bits=4)
        ctx, encoder, sk, pk, g, old = keyed_context(old_params, seed=2)
        assert len(old.keys[g]) == 16
        with pytest.raises(ValueError, match=r"16 .*use 3"):
            deserialize_galois_keys(serialize_galois_keys(old), params)
        current = BfvContext(params, SecureRandom(2))
        stale = GaloisKeys(params, old.keys)
        ct = current.encrypt(pk, encoder.encode([1, 2]))
        with pytest.raises(ValueError, match=r"16 .*use 3"):
            current.rotate(ct, g, stale)
        with pytest.raises(ValueError, match=r"16 .*use 3"):
            HomomorphicLinearEvaluator(current, encoder, stale).matvec(ct, [[1, 2]])


class TestKeyBytesAreExact:
    """``GaloisKeys.byte_size`` and ``predict_comm`` follow the digit
    count: equal to the measured channel bytes, to the byte."""

    @pytest.mark.parametrize("name", PARAM_SETS)
    def test_predicted_equals_measured(self, name):
        params = vectorized(PARAM_SETS[name])
        net = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
        net.randomize_weights(params.t, np.random.default_rng(0))
        x = list(range(16))
        proto = HybridProtocol(net, params, garbler="client", seed=9)
        proto.run_offline()
        assert proto.run_online(x) == proto.plaintext_reference(x)
        assert proto.channel.summary() == predict_comm(proto)

    @pytest.mark.parametrize("name", ("toy", "fast"))
    def test_galois_key_byte_size(self, name):
        params = PARAM_SETS[name]
        ctx, encoder, sk, pk, g, gk = keyed_context(params, seed=4)
        width = (params.q_bits + 7) // 8
        assert gk.byte_size == DIGITS[name] * 2 * params.n * width
        # Wire = payload + per-pair (n, width) headers + framing.
        wire = serialize_galois_keys(gk)
        assert len(wire) == gk.byte_size + 5 * DIGITS[name] + 4 + 4 + 8
