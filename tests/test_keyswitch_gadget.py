"""The key-switching gadget per parameter family, and what it costs.

Chain parameters (``toy_params``, ``delphi_params``) key-switch on the
chain itself — one digit per prime, the residue the ring already holds,
against the CRT idempotents — while chainless ones (``fast_params``) keep
base-2^w positional digits. These tests pin the digit counts, the gadget
identity, bit-exact parity across representations and backends, the
noise budget each family keeps after its widest matvec, the typed error
an old-gadget key meets, and the exact byte accounting that follows from
the digit count.
"""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from repro.backend import RnsContext, available_backends, backend_for, using_backend
from repro.core.protocol import HybridProtocol
from repro.core.validation import predict_comm
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
DIGITS = {"delphi": 6, "toy": 4, "fast": 16}


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

    def test_chain_digits_are_one_per_prime(self):
        for name in ("delphi", "toy"):
            params = PARAM_SETS[name]
            assert params.decomp_bits is None
            assert params.num_decomp_digits == len(params.rns_primes)
            # The CRT idempotents: 1 mod their own prime, 0 mod the rest.
            for i, factor in enumerate(params.gadget_factors()):
                assert [factor % p for p in params.rns_primes] == [
                    int(i == j) for j in range(len(params.rns_primes))
                ]

    def test_chainless_digits_are_positional(self):
        params = PARAM_SETS["fast"]
        assert params.rns_primes is None and params.decomp_bits == 4
        assert params.gadget_factors() == [
            1 << (4 * j) for j in range(params.num_decomp_digits)
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

    @pytest.mark.parametrize("name", PARAM_SETS)
    def test_digits_recombine_through_the_gadget(self, name):
        params = PARAM_SETS[name]
        rng = random.Random(11)
        q = params.q
        coeffs = [0, 1, q - 1, q // 2] + [
            rng.randrange(q) for _ in range(params.n - 4)
        ]
        poly = RingPoly(coeffs, q, backend=backend_for(q, prefer=params.backend))
        digits = poly.decompose(params.rns_primes, params.decomp_bits)
        assert len(digits) == params.num_decomp_digits
        factors = params.gadget_factors()
        bound = max(params.rns_primes) if params.rns_primes else 1 << params.decomp_bits
        for i in range(0, params.n, 97):
            parts = [d.coeffs[i] for d in digits]
            assert max(parts) < bound
            assert sum(d * g for d, g in zip(parts, factors)) % q == coeffs[i]

    def test_store_fingerprint_separates_the_gadgets(self):
        """A chain's fingerprint carries no digit width any more, so blobs
        minted under the 16-bit-digit gadget live in another directory."""
        delphi = PARAM_SETS["delphi"]
        old_style = repr(
            (delphi.n, delphi.q, delphi.t, delphi.noise_eta, 16, delphi.rns_primes)
        )
        assert params_fingerprint(delphi) != hashlib.sha256(
            old_style.encode()
        ).hexdigest()[:12]


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

    def test_rns_decompose_is_the_bigint_reference(self):
        params = PARAM_SETS["delphi"]
        rng = random.Random(3)
        coeffs = [rng.randrange(params.q) for _ in range(64)]
        ctx = RnsContext.for_primes(params.rns_primes)
        rns = RnsPoly.from_coeffs(ctx, coeffs).decompose(params.rns_primes)
        big = RingPoly(coeffs, params.q).decompose(params.rns_primes, None)
        assert [d.coeffs for d in rns] == [d.coeffs for d in big]


class TestNoiseBudgetFloor:
    """Bits of budget left after the widest diagonal matvec each set is
    asked for, full-width random weights. Fewer, wider digits spend
    budget: delphi went 51 -> 46 bits at width 256 (55 -> 50 at the
    benchmark's width 16), toy 34 -> 22; fast kept its 4-bit digits.
    Delphi's row holds 1024 slots; width 256 keeps the test at ~5 s and
    the remaining factor of four in rotations costs two more bits.
    """

    CASES = {"delphi": (256, 42), "toy": (128, 20), "fast": (128, 2)}

    @pytest.mark.parametrize("name", CASES)
    def test_floor_after_widest_matvec(self, name):
        params = vectorized(PARAM_SETS[name])
        width, floor_bits = self.CASES[name]
        assert params.row_size % width == 0
        ctx, encoder, sk, pk, g, gk = keyed_context(params, seed=1)
        rng = random.Random(1)
        matrix = np.array(
            [[rng.randrange(params.t) for _ in range(width)] for _ in range(width)],
            dtype=np.uint64,
        )
        x = [rng.randrange(params.t) for _ in range(width)]
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
        out = evaluator.matvec(ct, matrix)
        assert evaluator.rotations_performed == width - 1
        want = [
            sum(int(w) * v for w, v in zip(row, x)) % params.t for row in matrix
        ]
        assert encoder.decode(ctx.decrypt(sk, out))[:width] == want
        assert ctx.noise_budget_bits(sk, out) >= floor_bits


class TestDigitCountMismatch:
    """An old-gadget key meets new code: a typed error naming both counts,
    never a silently truncated inner product."""

    @pytest.fixture(scope="class")
    def stale(self):
        params = vectorized(PARAM_SETS["delphi"])
        ctx, encoder, sk, pk, g, gk = keyed_context(params, seed=2)
        # Twelve (k0, k1) pairs, the shape of a 16-bit-digit delphi key.
        return ctx, encoder, pk, g, GaloisKeys(params, {g: gk.keys[g] * 2})

    def test_deserialize_rejects_a_twelve_digit_key(self, stale):
        ctx, encoder, pk, g, old = stale
        wire = serialize_galois_keys(old)
        with pytest.raises(ValueError, match=r"12 .*use 6"):
            deserialize_galois_keys(wire, ctx.params)

    def test_rotate_rejects_a_twelve_digit_key(self, stale):
        ctx, encoder, pk, g, old = stale
        ct = ctx.encrypt(pk, encoder.encode([1, 2, 3]))
        with pytest.raises(ValueError, match=r"12 .*use 6"):
            ctx.rotate(ct, g, old)

    def test_too_few_digits_rejected_too(self, stale):
        ctx, encoder, pk, g, old = stale
        short = GaloisKeys(ctx.params, {g: old.keys[g][:5]})
        with pytest.raises(ValueError, match=r"5 .*use 6"):
            ctx.rotate(ctx.encrypt(pk, encoder.encode([1])), g, short)
        with pytest.raises(ValueError, match=r"5 .*use 6"):
            deserialize_galois_keys(serialize_galois_keys(short), ctx.params)


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
