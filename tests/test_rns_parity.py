"""Randomized bit-exactness parity between bigint and RNS representations.

The RNS chain's whole claim is "same ring, vectorized": every ciphertext-
ring operation on CRT residues must agree bit for bit with the
arbitrary-precision bigint oracle at the same composite q. These tests
draw random inputs (seeded, plus Hypothesis properties for the CRT maps)
and assert list-level equality on CRT round-trips, ring-element
arithmetic, full BFV encrypt→ops→decrypt transcripts, and one end-to-end
protocol inference at ``toy_params``. Also covers representation
resolution (auto heuristic, env override, fail-soft) and delphi-scale
acceptance: the paper-faithful parameters must actually run on the
vectorized backend via RNS.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import RnsContext, available_backends, backend_for
from repro.crypto.modmath import (
    crt_combine,
    generate_ntt_primes,
    is_probable_prime,
    primitive_root_of_unity,
)
from repro.crypto.rng import SecureRandom
from repro.he.bfv import BfvContext, make_ring_element
from repro.he.encoder import BatchEncoder
from repro.he.params import BfvParams, delphi_params, fast_params, toy_params
from repro.he.polynomial import RingPoly, RnsPoly, clear_ntt_cache

TOY = toy_params(n=128)


def with_representation(params: BfvParams, rep: str) -> BfvParams:
    return dataclasses.replace(params, representation=rep)


def rand_vec(rng, n, q):
    return [rng.randrange(q) for _ in range(n)]


class TestChainGeneration:
    def test_primes_are_distinct_ntt_friendly_and_small(self):
        for n in (128, 256, 2048):
            primes = generate_ntt_primes(n, count=5, bits=28)
            assert len(set(primes)) == 5
            for p in primes:
                assert is_probable_prime(p)
                assert p.bit_length() == 28
                assert (p - 1) % (2 * n) == 0

    def test_deterministic(self):
        assert generate_ntt_primes(64, 3, 24) == generate_ntt_primes(64, 3, 24)

    def test_exhaustion_raises(self):
        with pytest.raises(ValueError):
            generate_ntt_primes(256, count=1000, bits=12)


class TestCrtMaps:
    @given(st.integers(min_value=0, max_value=TOY.q - 1))
    @settings(max_examples=50, deadline=None)
    def test_scalar_roundtrip(self, value):
        primes = TOY.rns_primes
        assert crt_combine([value % p for p in primes], primes) == value

    @given(
        st.lists(
            st.integers(min_value=0, max_value=TOY.q - 1),
            min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_vector_roundtrip(self, values):
        ctx = RnsContext.for_primes(TOY.rns_primes)
        assert ctx.from_rns(ctx.to_rns(values)) == values

    def test_composite_root_of_unity(self):
        # The registered factorization lets the bigint oracle find a
        # principal 2n-th root in the composite ring: primitive mod every
        # chain prime, hence invertible NTTs on both paths.
        q, n = TOY.q, TOY.n
        psi = primitive_root_of_unity(2 * n, q)
        assert pow(psi, 2 * n, q) == 1
        for p in TOY.rns_primes:
            r = psi % p
            assert pow(r, 2 * n, p) == 1
            assert pow(r, n, p) == p - 1  # primitive: psi^n = -1 per prime

    def test_shared_context_cache(self):
        a = RnsContext.for_primes(TOY.rns_primes)
        b = RnsContext.for_primes(TOY.rns_primes)
        assert a is b


class TestRingElementParity:
    def _pair(self, coeffs):
        big = RingPoly(coeffs, TOY.q, backend=backend_for(TOY.q))
        rns = RnsPoly.from_coeffs(RnsContext.for_primes(TOY.rns_primes), coeffs)
        return big, rns

    def test_arithmetic(self):
        rng = random.Random(1)
        n, q = TOY.n, TOY.q
        a, b = rand_vec(rng, n, q), rand_vec(rng, n, q)
        big_a, rns_a = self._pair(a)
        big_b, rns_b = self._pair(b)
        assert (big_a + big_b).coeffs == (rns_a + rns_b).coeffs
        assert (big_a - big_b).coeffs == (rns_a - rns_b).coeffs
        assert (-big_a).coeffs == (-rns_a).coeffs
        s = rng.randrange(q)
        assert (big_a * s).coeffs == (rns_a * s).coeffs

    def test_negacyclic_multiply(self):
        rng = random.Random(2)
        n, q = TOY.n, TOY.q
        for _ in range(3):
            a, b = rand_vec(rng, n, q), rand_vec(rng, n, q)
            big_a, rns_a = self._pair(a)
            big_b, rns_b = self._pair(b)
            assert (big_a * big_b).coeffs == (rns_a * rns_b).coeffs

    def test_automorphism(self):
        rng = random.Random(3)
        a = rand_vec(rng, TOY.n, TOY.q)
        big, rns = self._pair(a)
        for g in (3, 5, 2 * TOY.n - 1):
            assert big.automorphism(g).coeffs == rns.automorphism(g).coeffs

    def test_decompose(self):
        rng = random.Random(4)
        a = rand_vec(rng, TOY.n, TOY.q)
        big, rns = self._pair(a)
        digits_big = big.decompose(TOY.digit_groups, TOY.decomp_bits)
        digits_rns = rns.decompose(TOY.digit_groups, TOY.decomp_bits)
        assert len(digits_rns) == TOY.num_decomp_digits == len(TOY.rns_primes)
        assert [d.coeffs for d in digits_big] == [d.coeffs for d in digits_rns]
        # One digit per chain prime: the residue, small enough to live
        # unchanged in the wide ring, and the gadget recombines them.
        for digit, p in zip(digits_rns, TOY.rns_primes):
            assert digit.coeffs == [c % p for c in a]
        recombined = [
            sum(d.coeffs[i] * g for d, g in zip(digits_rns, TOY.gadget_factors()))
            % TOY.q
            for i in range(TOY.n)
        ]
        assert recombined == a

    def test_decompose_rejects_a_foreign_chain(self):
        _, rns = self._pair(rand_vec(random.Random(4), TOY.n, TOY.q))
        with pytest.raises(ValueError):
            rns.decompose(TOY.digit_groups[:-1], None)
        with pytest.raises(ValueError):
            rns.decompose(None, 16)  # no positional digits on a chain

    def test_equality_crosses_representations(self):
        rng = random.Random(5)
        a = rand_vec(rng, TOY.n, TOY.q)
        big, rns = self._pair(a)
        assert rns == big
        assert big == rns  # symmetric, either operand order
        assert rns == RnsPoly.from_coeffs(rns.ctx, a)
        other = rand_vec(rng, TOY.n, TOY.q)
        assert rns != RingPoly(other, TOY.q)
        assert RingPoly(other, TOY.q) != rns

    def test_mixed_representation_arithmetic_both_orders(self):
        rng = random.Random(15)
        a, b = rand_vec(rng, TOY.n, TOY.q), rand_vec(rng, TOY.n, TOY.q)
        big_a, rns_a = self._pair(a)
        big_b, rns_b = self._pair(b)
        want_sum = (big_a + big_b).coeffs
        want_prod = (big_a * big_b).coeffs
        # RingPoly on the left of an RnsPoly and vice versa both work.
        assert (big_a + rns_b).coeffs == want_sum
        assert (rns_a + big_b).coeffs == want_sum
        assert (big_a * rns_b).coeffs == want_prod
        assert (rns_a * big_b).coeffs == want_prod
        assert (big_a - rns_b).coeffs == (big_a - big_b).coeffs

    def test_ring_mismatch_rejected(self):
        rng = random.Random(16)
        small = toy_params(n=64)
        rns_small = RnsPoly.from_coeffs(
            RnsContext.for_primes(small.rns_primes),
            rand_vec(rng, 64, small.q),
        )
        _, rns_big = self._pair(rand_vec(rng, TOY.n, TOY.q))
        with pytest.raises((ValueError, TypeError)):
            rns_big + rns_small

    def test_negative_and_unreduced_construction(self):
        rng = random.Random(6)
        raw = [rng.randrange(-TOY.q, 2 * TOY.q) for _ in range(TOY.n)]
        big, _ = self._pair([v % TOY.q for v in raw])
        rns = RnsPoly.from_coeffs(RnsContext.for_primes(TOY.rns_primes), raw)
        assert rns.coeffs == big.coeffs


class TestBfvTranscriptParity:
    def _run(self, params, seed=7):
        """Full keygen→encrypt→mul→rotate→decrypt transcript, as ints."""
        clear_ntt_cache()
        ctx = BfvContext(params, SecureRandom(seed))
        encoder = BatchEncoder(params)
        sk, pk = ctx.keygen()
        values = list(range(60))
        ct = ctx.encrypt(pk, encoder.encode(values))
        g = encoder.galois_element_for_rotation(1)
        gk = ctx.galois_keygen(sk, [g])
        ct = ctx.add_plain(ct, encoder.encode([5] * params.n))
        ct = ctx.mul_plain(ct, encoder.encode([3] * params.n))
        ct = ctx.rotate(ct, g, gk)
        ct = ct + ct
        ct = ctx.sub_plain(ct, encoder.encode([1] * params.n))
        return {
            "sk": sk.s.coeffs,
            "pk0": pk.p0.coeffs,
            "c0": ct.c0.coeffs,
            "c1": ct.c1.coeffs,
            "budget": ctx.noise_budget_bits(sk, ct),
            "decoded": encoder.decode(ctx.decrypt(sk, ct))[:60],
        }

    def test_toy_transcripts_identical(self):
        big = self._run(with_representation(TOY, "bigint"))
        rns = self._run(with_representation(TOY, "rns"))
        assert big == rns
        want = [(2 * (3 * (v + 5)) - 1) % TOY.t for v in range(1, 61)]
        assert rns["decoded"][:59] == want[:59]

    def test_representations_mix_via_serialization(self):
        from repro.network.serialize import (
            deserialize_ciphertext,
            serialize_ciphertext,
        )

        big_params = with_representation(TOY, "bigint")
        rns_params = with_representation(TOY, "rns")
        ctx_big = BfvContext(big_params, SecureRandom(9))
        encoder = BatchEncoder(big_params)
        sk, pk = ctx_big.keygen()
        ct = ctx_big.encrypt(pk, encoder.encode([11, 22, 33]))
        # Wire bytes produced by a bigint party land as residues at an RNS
        # party, and the RNS secret key (same seed) still decrypts them.
        ctx_rns = BfvContext(rns_params, SecureRandom(9))
        sk_rns, _ = ctx_rns.keygen()
        restored = deserialize_ciphertext(serialize_ciphertext(ct), rns_params)
        assert isinstance(restored.c0, RnsPoly)
        decoded = encoder.decode(ctx_rns.decrypt(sk_rns, restored))
        assert decoded[:3] == [11, 22, 33]

    def test_make_ring_element_follows_resolution(self):
        coeffs = [1, 2, 3, 4] + [0] * (TOY.n - 4)
        assert isinstance(
            make_ring_element(coeffs, with_representation(TOY, "bigint")),
            RingPoly,
        )
        assert isinstance(
            make_ring_element(coeffs, with_representation(TOY, "rns")),
            RnsPoly,
        )


class TestProtocolParity:
    def test_end_to_end_inference_transcript(self):
        import numpy as np

        from repro.core.protocol import HybridProtocol
        from repro.nn.datasets import tiny_dataset
        from repro.nn.models import tiny_mlp

        net = tiny_mlp(tiny_dataset(size=2, classes=2), hidden=4)
        net.randomize_weights(TOY.t, np.random.default_rng(0))
        x = list(range(4))
        runs = {}
        for rep in ("bigint", "rns"):
            clear_ntt_cache()
            proto = HybridProtocol(
                net,
                dataclasses.replace(toy_params(n=128), representation=rep),
                seed=21,
            )
            proto.run_offline()
            logits = proto.run_online(x)
            assert logits == proto.plaintext_reference(x)
            runs[rep] = (logits, proto.channel.total_bytes)
        # Identical logits and identical transcript byte accounting.
        assert runs["bigint"] == runs["rns"]


class TestMintTranscriptParity:
    """One seeded inference sends the same HE bytes — the seeded Galois
    key, every ciphertext in and out of the Horner matvec — whichever
    backend and representation computes it. (GC frames are not compared:
    the vectorized garbler the numpy backend selects and the scalar one
    draw different, equally valid, labels from one seed.)"""

    CHAINS = {
        # The delphi chain (prime-pair digits) at a degree the bigint
        # python oracle walks in under a second.
        "toy": toy_params(n=128),
        "delphi": dataclasses.replace(delphi_params(), n=128),
    }

    @staticmethod
    def _he_frames_digest(net, params, x, backend, representation):
        import hashlib

        from repro.core.protocol import HybridProtocol
        from repro.network import serialize

        he_formats = {
            serialize.FMT_GALOIS_KEYS,
            serialize.FMT_SEEDED_CIPHERTEXT,
            serialize.FMT_CIPHERTEXT,
            serialize.FMT_SWITCHED_CIPHERTEXT,
        }
        clear_ntt_cache()
        proto = HybridProtocol(
            net,
            dataclasses.replace(
                params, backend=backend, representation=representation
            ),
            garbler="client", seed=33, transport="memory",
        )
        digest, count = hashlib.sha256(), 0
        for party in (proto.client, proto.server):
            def send(frame, _send=party.transport.send):
                nonlocal count
                if serialize.read_wire_header(frame) in he_formats:
                    digest.update(bytes(frame))
                    count += 1
                _send(frame)

            party.transport.send = send
        try:
            proto.run_offline()
            logits = proto.run_online(x)
        finally:
            proto.close()
        assert logits == proto.plaintext_reference(x)
        # gk, then a ciphertext up and one down per linear layer.
        assert count == 1 + 2 * len(proto.lowered.linears)
        return digest.hexdigest(), tuple(logits), repr(proto.channel.summary())

    @pytest.mark.parametrize("name", CHAINS)
    def test_every_cell_sends_the_same_bytes(self, name):
        import numpy as np

        from repro.nn.datasets import tiny_dataset
        from repro.nn.models import tiny_mlp

        params = self.CHAINS[name]
        net = tiny_mlp(tiny_dataset(size=2, classes=2), hidden=4)
        net.randomize_weights(params.t, np.random.default_rng(0))
        x = list(range(4))
        runs = {
            (backend, rep): self._he_frames_digest(net, params, x, backend, rep)
            for backend in available_backends()
            for rep in ("bigint", "rns")
        }
        assert len(runs) >= 2 and len(set(runs.values())) == 1, runs


class TestSeedExpansionParity:
    """One seed expands to the same ring element — and a seeded symmetric
    encryption to the same ciphertext — on every backend x representation
    cell: the vectorized RNS path and the python bigint oracle (which
    rebuilds the element from the per-prime residues through the CRT)
    agree coefficient for coefficient. Runs in CI's backend x
    representation matrix."""

    PARAMS = {
        "toy": TOY,
        "delphi": dataclasses.replace(delphi_params(), n=128),
        "fast": fast_params(n=128),
    }

    @staticmethod
    def _cells(params):
        reps = ("bigint", "rns") if params.rns_primes else ("bigint",)
        return [
            dataclasses.replace(params, backend=backend, representation=rep)
            for backend in available_backends()
            for rep in reps
        ]

    @pytest.mark.parametrize("name", PARAMS)
    def test_one_seed_one_element(self, name):
        from repro.crypto.prg import expand_uniform
        from repro.he.bfv import uniform_from_seed

        params = self.PARAMS[name]
        seed = bytes(range(32))
        got = {
            (cell.backend, cell.resolve_representation()): uniform_from_seed(
                seed, cell
            ).coeffs
            for cell in self._cells(params)
        }
        assert len(set(map(tuple, got.values()))) == 1, got.keys()
        # The element is the CRT image of one uniform vector per prime.
        moduli = params.rns_primes or (params.q,)
        rows = [[int(v) for v in row] for row in expand_uniform(seed, params.n, moduli)]
        want = [crt_combine(list(col), list(moduli)) for col in zip(*rows)]
        assert next(iter(got.values())) == want

    @pytest.mark.parametrize("name", ["toy", "delphi"])
    def test_numpy_rns_equals_python_bigint(self, name):
        """The two ends of the matrix, named: a seeded Enc(r) and a seeded
        Galois digit are the same ring elements on both."""
        if "numpy" not in available_backends():
            pytest.skip("needs the vectorized backend")
        runs = []
        for backend, rep in (("numpy", "rns"), ("python", "bigint")):
            params = dataclasses.replace(
                self.PARAMS[name], backend=backend, representation=rep
            )
            clear_ntt_cache()
            ctx = BfvContext(params, SecureRandom(5))
            encoder = BatchEncoder(params)
            sk = ctx.secret_keygen()
            gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
            ct = ctx.encrypt(sk, encoder.encode([7, 8, 9]))
            assert encoder.decode(ctx.decrypt(sk, ct))[:3] == [7, 8, 9]
            digits = [pair for pairs in gk.keys.values() for pair in pairs]
            runs.append((
                ct.seed, ct.c0.coeffs, ct.c1.coeffs,
                [(k0.coeffs, k1.coeffs) for k0, k1 in digits],
            ))
        assert runs[0] == runs[1]


class TestModSwitchParity:
    """round(c·q'/q) from the residues alone (RNS: the dropped group's
    residue through the lane CRT, then (c - r)·P^-1 per kept prime) is
    the bigint oracle's exact integer rounding on every backend x
    representation cell — at the rounding edges too: c mod P at (P-1)/2
    rounds down and (P+1)/2 up (P is odd, so there is no tie), and
    c = q-1 rounds to q' and wraps to 0."""

    PARAMS = {"toy": TOY, "delphi": dataclasses.replace(delphi_params(), n=128)}

    @staticmethod
    def _edges(params, seed):
        rng = random.Random(seed)
        q, kept = params.q, params.switched_q
        divisor = q // kept
        half = divisor // 2
        coeffs = [0, 1, half, half + 1, divisor - 1, divisor, q - 1, q - half - 1]
        for _ in range(24):
            base = rng.randrange(kept) * divisor
            coeffs += [base + half, base + half + 1]
        return coeffs + [rng.randrange(q) for _ in range(params.n - len(coeffs))]

    @pytest.mark.parametrize("name", PARAMS)
    def test_every_cell_rounds_the_same(self, name):
        from repro.he.bfv import Ciphertext

        params = self.PARAMS[name]
        kept = params.switched_q
        divisor = params.q // kept
        a, b = self._edges(params, 1), self._edges(params, 2)
        want = [[(c + divisor // 2) // divisor % kept for c in v] for v in (a, b)]
        # (P-1)/2 rounds down, (P+1)/2 up, q-1 wraps, q-(P+1)/2 rounds
        # to q'-1.
        assert want[0][:8] == [0, 0, 0, 1, 1, 1, 0, kept - 1]
        cells = TestSeedExpansionParity._cells(params)
        for cell in cells:
            clear_ntt_cache()
            pair = [make_ring_element(v, cell) for v in (a, b)]
            ct = BfvContext(cell).mod_switch(Ciphertext(cell, *pair))
            assert ct.q == kept
            assert isinstance(ct.c0, RnsPoly) == (
                cell.resolve_representation() == "rns"
            )
            assert [ct.c0.coeffs, ct.c1.coeffs] == want, (
                cell.backend, cell.resolve_representation()
            )


class TestRepresentationResolution:
    def test_explicit_rns_requires_chain(self):
        with pytest.raises(ValueError):
            dataclasses.replace(fast_params(n=128), representation="rns")

    def test_unknown_representation_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TOY, representation="float")

    def test_chain_must_multiply_to_q(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TOY, rns_primes=TOY.rns_primes[:-1])

    def test_auto_picks_rns_only_for_wide_vectorizable_moduli(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPRESENTATION", raising=False)
        # fast_params: q < 2^62, no chain -> bigint (directly vectorized).
        assert fast_params(n=128).resolve_representation() == "bigint"
        # RNS exactly when the chain's primes resolve to a vectorized
        # backend under the current selection.
        expected = (
            "rns" if backend_for(TOY.rns_primes[0]).name == "numpy" else "bigint"
        )
        assert TOY.resolve_representation() == expected
        assert delphi_params().resolve_representation() == expected
        # A python-only preference keeps the oracle representation.
        forced = dataclasses.replace(TOY, backend="python")
        assert forced.resolve_representation() == "bigint"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPRESENTATION", "bigint")
        assert TOY.resolve_representation() == "bigint"
        monkeypatch.setenv("REPRO_REPRESENTATION", "rns")
        assert TOY.resolve_representation() == "rns"
        # Fail-soft: forcing rns on chainless params stays functional.
        assert fast_params(n=128).resolve_representation() == "bigint"
        monkeypatch.setenv("REPRO_REPRESENTATION", "nonsense")
        assert TOY.resolve_representation() in ("bigint", "rns")

    def test_explicit_field_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPRESENTATION", "bigint")
        assert with_representation(TOY, "rns").resolve_representation() == "rns"


@pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy backend unavailable"
)
class TestDelphiScaleAcceptance:
    def test_delphi_ops_run_vectorized_via_rns(self, monkeypatch):
        import numpy as np

        monkeypatch.delenv("REPRO_REPRESENTATION", raising=False)
        params = dataclasses.replace(delphi_params(), backend="numpy")
        assert params.resolve_representation() == "rns"
        ctx = BfvContext(params, SecureRandom(3))
        encoder = BatchEncoder(params)
        sk, pk = ctx.keygen()
        ct = ctx.encrypt(pk, encoder.encode([123456789012, 42]))
        # Every residue of every component is a uint64 ndarray: the whole
        # wide-modulus ciphertext ring computes on the numpy backend.
        assert isinstance(ct.c0, RnsPoly)
        for residue in ct.c0.residues + ct.c1.residues:
            assert isinstance(residue, np.ndarray)
        ct = ctx.mul_plain(ct, encoder.encode([9] * params.n))
        assert encoder.decode(ctx.decrypt(sk, ct))[:2] == [
            123456789012 * 9 % params.t,
            378,
        ]
        assert ctx.noise_budget_bits(sk, ct) > 40

    def test_delphi_parity_spot_check(self):
        params = delphi_params()
        results = {}
        for rep in ("bigint", "rns"):
            p = with_representation(params, rep)
            ctx = BfvContext(p, SecureRandom(5))
            encoder = BatchEncoder(p)
            sk, pk = ctx.keygen()
            ct = ctx.encrypt(pk, encoder.encode([7, 8, 9]))
            ct = ctx.mul_plain(ct, encoder.encode([1000] * params.n))
            results[rep] = (
                ct.c0.coeffs[:8],
                ct.c1.coeffs[:8],
                encoder.decode(ctx.decrypt(sk, ct))[:3],
            )
        assert results["bigint"] == results["rns"]


class TestFastBaseConversionParity:
    """The vectorized exact base conversion vs bigint reconstruction.

    ``RnsContext.decompose_digits`` — the outbound half of the wire codec
    (``tests/test_network_serialize.py`` pins the format) — must be
    bit-identical to ``from_rns`` + mask/shift for ANY input, including
    the small representatives that exercise the correction term, where
    the fast path's alpha estimate lands one low and the exact multi-limb
    conditional subtract has to fix it up: at the codec's 16-bit digits
    and at 4-bit ones, on both the toy and delphi chains. The python
    backend has no such kernel: it declines, and ``pack_le`` reaches the
    same bytes through the CRT reconstruction.
    """

    CHAINS = {"toy": toy_params(n=128), "delphi": delphi_params()}

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("base_bits", (16, 4))
    @pytest.mark.parametrize("chain", ("toy", "delphi"))
    def test_digits_match_reconstruction(self, backend_name, base_bits, chain):
        params = self.CHAINS[chain]
        ctx = RnsContext.for_primes(params.rns_primes, prefer=backend_name)
        q = ctx.q
        num_digits = -(-q.bit_length() // base_bits)
        width = (q.bit_length() + 7) // 8
        rng = random.Random(base_bits * 1000 + len(chain))
        mask = (1 << base_bits) - 1
        # First batch leads with correction-term edge values; the rest
        # are uniform draws.
        edge = [0, 1, 2, 3, q - 1, q - 2, q // 2, q // 2 + 1]
        batches = [edge + [rng.randrange(q) for _ in range(56)]]
        batches += [[rng.randrange(q) for _ in range(64)] for _ in range(3)]
        for values in batches:
            residues = ctx.to_rns(values)
            got = ctx.decompose_digits(residues, base_bits, num_digits)
            if backend_name == "python":
                assert got is None  # no kernel: pack_le reconstructs
            else:
                be = ctx.backend
                want = [
                    [(v >> (j * base_bits)) & mask for v in values]
                    for j in range(num_digits)
                ]
                assert [be.tolist(d) for d in got] == want
            assert ctx.pack_le(residues, width) == b"".join(
                v.to_bytes(width, "little") for v in values
            )

