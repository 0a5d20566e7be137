"""Randomized bit-exactness parity between bigint and RNS representations.

The RNS chain's whole claim is "same ring, vectorized": every ciphertext-
ring operation on CRT residues must agree bit for bit with the
arbitrary-precision bigint oracle at the same composite q. These tests
draw random inputs (seeded, plus Hypothesis properties for the CRT maps)
and assert list-level equality on CRT round-trips, ring-element
arithmetic, full BFV encrypt→ops→decrypt transcripts, and one end-to-end
protocol inference at ``toy_params``. The representation is not a
setting — it follows from the parameters and the backend — so every
comparison runs the python backend (bigint oracle) against the numpy
backend (RNS residues). Also covers that resolution (pinned per family
and backend, deaf to the environment) and delphi-scale acceptance: the
paper-faithful parameters must actually run on the vectorized backend
via RNS.
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


def on_backend(params: BfvParams, backend: str) -> BfvParams:
    """``params`` pinned to ``backend``: the python backend computes the
    ring as bigints, the numpy backend as RNS residues on a chain."""
    return dataclasses.replace(params, backend=backend)


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

    def test_representations_never_mix(self):
        """One parameter set computes in one representation on one
        backend: an operand of the other representation, or of the same
        chain on the other backend, is refused in either order, never
        converted."""
        rng = random.Random(15)
        big_a, rns_a = self._pair(rand_vec(rng, TOY.n, TOY.q))
        big_b, rns_b = self._pair(rand_vec(rng, TOY.n, TOY.q))
        pairs = [(big_a, rns_b), (rns_a, big_b)]
        if "numpy" in available_backends():
            # Residues of one chain on the other backend: python lists
            # and numpy arrays added together are not the sum.
            on_python = RnsContext.for_primes(TOY.rns_primes, prefer="python")
            on_numpy = RnsContext.for_primes(TOY.rns_primes, prefer="numpy")
            coeffs = rand_vec(rng, TOY.n, TOY.q)
            py_c = RnsPoly.from_coeffs(on_python, coeffs)
            np_c = RnsPoly.from_coeffs(on_numpy, coeffs)
            pairs += [(py_c, np_c), (np_c, py_c)]
        for left, right in pairs:
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(left, right)

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="needs the numpy backend"
    )
    def test_equality_across_backends_compares_coefficients(self):
        """One chain's residues on each backend, from the same
        coefficients, are equal; one changed coefficient makes them
        unequal. (Comparing the two used to raise numpy's ambiguous
        truth-value error.)"""
        rng = random.Random(17)
        on_python = RnsContext.for_primes(TOY.rns_primes, prefer="python")
        on_numpy = RnsContext.for_primes(TOY.rns_primes, prefer="numpy")
        coeffs = rand_vec(rng, TOY.n, TOY.q)
        py_c = RnsPoly.from_coeffs(on_python, coeffs)
        np_c = RnsPoly.from_coeffs(on_numpy, coeffs)
        assert py_c == np_c and np_c == py_c
        changed = list(coeffs)
        changed[5] = (changed[5] + 1) % TOY.q
        np_changed = RnsPoly.from_coeffs(on_numpy, changed)
        assert py_c != np_changed and np_changed != py_c

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
        big = self._run(on_backend(TOY, "python"))
        rns = self._run(on_backend(TOY, "numpy"))
        assert big == rns
        want = [(2 * (3 * (v + 5)) - 1) % TOY.t for v in range(1, 61)]
        assert rns["decoded"][:59] == want[:59]

    def test_representations_mix_via_serialization(self):
        from repro.network.serialize import (
            deserialize_ciphertext,
            serialize_ciphertext,
        )

        if "numpy" not in available_backends():
            pytest.skip("needs the vectorized backend")
        # Two parties on two backends, as two processes would be: what
        # crosses between their representations is wire bytes only.
        big_params = on_backend(TOY, "python")
        rns_params = on_backend(TOY, "numpy")
        ctx_big = BfvContext(big_params, SecureRandom(9))
        encoder = BatchEncoder(big_params)
        sk, pk = ctx_big.keygen()
        ct = ctx_big.encrypt(pk, encoder.encode([11, 22, 33]))
        assert isinstance(ct.c0, RingPoly)
        # Wire bytes produced by a bigint party land as residues at an RNS
        # party, and the RNS secret key (same seed) still decrypts them;
        # the RNS party's reply lands as bigints back.
        ctx_rns = BfvContext(rns_params, SecureRandom(9))
        sk_rns, _ = ctx_rns.keygen()
        restored = deserialize_ciphertext(serialize_ciphertext(ct), rns_params)
        assert isinstance(restored.c0, RnsPoly)
        decoded = encoder.decode(ctx_rns.decrypt(sk_rns, restored))
        assert decoded[:3] == [11, 22, 33]
        doubled = restored + restored
        back = deserialize_ciphertext(serialize_ciphertext(doubled), big_params)
        assert isinstance(back.c0, RingPoly)
        assert encoder.decode(ctx_big.decrypt(sk, back))[:3] == [22, 44, 66]

    def test_make_ring_element_follows_resolution(self):
        coeffs = [1, 2, 3, 4] + [0] * (TOY.n - 4)
        big = make_ring_element(coeffs, on_backend(TOY, "python"))
        assert isinstance(big, RingPoly)
        if "numpy" in available_backends():
            rns = make_ring_element(coeffs, on_backend(TOY, "numpy"))
            assert isinstance(rns, RnsPoly) and rns.coeffs == big.coeffs


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
        for backend in ("python", "numpy"):
            clear_ntt_cache()
            proto = HybridProtocol(
                net, on_backend(toy_params(n=128), backend), seed=21
            )
            proto.run_offline()
            logits = proto.run_online(x)
            assert logits == proto.plaintext_reference(x)
            runs[backend] = (logits, proto.channel.total_bytes)
        # Identical logits and identical transcript byte accounting.
        assert runs["python"] == runs["numpy"]


class TestMintTranscriptParity:
    """One seeded inference sends the same HE bytes — the seeded Galois
    key, every ciphertext in and out of the Horner matvec — whichever
    backend (and so representation) computes it. The 64-wide hidden layer
    overflows the 128 slots, so its product rotates and the key is sent.
    (GC frames are not compared: the vectorized garbler the numpy backend
    selects and the scalar one draw different, equally valid, labels from
    one seed.)"""

    CHAINS = {
        # The delphi chain (prime-pair digits) at a degree the bigint
        # python oracle walks in under a second.
        "toy": toy_params(n=128),
        "delphi": dataclasses.replace(delphi_params(), n=128),
    }

    @staticmethod
    def _he_frames_digest(net, params, x, backend):
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
            net, on_backend(params, backend),
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
        # gk, then a ciphertext up and one down per group of the packing
        # plan: both layers rotate, so each rides its own.
        assert proto.counters.he_rotations == 1
        assert count == 1 + 2 * len(proto.client.plan) == 1 + 2 * 2
        return digest.hexdigest(), tuple(logits), repr(proto.channel.summary())

    @pytest.mark.parametrize("name", CHAINS)
    def test_every_cell_sends_the_same_bytes(self, name):
        import numpy as np

        from repro.nn.datasets import tiny_dataset
        from repro.nn.models import tiny_mlp

        if "numpy" not in available_backends():
            pytest.skip("needs the vectorized backend")
        params = self.CHAINS[name]
        net = tiny_mlp(tiny_dataset(size=2, classes=2), hidden=64)
        net.randomize_weights(params.t, np.random.default_rng(0))
        x = list(range(4))
        runs = {
            backend: self._he_frames_digest(net, params, x, backend)
            for backend in ("python", "numpy")
        }
        assert len(set(runs.values())) == 1, runs


class TestSeedExpansionParity:
    """One seed expands to the same ring element — and a seeded symmetric
    encryption to the same ciphertext — on every backend: the vectorized
    RNS path and the python bigint oracle (which rebuilds the element
    from the per-prime residues through the CRT) agree coefficient for
    coefficient."""

    PARAMS = {
        "toy": TOY,
        "delphi": dataclasses.replace(delphi_params(), n=128),
        "fast": fast_params(n=128),
    }

    @staticmethod
    def _cells(params):
        return [on_backend(params, backend) for backend in available_backends()]

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
        """The two backends, named: a seeded Enc(r) and a seeded Galois
        digit are the same ring elements on both."""
        if "numpy" not in available_backends():
            pytest.skip("needs the vectorized backend")
        runs = []
        for backend in ("numpy", "python"):
            params = on_backend(self.PARAMS[name], backend)
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
    the bigint oracle's exact integer rounding on every backend — at the
    rounding edges too: c mod P at (P-1)/2 rounds down and (P+1)/2 up (P
    is odd, so there is no tie), and c = q-1 rounds to q' and wraps to 0."""

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
    def test_chain_must_multiply_to_q(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TOY, rns_primes=TOY.rns_primes[:-1])

    def test_auto_picks_rns_only_for_wide_vectorizable_moduli(self):
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

    # The ring a context builds, per family and backend: RNS residues only
    # where a chain meets the vectorized backend. Nothing else moves it —
    # not an environment variable that once forced the oracle.
    RING_TYPES = {
        ("toy", "python"): RingPoly,
        ("toy", "numpy"): RnsPoly,
        ("fast", "python"): RingPoly,
        ("fast", "numpy"): RingPoly,
        ("delphi", "python"): RingPoly,
        ("delphi", "numpy"): RnsPoly,
    }
    FAMILIES = {
        "toy": TOY,
        "fast": fast_params(n=128),
        "delphi": dataclasses.replace(delphi_params(), n=128),
    }

    @pytest.mark.parametrize(
        "cell",
        [cell for cell in RING_TYPES if cell[1] in available_backends()],
        ids="-".join,
    )
    def test_the_backend_alone_picks_the_ring(self, cell, monkeypatch):
        name, backend = cell
        params = on_backend(self.FAMILIES[name], backend)

        def ring_type():
            ctx = BfvContext(params, SecureRandom(1))
            sk = ctx.secret_keygen()
            ct = ctx.encrypt(sk, BatchEncoder(params).encode([1, 2, 3]))
            assert type(sk.s) is type(ct.c0) is type(ct.c1)
            return type(ct.c0)

        monkeypatch.setenv("REPRO_REPRESENTATION", "bigint")
        forced = ring_type()
        monkeypatch.delenv("REPRO_REPRESENTATION")
        assert forced is ring_type() is self.RING_TYPES[cell]
        want = "rns" if self.RING_TYPES[cell] is RnsPoly else "bigint"
        assert params.resolve_representation() == want


@pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy backend unavailable"
)
class TestDelphiScaleAcceptance:
    def test_delphi_ops_run_vectorized_via_rns(self):
        import numpy as np

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
        for backend in ("python", "numpy"):
            p = on_backend(params, backend)
            ctx = BfvContext(p, SecureRandom(5))
            encoder = BatchEncoder(p)
            sk, pk = ctx.keygen()
            ct = ctx.encrypt(pk, encoder.encode([7, 8, 9]))
            ct = ctx.mul_plain(ct, encoder.encode([1000] * params.n))
            results[backend] = (
                ct.c0.coeffs[:8],
                ct.c1.coeffs[:8],
                encoder.decode(ctx.decrypt(sk, ct))[:3],
            )
        assert results["python"] == results["numpy"]


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



class TestScaleRoundParity:
    """Decryption's rounding ``floor((t·c + floor(q/2)) / q) mod t`` from
    the residues alone (``RnsContext.scale_round``: an exact whole part,
    a float fraction, and an exact recomputation at the boundaries) is
    the integer formula on the reconstructed coefficients, for arbitrary
    residues, at the four- and six-prime delphi prefixes (after and
    before the modulus switch) and on the toy chain — on constructed
    ties ``t·c + floor(q/2) ≡ 0 mod q`` and their neighbours, and at
    ``c = 0`` and ``c = q - 1``, too. The python backend has no kernel
    and rounds the reconstructed integers itself."""

    CHAINS = {
        "delphi4": (delphi_params().rns_primes[:4], delphi_params().t),
        "delphi6": (delphi_params().rns_primes, delphi_params().t),
        "toy": (TOY.rns_primes, TOY.t),
    }

    @staticmethod
    def _formula(ctx, residues, t):
        q = ctx.q
        return [(c * t + q // 2) // q % t for c in ctx.from_rns(residues)]

    @staticmethod
    def _boundaries(q, t):
        """Coefficients at and next to a rounding boundary: t·c + q//2
        is k mod q for k in -3..3 (0 is a tie)."""
        inverse = pow(t, -1, q)
        return [(k - q // 2) * inverse % q for k in range(-3, 4)]

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("chain", CHAINS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_residues(self, backend_name, chain, data):
        primes, t = self.CHAINS[chain]
        ctx = RnsContext.for_primes(primes, prefer=backend_name)
        residues = [
            data.draw(st.lists(st.integers(0, p - 1), min_size=24, max_size=24))
            for p in primes
        ]
        residues = [ctx.backend.asvec(r, p) for r, p in zip(residues, primes)]
        got = ctx.backend.tolist(ctx.backend.asvec(ctx.scale_round(residues, t), t))
        assert got == self._formula(ctx, residues, t)

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("chain", CHAINS)
    def test_ties_and_edges(self, backend_name, chain):
        primes, t = self.CHAINS[chain]
        ctx = RnsContext.for_primes(primes, prefer=backend_name)
        q = ctx.q
        rng = random.Random(len(primes))
        values = [0, 1, q - 1, q // 2, q // 2 + 1] + self._boundaries(q, t)
        values += [rng.randrange(q) for _ in range(64)]
        residues = ctx.to_rns(values)
        got = ctx.scale_round(residues, t)
        assert [int(v) for v in got] == [
            (c * t + q // 2) // q % t for c in values
        ]
        plan = ctx.backend.make_rns_scale_plan(primes, t)
        if backend_name == "python":
            assert plan is None
        else:
            # The tie itself is one the float sum cannot call: it goes to
            # the exact path.
            halves = [
                ctx.backend.scalar_mul(r, pow(q // p, -1, p), p)
                for r, p in zip(residues, primes)
            ]
            _, ties = ctx.backend.rns_scale_round(halves, plan)
            assert 5 + 3 in ties

    def test_a_lane_too_narrow_declines(self):
        if "numpy" not in available_backends():
            pytest.skip("numpy backend unavailable")
        primes = delphi_params().rns_primes
        be = RnsContext.for_primes(primes, prefer="numpy").backend
        assert be.make_rns_scale_plan(primes, delphi_params().t)
        assert be.make_rns_scale_plan(primes, 1 << 61) is None
        wide = generate_ntt_primes(64, count=2, bits=40)
        assert be.make_rns_scale_plan(wide, 65537) is None

    @pytest.mark.parametrize("garbler", ("client", "server"))
    def test_delphi_inference_never_reconstructs(self, garbler, monkeypatch):
        import numpy as np

        from repro.core.protocol import HybridProtocol
        from repro.nn.datasets import tiny_dataset
        from repro.nn.models import tiny_mlp

        if "numpy" not in available_backends():
            pytest.skip("numpy backend unavailable")
        params = on_backend(delphi_params(), "numpy")
        net = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
        net.randomize_weights(params.t, np.random.default_rng(11))

        def refuse(self, residues):
            raise AssertionError("a coefficient was rebuilt through the CRT")

        monkeypatch.setattr(RnsContext, "from_rns", refuse)
        proto = HybridProtocol(
            net, params, garbler=garbler, seed=13, transport="memory"
        )
        x = list(range(3, 19))
        try:
            proto.run_offline()
            assert proto.run_online(x) == proto.plaintext_reference(x)
        finally:
            proto.close()


class TestDrawConversion:
    """``to_rns`` converts a list of small signed draws once for the whole
    chain; its residues are those of the same draws as an array, and of
    Python's own ``%``, per prime."""

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("draw", ("noise", "ternary", "wide"))
    def test_list_equals_array(self, backend_name, draw):
        import numpy as np

        rng = SecureRandom(17)
        values = {
            "noise": lambda: rng.centered_binomial_vector(256, 4),
            "ternary": lambda: rng.ternary_vector(256),
            "wide": lambda: [-(1 << 70), (1 << 80) + 3, -1, 0, 5],
        }[draw]()
        assert draw == "wide" or min(values) < 0
        ctx = RnsContext.for_primes(delphi_params().rns_primes, prefer=backend_name)
        be = ctx.backend
        want = [[v % p for v in values] for p in ctx.primes]
        assert [be.tolist(r) for r in ctx.to_rns(values)] == want
        if draw != "wide":
            array = np.asarray(values, dtype=np.int64)
            assert [be.tolist(r) for r in ctx.to_rns(array)] == want
