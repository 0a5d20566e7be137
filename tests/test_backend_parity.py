"""Randomized bit-exactness parity between the numpy and python backends.

The numpy backend's whole claim is "same function, faster": every kernel
must agree with the arbitrary-precision python reference bit for bit.
These tests draw random inputs across both reduction regimes (direct
q < 2^31 and Shoup 2^31 <= q < 2^63) and assert list-level equality on
NTT transforms, RingPoly arithmetic, BFV round-trips, and one end-to-end
protocol inference. Also covers the backend registry's fallback rules
and the bounded NTT-context cache.
"""

import random
from dataclasses import replace

import pytest

from repro.backend import (
    active_backend_name,
    available_backends,
    backend_for,
    get_backend,
    set_backend,
    using_backend,
)
from repro.crypto.modmath import (
    find_ntt_prime,
    matvec_mod,
    mod_add_vec,
    mod_mul_vec,
    mod_pow_vec,
    mod_sub_vec,
)
from repro.crypto.rng import SecureRandom
from repro.he import polynomial
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator
from repro.he.ntt import NegacyclicNtt, Ntt
from repro.he.params import fast_params
from repro.he.polynomial import RingPoly, clear_ntt_cache, ntt_cache_size

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy backend unavailable"
)

PY = None
NP = None


def setup_module(module):
    global PY, NP
    PY = get_backend("python")
    NP = get_backend("numpy")


# Both reduction regimes: direct (q < 2^31) and Shoup (q >= 2^31).
Q_BITS = (18, 30, 40, 62)


def rand_vec(rng, n, q):
    return [rng.randrange(q) for _ in range(n)]


class TestKernelParity:
    @pytest.mark.parametrize("q_bits", Q_BITS)
    def test_elementwise_ops(self, q_bits):
        rng = random.Random(q_bits)
        n = 128
        q = find_ntt_prime(q_bits, n)
        a, b = rand_vec(rng, n, q), rand_vec(rng, n, q)
        va, vb = NP.asvec(a, q), NP.asvec(b, q)
        assert NP.tolist(NP.add(va, vb, q)) == PY.add(a, b, q)
        assert NP.tolist(NP.sub(va, vb, q)) == PY.sub(a, b, q)
        assert NP.tolist(NP.neg(va, q)) == PY.neg(a, q)
        assert NP.tolist(NP.mul(va, vb, q)) == PY.mul(a, b, q)
        s = rng.randrange(q)
        assert NP.tolist(NP.scalar_mul(va, s, q)) == PY.scalar_mul(a, s, q)

    @pytest.mark.parametrize("q_bits", Q_BITS)
    def test_ntt_forward_inverse(self, q_bits):
        rng = random.Random(100 + q_bits)
        n = 256
        q = find_ntt_prime(q_bits, n)
        ntt_py = NegacyclicNtt(n, q, backend=PY)
        ntt_np = NegacyclicNtt(n, q, backend=NP)
        for _ in range(3):
            coeffs = rand_vec(rng, n, q)
            fwd_py = ntt_py.forward(coeffs)
            fwd_np = ntt_np.forward(coeffs)
            assert fwd_py == fwd_np
            assert ntt_py.inverse(fwd_py) == ntt_np.inverse(fwd_np) == coeffs

    @pytest.mark.parametrize("q_bits", (30, 62))
    def test_cyclic_ntt(self, q_bits):
        rng = random.Random(200 + q_bits)
        n = 64
        q = find_ntt_prime(q_bits, n)
        ntt_py = Ntt(n, q, backend=PY)
        ntt_np = Ntt(n, q, backend=NP)
        values = rand_vec(rng, n, q)
        assert ntt_py.forward(values) == ntt_np.forward(values)
        assert ntt_py.inverse(values) == ntt_np.inverse(values)

    @pytest.mark.parametrize("q_bits", Q_BITS)
    def test_negacyclic_multiply(self, q_bits):
        rng = random.Random(300 + q_bits)
        n = 64
        q = find_ntt_prime(q_bits, n)
        ntt_py = NegacyclicNtt(n, q, backend=PY)
        ntt_np = NegacyclicNtt(n, q, backend=NP)
        a, b = rand_vec(rng, n, q), rand_vec(rng, n, q)
        assert ntt_py.multiply(a, b) == ntt_np.multiply(a, b)

    @pytest.mark.parametrize("q_bits", Q_BITS)
    def test_ring_poly_ops(self, q_bits):
        rng = random.Random(400 + q_bits)
        n = 128
        q = find_ntt_prime(q_bits, n)
        a, b = rand_vec(rng, n, q), rand_vec(rng, n, q)
        pa, pb = RingPoly(a, q, backend=PY), RingPoly(b, q, backend=PY)
        na, nb = RingPoly(a, q, backend=NP), RingPoly(b, q, backend=NP)
        assert (pa + pb).coeffs == (na + nb).coeffs
        assert (pa - pb).coeffs == (na - nb).coeffs
        assert (-pa).coeffs == (-na).coeffs
        assert (pa * pb).coeffs == (na * nb).coeffs
        s = rng.randrange(q)
        assert (pa * s).coeffs == (na * s).coeffs
        assert pa.automorphism(3).coeffs == na.automorphism(3).coeffs
        digits_py = pa.decompose(None, 4)  # chainless: base-2^4 digits
        digits_np = na.decompose(None, 4)
        assert len(digits_py) == -(-q_bits // 4)
        assert [d.coeffs for d in digits_py] == [d.coeffs for d in digits_np]
        assert pa.to_bytes(8) == na.to_bytes(8)
        # Negative / unreduced construction agrees too.
        raw = [rng.randrange(-q, 2 * q) for _ in range(n)]
        assert RingPoly(raw, q, backend=PY) == RingPoly(raw, q, backend=NP)

    def test_wire_codec_kernels(self):
        """``pack_le``/``unpack_le`` against the per-integer definition:
        one limb and interleaved 16-bit limbs out; in, the lane view
        (width <= 8), the byte-table product (small moduli) and the exact
        fallback (a modulus too wide for the product to stay in a lane)."""
        rng = random.Random(9)
        values = [0, 1, (1 << 40) - 1] + [rng.randrange(1 << 40) for _ in range(30)]
        want = b"".join(v.to_bytes(5, "little") for v in values)
        assert PY.pack_le([values], 5, 5) == want
        assert NP.pack_le([NP.asvec(values, 1 << 40)], 5, 5) == want
        limbs = [[(v >> (16 * j)) & 0xFFFF for v in values] for j in range(3)]
        assert PY.pack_le(limbs, 2, 5) == want
        assert NP.pack_le([NP.asvec(d, 1 << 16) for d in limbs], 2, 5) == want
        q30, q31 = find_ntt_prime(30, 64), find_ntt_prime(31, 64)
        q62 = find_ntt_prime(62, 64)
        for width, moduli in ((5, (q30, q62)), (12, (q30, q31)), (12, (q30, q62))):
            data = bytes(rng.randrange(256) for _ in range(40 * width))
            data = b"\xff" * width + data[width:]
            ints = [
                int.from_bytes(data[i : i + width], "little")
                for i in range(0, len(data), width)
            ]
            expected = [[v % q for v in ints] for q in moduli]
            assert PY.unpack_le(data, width, moduli) == expected
            got = NP.unpack_le(memoryview(data), width, moduli)
            assert [NP.tolist(v) for v in got] == expected

    @pytest.mark.parametrize("q_bits", (18, 41, 62))
    def test_vector_helpers(self, q_bits):
        rng = random.Random(500 + q_bits)
        n = 32
        q = find_ntt_prime(q_bits, 16) if q_bits != 41 else find_ntt_prime(41, 16)
        a, b = rand_vec(rng, n, q), rand_vec(rng, n, q)
        for name in ("python", "numpy"):
            with using_backend(name):
                assert mod_add_vec(a, b, q) == [(x + y) % q for x, y in zip(a, b)]
                assert mod_sub_vec(a, b, q) == [(x - y) % q for x, y in zip(a, b)]
                assert mod_mul_vec(a, b, q) == [x * y % q for x, y in zip(a, b)]
                assert mod_pow_vec(a, 13, q) == [pow(x, 13, q) for x in a]
                matrix = [rand_vec(rng, n, q) for _ in range(8)]
                want = [
                    sum(w * x for w, x in zip(row, a)) % q for row in matrix
                ]
                assert matvec_mod(matrix, a, q) == want


class TestBfvParity:
    def test_encrypt_decrypt_roundtrip_identical(self):
        params = fast_params(n=128)
        values = list(range(100))
        results = {}
        for name in ("python", "numpy"):
            with using_backend(name):
                clear_ntt_cache()
                ctx = BfvContext(params, SecureRandom(7))
                encoder = BatchEncoder(params)
                sk, pk = ctx.keygen()
                pt = encoder.encode(values)
                ct = ctx.encrypt(pk, pt)
                decoded = encoder.decode(ctx.decrypt(sk, ct))
                results[name] = {
                    "plaintext": pt.coeffs,
                    "c0": ct.c0.coeffs,
                    "c1": ct.c1.coeffs,
                    "decoded": decoded[:100],
                }
        # Same seeded randomness: the entire transcript must match exactly.
        assert results["python"] == results["numpy"]
        assert results["numpy"]["decoded"] == values

    def test_matvec_parity(self):
        params = fast_params(n=128)
        rng = random.Random(1)
        t = params.t
        n_in = n_out = 8
        matrix = [[rng.randrange(t) for _ in range(n_in)] for _ in range(n_out)]
        x = [rng.randrange(t) for _ in range(n_in)]
        want = [
            sum(matrix[i][j] * x[j] for j in range(n_in)) % t for i in range(n_out)
        ]
        outputs = {}
        for name in ("python", "numpy"):
            with using_backend(name):
                clear_ntt_cache()
                ctx = BfvContext(params, SecureRandom(9))
                encoder = BatchEncoder(params)
                sk, pk = ctx.keygen()
                gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
                evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
                ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
                ct_y = evaluator.matvec(ct, matrix)
                assert ctx.noise_budget_bits(sk, ct_y) > 0
                outputs[name] = encoder.decode(ctx.decrypt(sk, ct_y))[:n_out]
        assert outputs["python"] == outputs["numpy"] == want


class TestProtocolParity:
    def test_end_to_end_inference(self):
        import numpy as np

        from repro.core.protocol import HybridProtocol
        from repro.nn.datasets import tiny_dataset
        from repro.nn.models import tiny_mlp

        params = fast_params(n=256)
        net = tiny_mlp(tiny_dataset(size=2, classes=2), hidden=4)
        net.randomize_weights(params.t, np.random.default_rng(0))
        x = list(range(4))
        runs = {}
        for name in ("python", "numpy"):
            with using_backend(name):
                clear_ntt_cache()
                proto = HybridProtocol(net, params, garbler="client", seed=21)
                proto.run_offline()
                logits = proto.run_online(x)
                assert logits == proto.plaintext_reference(x)
                runs[name] = (logits, proto.channel.total_bytes)
        # Identical logits and identical transcript byte accounting.
        assert runs["python"] == runs["numpy"]


class TestBackendSelection:
    def test_oversized_modulus_falls_back_to_python(self):
        huge = (1 << 100) + 277  # anything >= 2^63 must not hit numpy
        assert backend_for(huge).name == "python"
        assert backend_for(huge, prefer="numpy").name == "python"
        with using_backend("numpy"):
            assert backend_for(huge).name == "python"
            assert backend_for((1 << 61) + 1).name == "numpy"

    def test_explicit_python_never_uses_numpy(self):
        with using_backend("python"):
            assert backend_for(97).name == "python"
            assert get_backend().name == "python"

    def test_using_backend_restores_the_previous_selection(self):
        """Not ``auto``: whatever was selected before the block — else a
        parent under REPRO_BACKEND=python and its pool workers (which
        re-read the environment) would mint on different backends."""
        before = active_backend_name()
        with using_backend("python"):
            with using_backend("numpy"):
                assert active_backend_name() == "numpy"
            assert active_backend_name() == "python"
            with pytest.raises(RuntimeError):
                with using_backend("numpy"):
                    raise RuntimeError("restored on the way out too")
            assert active_backend_name() == "python"
        assert active_backend_name() == before
        with pytest.raises(ValueError):
            with using_backend("cuda"):
                pass
        assert active_backend_name() == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_backend("cuda")
        with pytest.raises(ValueError):
            get_backend("tpu")

    def test_params_backend_preference(self):
        params = fast_params(n=128, backend="python")
        ctx = BfvContext(params, SecureRandom(0))
        assert ctx._rq.name == "python"

    def test_unavailable_preference_fails_soft(self):
        # A config naming a backend this machine lacks must stay portable.
        assert backend_for(97, prefer="cuda").name in ("python", "numpy")

    def test_signed_ndarray_entries_reduced_exactly(self):
        import numpy as np

        q = 97
        raw = np.array([-1, -96, 5, 300], dtype=np.int64)
        got = NP.tolist(NP.asvec(raw, q))
        assert got == [96, 1, 5, 300 % 97]
        assert NP.tolist(NP.asvec(raw.astype(np.float64), q)) == got

    def test_protocol_preference_overrides_global(self):
        import numpy as np

        from repro.core.protocol import HybridProtocol
        from repro.nn.datasets import tiny_dataset
        from repro.nn.models import tiny_mlp

        net = tiny_mlp(tiny_dataset(size=2, classes=2), hidden=4)
        params = fast_params(n=128)
        net.randomize_weights(params.t, np.random.default_rng(1))
        with using_backend("python"):
            proto = HybridProtocol(net, replace(params, backend="numpy"), seed=3)
            assert proto._vectorize_gc
            assert isinstance(proto.lowered.linears[0].matrix, np.ndarray)
            inverse = HybridProtocol(net, replace(params, backend="python"), seed=3)
            assert not inverse._vectorize_gc
            assert isinstance(inverse.lowered.linears[0].matrix, list)

    def test_wide_modulus_matrix_stays_exact_lists(self):
        # 41-bit share prime: q^2 overflows uint64, so the numpy backend
        # must keep the list representation and the exact matvec path.
        from repro.crypto.modmath import find_prime_one_mod

        q = find_prime_one_mod(41, 2)
        rows = [[q - 1, 2], [3, q - 2]]
        mat = NP.asmatrix(rows, q)
        assert isinstance(mat, list)
        want = [((q - 1) * 5 + 2 * 7) % q, (3 * 5 + (q - 2) * 7) % q]
        assert NP.matvec_mod(mat, [5, 7], q) == want


class TestNttCache:
    def test_cache_is_bounded(self):
        clear_ntt_cache()
        n = 16
        made = 0
        bits = 20
        while made < polynomial._NTT_CACHE_MAX + 8:
            q = find_ntt_prime(bits, n)
            RingPoly([1] * n, q) * RingPoly([2] * n, q)
            bits += 1
            made += 1
        assert ntt_cache_size() <= polynomial._NTT_CACHE_MAX
        clear_ntt_cache()
        assert ntt_cache_size() == 0
