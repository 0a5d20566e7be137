"""The evaluation-domain matvec computes the public ops' ciphertexts, bit
for bit.

``HomomorphicLinearEvaluator.matvec`` runs the diagonal method in
output-rotation (Horner) order and keeps its working ciphertext in the
evaluation domain between one forward and one inverse transform. Nothing
about the *result* may depend on the second part: these tests hold it
equal, residue for residue, to the same Horner sum built from the public
``rotate`` / ``mul_plain`` / ``+`` ops on every backend x representation
cell, pin whole-protocol frames to recorded digests, check the lazily
reduced inner product at its overflow boundary against Python integers,
and keep every error path raising what it raised before.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.backend import available_backends, backend_for, get_backend
from repro.core.protocol import HybridProtocol
from repro.crypto.modmath import is_probable_prime
from repro.crypto.rng import SecureRandom
from repro.he.bfv import BfvContext, GaloisKeys
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator
from repro.he.params import delphi_params, fast_params, toy_params
from repro.he.polynomial import RingPoly
from repro.network.serialize import serialize_ciphertext
from repro.nn.datasets import tiny_dataset
from repro.nn.models import tiny_mlp

# Degree-64 members of the three parameter families (the delphi chain and
# plaintext prime are 1 mod 4096, so they serve any smaller power of two):
# a full batching row is 32 slots, small enough for the python oracle.
SMALL = {
    "toy": toy_params(n=64),
    "fast": fast_params(n=64),
    "delphi": dataclasses.replace(delphi_params(), n=64),
}
CELLS = [
    (name, backend, representation)
    for name in SMALL
    for backend in available_backends()
    for representation in ("bigint", "rns")
    if representation == "bigint" or SMALL[name].rns_primes
]
# (n_out, n_in): widths 1, 2, 16 and the full row; heights 1, n_in, > n_in.
SHAPES = [(1, 1), (2, 2), (1, 16), (16, 16), (32, 16), (4, 32), (32, 32)]


def keyed(params, seed=3):
    ctx = BfvContext(params, SecureRandom(seed))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    g = encoder.galois_element_for_rotation(1)
    return ctx, encoder, sk, pk, g, ctx.galois_keygen(sk, [g])


def reference_matvec(ctx, encoder, gk, ct, matrix):
    """The diagonal method in Horner order, spelled out with the public
    ciphertext ops: ``acc = rotate(acc) + P_d * x`` for d = w-1 … 0, P_d
    the d-th generalized diagonal pre-rotated right by d."""
    n_out, n_in = len(matrix), len(matrix[0])
    t, row = ctx.params.t, encoder.row_size
    g = encoder.galois_element_for_rotation(1)
    acc = None
    for d in range(n_in - 1, -1, -1):
        diag = [
            int(matrix[(j - d) % row][j % n_in]) % t if (j - d) % row < n_out else 0
            for j in range(row)
        ]
        term = ctx.mul_plain(ct, encoder.encode(diag + diag))
        acc = term if acc is None else ctx.rotate(acc, g, gk) + term
    return acc


def assert_same_ciphertext(got, want):
    # Poly equality compares the backend vectors (every residue on a chain).
    assert got.c0 == want.c0 and got.c1 == want.c1
    assert serialize_ciphertext(got) == serialize_ciphertext(want)


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def rigs(self):
        cache = {}

        def rig(name, backend, representation):
            key = (name, backend, representation)
            if key not in cache:
                params = dataclasses.replace(
                    SMALL[name], backend=backend, representation=representation
                )
                cache[key] = keyed(params)
            return cache[key]

        return rig

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_matvec_is_the_sum_of_the_public_ops(self, rigs, cell, shape):
        ctx, encoder, sk, pk, g, gk = rigs(*cell)
        params = ctx.params
        n_out, n_in = shape
        rng = np.random.default_rng([n_out, n_in])
        rows = rng.integers(0, params.t, size=shape).tolist()
        x = rng.integers(0, params.t, size=n_in).tolist()
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
        want = reference_matvec(ctx, encoder, gk, ct, rows)
        for matrix in (rows, np.array(rows, dtype=np.uint64)):
            assert_same_ciphertext(evaluator.matvec(ct, matrix), want)
        assert evaluator.rotations_performed == 2 * (n_in - 1)
        assert evaluator.plain_mults_performed == 2 * n_in
        assert encoder.decode(ctx.decrypt(sk, want))[:n_out] == [
            sum(w * v for w, v in zip(row, x)) % params.t for row in rows
        ]

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy backend unavailable"
    )
    @pytest.mark.parametrize(
        "name, shape",
        [("delphi", (8, 16)), ("fast", (128, 16)), ("fast", (3, 128))],
    )
    def test_benchmark_shapes_at_full_degree(self, name, shape):
        """The layers ``bench_e2e`` mints, at their real ring degree: here
        the diagonals are encoded in several bounded blocks (two rows at
        a time at delphi_params), walked from the last one down."""
        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        params = dataclasses.replace(params, backend="numpy")
        ctx, encoder, sk, pk, g, gk = keyed(params, seed=7)
        rng = np.random.default_rng(shape)
        rows = rng.integers(0, params.t, size=shape).tolist()
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        x = rng.integers(0, params.t, size=shape[1]).tolist()
        ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
        want = reference_matvec(ctx, encoder, gk, ct, rows)
        # What lower_network hands a session: asmatrix keeps lists once
        # t^2 overflows a lane (delphi), an array below that (fast).
        lowered = backend_for(params.t, prefer="numpy").asmatrix(rows, params.t)
        assert isinstance(lowered, list) == (name == "delphi")
        assert_same_ciphertext(evaluator.matvec(ct, lowered), want)


# sha256 of each `serialize_ciphertext(ct_out)` frame the server sends in
# the HE pass of a seeded offline phase. Re-recorded on the commit that
# moved the matvec to output-rotation (Horner) order and widened the
# gadgets (three 21-bit digits at fast_params, chain-prime pairs at
# delphi_params): the keys hold different samples and the sum is taken
# in another order, so these are different valid ciphertexts by design —
# the digests of the input-rotation kernel could not carry over. What
# ties them to the public ops is TestBitIdentity above; what they add is
# that a later change to the kernel cannot move a transcript byte
# unnoticed. (When recorded, the arbitrary-precision oracle —
# REPRO_REPRESENTATION=bigint — produced the same eight digests.)
GOLDEN_FRAMES = {
    ("delphi", "client", 8, 1701): [
        "bc58d4471035e06ae3031b0351bd23d0924c93e55523d4abacd48c1c0b38ad38",
        "f0e1e8a66003996f643136bb8c061fc146abf2aec02d28e98762ed2cd795a7df",
    ],
    ("delphi", "client", 8, 1702): [
        "581dec5ec8247af61442f0de50d298d332fdc7d9e98a79f6dedaa38eeb549ce1",
        "e067bafb08cf1a768fbde5e949d4f1c718bf07f533e3390cd4887692957564f3",
    ],
    ("fast", "server", 128, 1701): [
        "be599b944f31b477aa91aa567fdd9905d75e5b8cebc5719a528e6bef6c439535",
        "3d4d638add72c601c1f115086399ba857e79a881f543b6bfbc5665baa3ec6c0f",
    ],
    ("fast", "server", 128, 1702): [
        "7078c0870cc4c955fc803f2d831953461e634e1f52d3ba484509503f4e699b2e",
        "fd562443c15f232098334f590921468cc1485620fa85c8612733e513daad81a9",
    ],
}


def server_ciphertext_digests(params, garbler, hidden, seed):
    """Run one offline phase of the 16-hidden-3 benchmark MLP and hash the
    frames the server sends first — one ``ct_out`` per linear layer."""
    net = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=hidden)
    net.randomize_weights(params.t, np.random.default_rng([seed, 0]))
    proto = HybridProtocol(
        net, params, garbler=garbler, seed=seed, transport="memory"
    )
    frames = []
    send = proto.server.transport.send

    def recording_send(frame):
        frames.append(bytes(frame))
        send(frame)

    proto.server.transport.send = recording_send
    try:
        proto.run_offline()
    finally:
        proto.close()
    he_frames = frames[: len(proto.lowered.linears)]
    return [hashlib.sha256(frame).hexdigest() for frame in he_frames]


class TestGoldenFrames:
    @pytest.mark.parametrize("case", GOLDEN_FRAMES, ids=lambda c: f"{c[0]}-{c[3]}")
    def test_server_frames_match_the_recorded_digests(self, case):
        name, garbler, hidden, seed = case
        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        if backend_for(params.t, prefer=params.backend).name != "numpy":
            pytest.skip("full-degree mints need the vectorized backend")
        assert (
            server_ciphertext_digests(params, garbler, hidden, seed)
            == GOLDEN_FRAMES[case]
        )


def largest_prime_below(limit):
    return next(p for p in range(limit - 1, 2, -1) if is_probable_prime(p))


class TestLazyInnerProduct:
    """``sum_j a[j]*b[j] mod p`` with one reduction per chunk: exact at
    the largest inputs the contract allows, around every chunk boundary."""

    MODULI = {
        "direct": largest_prime_below(1 << 31),  # products fit a lane
        "shoup": largest_prime_below(1 << 62),  # products are reduced first
    }

    @staticmethod
    def chunk(p):
        """Terms one reduction covers, from p as the numpy kernel derives
        it: raw products (below 2p^2) under 2^31, canonical ones above."""
        return (1 << 64) // (2 * p * p) if p < 1 << 31 else (1 << 64) // p

    @pytest.mark.parametrize("regime", MODULI)
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_worst_case_inputs(self, backend_name, regime):
        p = self.MODULI[regime]
        be = get_backend(backend_name)
        chunk = self.chunk(p)
        assert 2 <= chunk < 6  # so D = 6 and 16 both take several chunks
        n = 8
        for depth in (1, chunk, chunk + 1, 6, 16, chunk * chunk + 1):
            # a: lazily reduced transform rows reach 2p - 1; b: canonical.
            a = [be.asvec([2 * p - 1] * n, 2 * p) for _ in range(depth)]
            b = [be.asvec([p - 1] * n, p) for _ in range(depth)]
            want = depth * (2 * p - 1) * (p - 1) % p
            assert be.tolist(be.inner_product(a, b, p)) == [want] * n

    @pytest.mark.parametrize("regime", MODULI)
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_random_inputs_match_python_ints(self, backend_name, regime):
        p = self.MODULI[regime]
        be = get_backend(backend_name)
        rng = np.random.default_rng(p % 1000)
        for depth in (6, 16):
            a = [rng.integers(0, 2 * p, size=32).tolist() for _ in range(depth)]
            b = [rng.integers(0, p, size=32).tolist() for _ in range(depth)]
            got = be.inner_product(
                [be.asvec(row, 2 * p) for row in a],
                [be.asvec(row, p) for row in b],
                p,
            )
            assert be.tolist(got) == [
                sum(x * y for x, y in zip(xs, ys)) % p
                for xs, ys in zip(zip(*a), zip(*b))
            ]

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_row_count_mismatch_raises(self, backend_name):
        be = get_backend(backend_name)
        p = self.MODULI["direct"]
        rows = [be.asvec([1, 2, 3, 4], p) for _ in range(3)]
        for short in (rows[:2], rows[:1]):  # never truncated, never broadcast
            with pytest.raises(ValueError, match="rows"):
                be.inner_product(rows, short, p)


class TestErrorPaths:
    """The checks of the composed public ops, raised as before."""

    @pytest.fixture(scope="class")
    def rig(self):
        return keyed(SMALL["toy"], seed=5)

    def encrypted(self, rig, width):
        ctx, encoder, sk, pk, g, gk = rig
        packer = HomomorphicLinearEvaluator(ctx, encoder, gk)
        return ctx.encrypt(pk, encoder.encode(packer.pack_vector([1] * width)))

    def test_width_must_divide_the_row(self, rig):
        ctx, encoder, sk, pk, g, gk = rig
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        with pytest.raises(ValueError, match="width 3 must divide"):
            evaluator.matvec(self.encrypted(rig, 4), [[1, 2, 3]])

    def test_height_must_fit_the_row(self, rig):
        ctx, encoder, sk, pk, g, gk = rig
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        too_tall = [[1, 2]] * (encoder.row_size + 1)
        with pytest.raises(ValueError, match="height 33 exceeds"):
            evaluator.matvec(self.encrypted(rig, 2), too_tall)

    def test_missing_galois_key(self, rig):
        ctx, encoder, sk, pk, g, gk = rig
        keyless = HomomorphicLinearEvaluator(
            ctx, encoder, GaloisKeys(ctx.params, {})
        )
        with pytest.raises(KeyError, match="no Galois key"):
            keyless.matvec(self.encrypted(rig, 2), [[1, 2]])
        # A width-1 matvec rotates nothing and needs no key, as before.
        out = keyless.matvec(self.encrypted(rig, 1), [[5]])
        assert encoder.decode(ctx.decrypt(sk, out))[0] == 5

    def test_wrong_digit_count(self, rig):
        ctx, encoder, sk, pk, g, gk = rig
        stale = GaloisKeys(ctx.params, {g: gk.keys[g] * 2})
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, stale)
        with pytest.raises(ValueError, match=r"8 .*use 4"):
            evaluator.matvec(self.encrypted(rig, 2), [[1, 2]])

    def test_every_encoded_diagonal_is_range_checked(self, rig, monkeypatch):
        ctx, encoder, sk, pk, g, gk = rig
        params = ctx.params
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        encode_many = encoder.encode_many

        def last_one_unreduced(rows):
            plains = encode_many(rows)
            bad = plains[-1].coeffs[:-1] + [params.t]
            return plains[:-1] + [RingPoly(bad, params.t + 2, plains[-1].backend)]

        monkeypatch.setattr(encoder, "encode_many", last_one_unreduced)
        with pytest.raises(ValueError, match="reduced mod t"):
            evaluator.matvec(self.encrypted(rig, 2), [[1, 2]])
        monkeypatch.setattr(
            encoder, "encode_many", lambda rows: [RingPoly([1, 2], params.t)]
        )
        with pytest.raises(ValueError, match="degree mismatch"):
            evaluator.matvec(self.encrypted(rig, 1), [[1]])
