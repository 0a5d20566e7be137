"""The evaluation-domain matvec computes the public ops' ciphertexts, bit
for bit.

``HomomorphicLinearEvaluator.matvec`` runs the diagonal method in
output-rotation (Horner) order — ``w`` steps of the shape's slot layout —
and keeps its working ciphertext in the evaluation domain between one
forward and one inverse transform. Nothing about the *result* may depend
on the second part: these tests hold it equal, residue for residue, to
the same ``w``-step Horner sum built from the public ``rotate`` /
``mul_plain`` / ``+`` ops on both backends (python bigint, numpy RNS), pin
whole-protocol frames to recorded digests, check the lazily reduced
inner product at its overflow boundary against Python integers, and keep
every error path raising what it raised before.
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
from repro.he.linear import (
    HomomorphicLinearEvaluator,
    clear_plain_cache,
    pack_layers,
    slot_layout,
)
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
# (family, backend, the representation that backend resolves to): python
# computes the bigint oracle, numpy RNS residues wherever there is a chain.
CELLS = [
    (
        name,
        backend,
        dataclasses.replace(params, backend=backend).resolve_representation(),
    )
    for name, params in SMALL.items()
    for backend in available_backends()
]
# (n_out, n_in): widths 1, 2, 16 and the full row; heights 1, n_in, > n_in,
# and two full rows (64 x 32, 40 x 4), where the layout is the full-width
# sum (w = n_in). The others take 1, 1, 1, 4, 8, 2 and 16 steps. Then odd
# heights, which leave unused slots inside a row: one step (3 x 8), four
# (9 x 16, 17 x 8, 5 x 32), and more outputs than a row at width 2 (33 x
# 2), the full-width sum again.
SHAPES = [
    (1, 1), (2, 2), (1, 16), (16, 16), (32, 16), (4, 32), (32, 32), (64, 32),
    (40, 4), (3, 8), (9, 16), (17, 8), (5, 32), (33, 2),
]


def keyed(params, seed=3):
    ctx = BfvContext(params, SecureRandom(seed))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    g = encoder.galois_element_for_rotation(1)
    return ctx, encoder, sk, pk, g, ctx.galois_keygen(sk, [g])


def reference_matvec(ctx, encoder, gk, ct, matrix):
    """The diagonal method in Horner order over the shape's slot layout,
    spelled out with the public ciphertext ops: ``acc = rotate(acc) + P_d
    * x`` for d = w-1 … 0, P_d the d-th diagonal pre-rotated right by d
    within each row — slot j carries the weight of column j mod n_in for
    the output of slot j - d of its row."""
    n_out, n_in = len(matrix), len(matrix[0])
    t, row = ctx.params.t, encoder.row_size
    layout = slot_layout(n_out, n_in, row)
    outputs = layout.outputs.tolist()
    g = encoder.galois_element_for_rotation(1)
    acc = None
    for d in range(layout.steps - 1, -1, -1):
        diag = []
        for j in range(2 * row):
            i = outputs[j // row * row + (j - d) % row]
            diag.append(int(matrix[i][j % n_in]) % t if i < n_out else 0)
        term = ctx.mul_plain(ct, encoder.encode(diag))
        acc = term if acc is None else ctx.rotate(acc, g, gk) + term
    return acc


def decrypted_product(ctx, encoder, sk, ct, n_out, n_in):
    """The decrypted partial sums, added up by the shape's layout."""
    layout = slot_layout(n_out, n_in, encoder.row_size)
    return layout.reduce(encoder.decode(ctx.decrypt(sk, ct)), ctx.params.t)


def assert_same_ciphertext(got, want):
    # Poly equality compares the backend vectors (every residue on a chain).
    assert got.c0 == want.c0 and got.c1 == want.c1
    assert serialize_ciphertext(got) == serialize_ciphertext(want)


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def rigs(self):
        cache = {}

        def rig(name, backend, _representation):
            key = (name, backend)
            if key not in cache:
                params = dataclasses.replace(SMALL[name], backend=backend)
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
        w = slot_layout(n_out, n_in, encoder.row_size).steps
        assert evaluator.rotations_performed == 2 * (w - 1)
        assert evaluator.plain_mults_performed == 2 * w
        assert decrypted_product(ctx, encoder, sk, want, n_out, n_in) == [
            sum(w * v for w, v in zip(row, x)) % params.t for row in rows
        ]

    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_a_packed_group_is_one_plaintext_product(self, rigs, cell):
        """Products that take one step share a ciphertext end to end:
        the group's matvec is one ``mul_plain`` by the members' weights
        side by side, and each member's span reduces to its product."""
        ctx, encoder, sk, pk, g, gk = rigs(*cell)
        t, row = ctx.params.t, encoder.row_size
        shapes = ((4, 8), (3, 4), (5, 2))  # 32 + 12 + 10 of 64 slots
        (group,) = pack_layers(shapes, row)
        rng = np.random.default_rng(len(cell[0]))
        mats = [rng.integers(0, t, size=shape).tolist() for shape in shapes]
        xs = [rng.integers(0, t, size=shape[1]).tolist() for shape in shapes]
        vector, diag, offset = [0] * (2 * row), [0] * (2 * row), 0
        for (n_out, n_in), matrix, x in zip(shapes, mats, xs):
            for j in range(n_out * n_in):
                vector[offset + j] = x[j % n_in]
                diag[offset + j] = matrix[j // n_in][j % n_in]
            offset += n_out * n_in
        assert group.vector(xs).tolist() == vector
        ct = ctx.encrypt(pk, encoder.encode(vector))
        want = ctx.mul_plain(ct, encoder.encode(diag))
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, None)
        for matrices in (mats, [np.array(m, dtype=np.uint64) for m in mats]):
            assert_same_ciphertext(evaluator.matvec(ct, *matrices, group=group), want)
        assert evaluator.rotations_performed == 0
        assert evaluator.plain_mults_performed == 2
        assert group.reduce(encoder.decode(ctx.decrypt(sk, want)), t) == [
            [sum(w * v for w, v in zip(row_, x)) % t for row_ in matrix]
            for matrix, x in zip(mats, xs)
        ]
        with pytest.raises(ValueError, match="a 3x4 matrix in a 4x8 layout"):
            evaluator.matvec(ct, mats[1], mats[0], mats[2], group=group)

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy backend unavailable"
    )
    @pytest.mark.parametrize(
        "name, shape",
        [("delphi", (8, 16)), ("fast", (128, 16)), ("fast", (3, 128))],
    )
    def test_benchmark_shapes_at_full_degree(self, name, shape):
        """The layers ``bench_e2e`` mints, at their real ring degree: one
        unrotated product at delphi_params, eight steps and two (in
        bounded blocks, walked from the last one down) at fast_params."""
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
        assert decrypted_product(ctx, encoder, sk, want, *shape) == [
            sum(w * v for w, v in zip(row, x)) % params.t for row in rows
        ]


@pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy backend unavailable"
)
class TestOraclePair:
    """The python backend (bigint) and the numpy backend (RNS residues
    wherever there is a chain) are the oracle pair: keyed from one seed,
    they hold one secret, and a matvec on either returns the same
    ciphertext, byte for byte on the wire."""

    @pytest.fixture(scope="class")
    def pairs(self):
        cache = {}

        def pair(name):
            # Every test draws the same encryptions on both rigs, so the
            # two generators stay in step for as long as the class runs.
            if name not in cache:
                cache[name] = [
                    keyed(dataclasses.replace(SMALL[name], backend=backend))
                    for backend in ("python", "numpy")
                ]
            return cache[name]

        return pair

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("name", SMALL)
    def test_matvec_is_one_ciphertext_on_both_backends(self, pairs, name, shape):
        n_out, n_in = shape
        rng = np.random.default_rng([n_out, n_in, 1])
        t = SMALL[name].t
        rows = rng.integers(0, t, size=shape).tolist()
        x = rng.integers(0, t, size=n_in).tolist()
        wires, products = [], []
        for ctx, encoder, sk, pk, g, gk in pairs(name):
            assert ctx.params.resolve_representation() == (
                "rns" if ctx.params.backend == "numpy" and ctx.params.rns_primes
                else "bigint"
            )
            evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
            ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
            out = evaluator.matvec(ct, rows)
            wires.append(serialize_ciphertext(out))
            products.append(decrypted_product(ctx, encoder, sk, out, n_out, n_in))
        assert wires[0] == wires[1]
        assert products[0] == products[1] == [
            sum(w * v for w, v in zip(row, x)) % t for row in rows
        ]

    @pytest.mark.parametrize("name", SMALL)
    def test_a_packed_group_is_one_ciphertext_on_both_backends(self, pairs, name):
        shapes = ((4, 8), (3, 4), (5, 2))
        (group,) = pack_layers(shapes, SMALL[name].n // 2)
        rng = np.random.default_rng(len(name) + 1)
        t = SMALL[name].t
        mats = [rng.integers(0, t, size=shape).tolist() for shape in shapes]
        xs = [rng.integers(0, t, size=shape[1]).tolist() for shape in shapes]
        wires = []
        for ctx, encoder, sk, pk, g, gk in pairs(name):
            ct = ctx.encrypt(pk, encoder.encode(group.vector(xs)))
            evaluator = HomomorphicLinearEvaluator(ctx, encoder, None)
            out = evaluator.matvec(ct, *mats, group=group)
            wires.append(serialize_ciphertext(out))
            assert group.reduce(encoder.decode(ctx.decrypt(sk, out)), t) == [
                [sum(w * v for w, v in zip(row, x)) % t for row in matrix]
                for matrix, x in zip(mats, xs)
            ]
        assert wires[0] == wires[1]


# sha256 of each `serialize_ciphertext(ct_out)` frame the server sends in
# the HE pass of a seeded offline phase. Re-recorded on the commit that
# moved the matvec to output-rotation (Horner) order and widened the
# gadgets (three 21-bit digits at fast_params, chain-prime pairs at
# delphi_params): the keys hold different samples and the sum is taken
# in another order, so these are different valid ciphertexts by design —
# the digests of the input-rotation kernel could not carry over. What
# ties them to the public ops is TestBitIdentity above; what they add is
# that a later change to the kernel cannot move a transcript byte
# unnoticed. (When recorded, the arbitrary-precision bigint oracle
# produced the same eight digests.)
# Re-recorded once more on the commit that made the client's Enc(r) a
# seeded symmetric encryption: every Enc(W r - s) the server returns is
# computed from a different (equally valid) Enc(r), so all eight moved.
# The four delphi ones moved again, once, when the returns were
# modulus-switched to four chain primes (the fast ones switch nothing).
# All eight moved once more when the returns became masked partial sums
# in the shapes' slot layouts: other products under other masks (and at
# delphi, where no layer rotates, from another Enc(r): no Galois key is
# drawn from the BFV context's stream before it). The two delphi 16-8-3
# returns of each seed became one when both products were packed into
# one ciphertext (:func:`repro.he.linear.pack_layers`); the fast 16-128-3
# ones, whose layers rotate and stay alone, kept their digests.
# All six moved once more when SecureRandom.field_vector began drawing
# 64-bit words and reducing those below the largest multiple of the
# modulus (it masked words to the modulus' bit length): r, s and the
# masks are other draws from the same streams.
GOLDEN_FRAMES = {
    ('delphi', 'client', 8, 1701): [
        "f587faeab2117ec0ae64c51abb982a2e9ad1a3ec0f6ffdce67753a23f0014050",
    ],
    ('delphi', 'client', 8, 1702): [
        "6395c2639d9d8fb6962cdde8874c384001e73093c7bcca97c852dc021ed145ef",
    ],
    ('fast', 'server', 128, 1701): [
        "6a723be4a232f5f40107d28eafcfad167ba806ed251e2d5aa52fb6a0b97a4725",
        "8ca40f90de437760794f43a73869b1924a8148a828853ee9d17bf4c59063d016",
    ],
    ('fast', 'server', 128, 1702): [
        "b2a0a83fdd73aa02c8c7a6fadd2f39d89b85b7a2557b702ecf3551d89c91c05b",
        "ca4ddd2bfd4ca6a4d91ea227ce623a33cffa8fdf960ca3df51c2616d88853e97",
    ],
}


def server_ciphertext_digests(params, garbler, hidden, seed):
    """Run one offline phase of the 16-hidden-3 benchmark MLP and hash the
    frames the server sends first — one ``ct_out`` per group of the
    packing plan."""
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
    he_frames = frames[: len(proto.server.plan)]
    return [hashlib.sha256(frame).hexdigest() for frame in he_frames]


def every_frame_digests(params, garbler, hidden, seed):
    """Run one seeded offline and online phase of the same MLP and hash
    every frame either party sends, in send order per (party, phase).
    Also returns the per-phase ``(messages, bytes)`` each party charged."""
    net = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=hidden)
    net.randomize_weights(params.t, np.random.default_rng([seed, 0]))
    x = np.random.default_rng([seed, 1]).integers(0, params.t, size=16).tolist()
    proto = HybridProtocol(
        net, params, garbler=garbler, seed=seed, transport="memory"
    )
    digests = {}
    phase = "offline"
    for party in (proto.client, proto.server):
        def recording_send(frame, _role=party.role, _send=party.transport.send):
            digests.setdefault(f"{_role}/{phase}", []).append(
                hashlib.sha256(bytes(frame)).hexdigest()
            )
            _send(frame)

        party.transport.send = recording_send
    try:
        proto.run_offline()
        phase = "online"
        assert proto.run_online(x) == proto.plaintext_reference(x)
    finally:
        proto.close()
    return digests, [
        {
            (phase, direction): (stats.messages, stats.bytes)
            for phase, directions in party.channel.phase_stats.items()
            for direction, stats in directions.items()
        }
        for party in (proto.client, proto.server)
    ]


# sha256 of EVERY frame of the four (params, hidden, seed) cases above,
# each under both garblers — keys, ciphertexts, garbled batches, label
# lists, OT choice and reply frames, the masked input and the final
# share — both parties, both phases. Recorded on the
# tree before the garbler/evaluator legs of core/session.py were written
# once, and not edited by that change: GOLDEN_TRANSCRIPT below pins
# charged bytes and message counts, this pins the bytes on the wire and
# with them the RNG draw order (every layer's garbling RNG spawns before any
# layer is garbled; the OT holder spawns one per layer when it serves).
# GC frames depend on the garbler in use (vectorized on numpy, scalar on
# python draw different labels from one seed), hence the numpy-only skip.
# Twelve digests — each case's garbled-circuit batch and, under the server
# garbler, the output labels the client returns — were re-recorded once,
# on the commit that made the row hash salted BLAKE2s; every input-label,
# OT, HE and share frame kept the digest recorded above (the commit before
# it, which made the batch columnar, moved none). The commit that stopped
# sending the public key and seeded the client's uniform halves moved only
# HE frames, once: the client's public-key frame is gone, its Galois-key
# and two Enc(r) frames and the server's two Enc(W r - s) returns were
# re-recorded; every GC, OT, masked-input and final-share digest is the
# one recorded before it (the key material draws from the BFV context's
# own spawned stream, so no other draw moved). The commit that
# modulus-switched the server's returns moved only those: the two delphi
# Enc(W r - s) frames of each case are now 0x0E frames at four primes;
# every fast digest and every other delphi digest kept its value. The
# commit that returned masked partial sums (the slot layout) moved HE
# frames and the server's draws after its mask stream spawns, once:
# - at delphi the client's Galois-key frame is gone (16-8-3 rotates
#   nothing) and its two Enc(r) frames moved (no key drawn before them);
#   at fast 16-128-3 the client's offline frames kept their digests;
# - every Enc(W r - s) return moved;
# - under the server garbler, what the server draws after the mask spawn
#   moved: its garbled batch and label-OT reply offline, its share's
#   labels online, and with them the output labels the client returns;
# - every client GC, OT choice, masked-input and final-share digest kept
#   its value, and under the client garbler nothing but HE frames moved.
# The commit that packed every rotation-free product into one ciphertext
# moved only the delphi 16-8-3 HE frames: the client's two Enc(r) frames
# are one, the server's two returns are one; every key, GC, OT,
# masked-input and final-share digest kept its value, and every fast
# 16-128-3 digest (both layers rotate, each alone) is unchanged.
# The commit that built the ReLU from one-AND adders with constant folding
# (286 ANDs at 41 bits instead of 534, 118 at 17 instead of 222) moved only
# the GC frames, once: each case's garbled-circuit batch and, under the
# server garbler, the output labels the client returns. The labels are
# drawn before the walk, so every HE, key, OT-choice, label-OT reply,
# masked-input and final-share digest kept its value; in
# GOLDEN_TRANSCRIPT the garbled batch's offline direction shrank by
# relus x (old - new ANDs) x 32 B: 8 x 248 x 32 = 63,488 B at delphi,
# 128 x 104 x 32 = 425,984 B at fast.
# The commit that made the row hash fixed-key AES (the TCCR hash of
# crypto/prg.py) moved the same twelve GC digests once more, and nothing
# else: each case's garbled-circuit batch and, under the server garbler,
# the output labels the client returns. Labels and choices are drawn
# before any hash and the label-OT reply carries the chosen labels, so
# every HE, key, OT-choice, label, masked-input and final-share digest
# and every GOLDEN_TRANSCRIPT book kept its value.
# The commit that made SecureRandom.field_vector draw 64-bit words below
# the largest multiple of the modulus and reduce them (it masked words to
# the modulus' bit length) moved every frame that a field draw reaches —
# the client's r and hence Enc(r), the server's s and masks and hence its
# returns, and every GC, OT and share frame after them — and only the
# fast client's Galois-key frame kept its digest; every GOLDEN_TRANSCRIPT
# book kept its value. The same commit made the IKNP column PRG the row
# hash in counter mode; the sessions charge the columns and masked pairs
# by their transcript and send the chosen labels, so that half moved no
# frame (checked alone, before the draw changed).
GOLDEN_EVERY_FRAME = {
    ('delphi', 'server', '8', '1701'): {
        "client/offline": [
            "608f0b60362361a8624b79868b456453ddde6ff6fdf4f04b8fc104fbf07ec738",
            "c4d34af7f37b60d06bda2ca7462a13b7f716a42b963ca147e29080cae6fb18ec",
        ],
        "server/offline": [
            "f587faeab2117ec0ae64c51abb982a2e9ad1a3ec0f6ffdce67753a23f0014050",
            "dc1277d944e20ce99ce9ffca688809ef343a4c3932ccabed533d8cb2db1d363f",
            "32b90f38a1c839745f24ea139aefbe651d6799a4b5e9828ca491b5f7110db7df",
        ],
        "client/online": [
            "8f76fd924d407da99db74a84314e3eba48c108b1b6f51a5afefb28db2fd1ce37",
            "265cce265379f8fa3eeac8e25af9cff303e9b8336b7a60246c4f3f745e5cc0d1",
        ],
        "server/online": [
            "321c98d9ca4dcf0b4fbdf3fce689d095fa55f02ff11a1eecb64b901e688af59f",
            "3bd497de6e3b0a444bde34485ef2ee59bd2df57ab8f8cc5a25ba77a3486bebbd",
        ],
    },
    ('delphi', 'client', '8', '1701'): {
        "client/offline": [
            "608f0b60362361a8624b79868b456453ddde6ff6fdf4f04b8fc104fbf07ec738",
            "9f66d483a26cae0e6d63095c87165934c45022a9ce243d6805c17256724f05b7",
            "fcdff4a4b221896793e074b8f789d54288ef6499155631a4c0e96de69c9122fc",
        ],
        "server/offline": [
            "f587faeab2117ec0ae64c51abb982a2e9ad1a3ec0f6ffdce67753a23f0014050",
        ],
        "client/online": [
            "8f76fd924d407da99db74a84314e3eba48c108b1b6f51a5afefb28db2fd1ce37",
            "3cd61a9de4ee479826db763778981bd169522913fd6746d1214260ea1a14d690",
        ],
        "server/online": [
            "304e2733384db4fd74fde79865adb86f3b6463bc30da0c4e14d75f7296883c08",
            "3bd497de6e3b0a444bde34485ef2ee59bd2df57ab8f8cc5a25ba77a3486bebbd",
        ],
    },
    ('delphi', 'server', '8', '1702'): {
        "client/offline": [
            "00bec5844926893705f44f6145294088022a05f13c21c9fd7641200de9d1be63",
            "df8e1b15c8718a29d94007aa2bd95046f498ef0a118370a5c8751b025d2cd6c8",
        ],
        "server/offline": [
            "6395c2639d9d8fb6962cdde8874c384001e73093c7bcca97c852dc021ed145ef",
            "b5fa5f7176051ed5d16be8d27bf0a452451df68d547683cb686afc67fddc7a3c",
            "222e7b2b93663664d4b0c0b4453e732d382942cbadcd66400a60260c99d49222",
        ],
        "client/online": [
            "871070d3c0ad8dbd10a04c083d46adbb11b9086b130deae91738c66b8487be65",
            "add1fb5388a775dfe12c150bae992254c4dc6cc4d1cd0775491c5744699e73d9",
        ],
        "server/online": [
            "3a0c67524d938f009971e67339d7d390acd7f19830d5d291709008d8e0247d5f",
            "0453f8b19483ca57fdc533088ce11be05adcb5cf91ea8ce320c2e93ec45a08da",
        ],
    },
    ('delphi', 'client', '8', '1702'): {
        "client/offline": [
            "00bec5844926893705f44f6145294088022a05f13c21c9fd7641200de9d1be63",
            "fb9fe3ff10fe4ad65e96199ea424abd4f236b02e256fcf46ee015284b99231b9",
            "195307fb52c8fc9dce0af7826fd66e3100e7a1343c1e8c2b704e9ead6d72e4cd",
        ],
        "server/offline": [
            "6395c2639d9d8fb6962cdde8874c384001e73093c7bcca97c852dc021ed145ef",
        ],
        "client/online": [
            "871070d3c0ad8dbd10a04c083d46adbb11b9086b130deae91738c66b8487be65",
            "11dce76b32cba2249e9cd8cc43860d6e5696404337e1130ec5c8d63b92d7b54b",
        ],
        "server/online": [
            "ef17c40b5ceb89c1bc76685d537836554df66a82b165203e251d4a1dee2df6b6",
            "0453f8b19483ca57fdc533088ce11be05adcb5cf91ea8ce320c2e93ec45a08da",
        ],
    },
    ('fast', 'server', '128', '1701'): {
        "client/offline": [
            "9a181ed864aca26576e9f4d06b93a6961123d8a4f935c3715b4f3242aa8d9995",
            "eb7bbbc36e5da4f08638611b92fd49850399bf3a4adcb4cbb5b67f622c5220ce",
            "ac0e899d6574f22fed703eb2bcf5b33915347922c1f1f4d56ba57f7c6c172fea",
            "4903ea483bd060b8af1ea963374d21c414b3753b632fa1d6ae22a60ca7df1ba1",
        ],
        "server/offline": [
            "6a723be4a232f5f40107d28eafcfad167ba806ed251e2d5aa52fb6a0b97a4725",
            "8ca40f90de437760794f43a73869b1924a8148a828853ee9d17bf4c59063d016",
            "546f2db4a669d344ef756adfd6bafb2113914775d966df9dc397d7ce3a455faa",
            "0ed5a92986227f3daea6e246a47853549cf9b2af9a4603a028b31b93cae1cd56",
        ],
        "client/online": [
            "5cd95cfa05b2d0422f3a07f2ba33d124cb672817a4c0ef02dcf07522cec94ca4",
            "23c0134631f8221f5b6f098c946c29e64620038b7ec70f03367d27ee12a9eed6",
        ],
        "server/online": [
            "ff3a6e7aef831f60999b9e9c77cc9d8f49597ae09c182f4efa99a7a3c181d174",
            "c6a9c7923c50f36995c4ee6eff3b5749e2fe45b001fe9a6600c7572f421cc8c0",
        ],
    },
    ('fast', 'client', '128', '1701'): {
        "client/offline": [
            "9a181ed864aca26576e9f4d06b93a6961123d8a4f935c3715b4f3242aa8d9995",
            "eb7bbbc36e5da4f08638611b92fd49850399bf3a4adcb4cbb5b67f622c5220ce",
            "ac0e899d6574f22fed703eb2bcf5b33915347922c1f1f4d56ba57f7c6c172fea",
            "9ea0a59218f15310819f40afe6d4792d7e5e6227a7b9af4a672d2f327b05f944",
            "8c7b6d4ffe0e7b0a8ecfc093b7435e17a34fd59933916861015bcbe629cfe97e",
        ],
        "server/offline": [
            "6a723be4a232f5f40107d28eafcfad167ba806ed251e2d5aa52fb6a0b97a4725",
            "8ca40f90de437760794f43a73869b1924a8148a828853ee9d17bf4c59063d016",
        ],
        "client/online": [
            "5cd95cfa05b2d0422f3a07f2ba33d124cb672817a4c0ef02dcf07522cec94ca4",
            "05aa1b0d423196ccd60d14715aa3313d3a25df5aab3bc3905848f95b113483d7",
        ],
        "server/online": [
            "35b1cfaf404396f5554a4f31435e1fb3beed4fbf8c47854b27ac3e624fa0845d",
            "c6a9c7923c50f36995c4ee6eff3b5749e2fe45b001fe9a6600c7572f421cc8c0",
        ],
    },
    ('fast', 'server', '128', '1702'): {
        "client/offline": [
            "41c452953d83a5d41050af0f1859c3b824c9b6d9dc2800432087b0d638ab0eac",
            "8f79e9136e6ea8ed97f54847e51f5cfe43d71ca14247ef6616c9028fbc4562b1",
            "39618a457b2329bff52936ef6d025adbb9d54e351157e6a1cde8edeaa5f321f4",
            "5e27e99c9b824d60b470cb92db5160e7ad209fe71e154aecfd1469e109d8d4e1",
        ],
        "server/offline": [
            "b2a0a83fdd73aa02c8c7a6fadd2f39d89b85b7a2557b702ecf3551d89c91c05b",
            "ca4ddd2bfd4ca6a4d91ea227ce623a33cffa8fdf960ca3df51c2616d88853e97",
            "df8cda4b1170d03ede27fd3d993e916f7d1457f3eb943fc8a6104784c433de15",
            "992185203418ad9dd5f6b608f5067d10c833635072b63714bfbf4cd9dac955b2",
        ],
        "client/online": [
            "be788ae9dd5887bad9207dd08228c1399580209aa54d3fa3a7a5456b5277502f",
            "b806683c89b387f15b65fb67a0fccd542c020b494e5b73a0e7ebabf67f4a73d5",
        ],
        "server/online": [
            "7733b6957ee7c17e06becbb0f3802edd2b1fb083532725d2ee10a89330632dfd",
            "3caa8ae60b023a702ca343e0e6cafa62636f5527d12dca2b55cbc3da7c13b279",
        ],
    },
    ('fast', 'client', '128', '1702'): {
        "client/offline": [
            "41c452953d83a5d41050af0f1859c3b824c9b6d9dc2800432087b0d638ab0eac",
            "8f79e9136e6ea8ed97f54847e51f5cfe43d71ca14247ef6616c9028fbc4562b1",
            "39618a457b2329bff52936ef6d025adbb9d54e351157e6a1cde8edeaa5f321f4",
            "b60d807f3cfe3fa6b2f81a52a4990c189f5b3e17e72dea97c3763df22e8f6208",
            "1fa772abd4c3b14e99a948523329ee118070a9d0dce66ab1027eddb7fda8ac18",
        ],
        "server/offline": [
            "b2a0a83fdd73aa02c8c7a6fadd2f39d89b85b7a2557b702ecf3551d89c91c05b",
            "ca4ddd2bfd4ca6a4d91ea227ce623a33cffa8fdf960ca3df51c2616d88853e97",
        ],
        "client/online": [
            "be788ae9dd5887bad9207dd08228c1399580209aa54d3fa3a7a5456b5277502f",
            "35f261f26b6fd2533b01ceed5489a344b386f51f57aa3d37cd686c79ab204d54",
        ],
        "server/online": [
            "ea87b9d68b76cd63d9313eaa6b2a5de4cfe499d6bb26024692f970c9a75ddda1",
            "3caa8ae60b023a702ca343e0e6cafa62636f5527d12dca2b55cbc3da7c13b279",
        ],
    },
}

# The (messages, bytes) each party charges per (phase, direction) in the
# cases above — the same for both seeds, and for both parties' books.
# Offline up under Client-Garbler at delphi, 194,640 B: one seeded Enc(r)
# (47,136, half a 94,208-B ciphertext plus a 32-B seed), which carries
# both 16-8-3 products' inputs side by side, and the garbled batches with
# the client's own labels (147,504); no public key, and no Galois key —
# neither 16-8-3 product rotates (it was 3 x 47,136 = 141,408 B while
# every product took the full-width sum). At fast 16-128-3 the hidden
# layer takes eight steps, so the key stays and each layer keeps a
# ciphertext of its own. Offline down at delphi carries the one
# Enc(W r - s) return switched to four chain primes: 2 x 2048 x 15 B =
# 61,440 (94,208 at all six; two returns, 122,880 B, before packing).
GOLDEN_TRANSCRIPT = {
    ("delphi", "server", "8"): {
        ("setup", "up"): (1, 32),
        ("setup", "down"): (1, 4_096),
        ("offline", "up"): (2, 57_632),
        ("offline", "down"): (3, 155_648),
        ("online", "up"): (2, 5_344),
        ("online", "down"): (2, 5_266),
    },
    ("delphi", "client", "8"): {
        ("setup", "up"): (1, 4_096),
        ("setup", "down"): (1, 32),
        ("offline", "up"): (3, 131_152),
        ("offline", "down"): (1, 61_440),
        ("online", "up"): (2, 10_592),
        ("online", "down"): (2, 5_266),
    },
    ("fast", "server", "128"): {
        ("setup", "up"): (1, 32),
        ("setup", "down"): (1, 4_096),
        ("offline", "up"): (4, 80_032),
        ("offline", "down"): (4, 630_784),
        ("online", "up"): (2, 34_864),
        ("online", "down"): (2, 34_825),
    },
    ("fast", "client", "128"): {
        ("setup", "up"): (1, 4_096),
        ("setup", "down"): (1, 32),
        ("offline", "up"): (5, 567_840),
        ("offline", "down"): (2, 8_192),
        ("online", "up"): (2, 69_680),
        ("online", "down"): (2, 34_825),
    },
}


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

    @pytest.mark.parametrize("case", GOLDEN_EVERY_FRAME, ids="-".join)
    def test_every_frame_of_both_phases_matches_the_recorded_digests(self, case):
        name, garbler, hidden, seed = case
        hidden, seed = int(hidden), int(seed)
        params = {"delphi": delphi_params(), "fast": fast_params(256)}[name]
        if backend_for(params.t, prefer=params.backend).name != "numpy":
            pytest.skip("full-degree mints need the vectorized backend")
        digests, books = every_frame_digests(params, garbler, hidden, seed)
        assert digests == GOLDEN_EVERY_FRAME[case]
        assert books == [GOLDEN_TRANSCRIPT[(name, garbler, str(hidden))]] * 2


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

    @staticmethod
    def two_rows(encoder):
        """A width-2 matrix filling both batching rows: the one shape of
        that width whose product rotates (w = 2)."""
        return [[1, 2]] * (2 * encoder.row_size)

    def test_height_must_fit_the_row(self, rig):
        ctx, encoder, sk, pk, g, gk = rig
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        too_tall = self.two_rows(encoder) + [[1, 2]]
        with pytest.raises(ValueError, match="height 65 exceeds"):
            evaluator.matvec(self.encrypted(rig, 2), too_tall)

    def test_missing_galois_key(self, rig):
        ctx, encoder, sk, pk, g, gk = rig
        keyless = HomomorphicLinearEvaluator(
            ctx, encoder, GaloisKeys(ctx.params, {})
        )
        with pytest.raises(KeyError, match="no Galois key"):
            keyless.matvec(self.encrypted(rig, 2), self.two_rows(encoder))
        # A product that fits its slots unrotated needs no key at all.
        for keys in (GaloisKeys(ctx.params, {}), None):
            keyless = HomomorphicLinearEvaluator(ctx, encoder, keys)
            with pytest.raises(KeyError, match="no Galois key"):
                keyless.matvec(self.encrypted(rig, 2), self.two_rows(encoder))
            out = keyless.matvec(self.encrypted(rig, 2), [[5, 7]])
            assert decrypted_product(ctx, encoder, sk, out, 1, 2) == [12]
            assert keyless.rotations_performed == 0

    def test_wrong_digit_count(self, rig):
        ctx, encoder, sk, pk, g, gk = rig
        stale = GaloisKeys(ctx.params, {g: gk.keys[g] * 2})
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, stale)
        with pytest.raises(ValueError, match=r"8 .*use 4"):
            evaluator.matvec(self.encrypted(rig, 2), self.two_rows(encoder))

    def test_every_encoded_diagonal_is_range_checked(self, rig, monkeypatch):
        ctx, encoder, sk, pk, g, gk = rig
        params = ctx.params
        clear_plain_cache()  # the check runs when a diagonal is encoded
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
