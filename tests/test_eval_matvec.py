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
from repro.he.linear import HomomorphicLinearEvaluator, clear_plain_cache
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
# Re-recorded once more on the commit that made the client's Enc(r) a
# seeded symmetric encryption: every Enc(W r - s) the server returns is
# computed from a different (equally valid) Enc(r), so all eight moved.
# The four delphi ones moved again, once, when the returns were
# modulus-switched to four chain primes (the fast ones switch nothing).
GOLDEN_FRAMES = {
    ("delphi", "client", 8, 1701): [
        "012884e474eee2df42d540fd0939f7fabb4f267b00a249e7063d8571c65a36c9",
        "86813c1fbce7bada489760fb04c82ffdefd95673c998cea710fd1b44fe036e6c",
    ],
    ("delphi", "client", 8, 1702): [
        "b59f32df77a252351ec717efd51167b558301dd85fd325a4fa305d9c7191b9ff",
        "e6148f2dd8776caf14def0460ecf6f1cf60e7658c52fdb86a95cb655abc1390a",
    ],
    ("fast", "server", 128, 1701): [
        "726df8df3c303fdb51cc46bba0ee35d5e57ecc2118e6d9d353eabecd0e3369e1",
        "3648599ba77ae40e65daf827bd77b6fe6de6bea61727c9b832414b4940aa6fc5",
    ],
    ("fast", "server", 128, 1702): [
        "7b9117562856b8e7df4cd11317a1f0dd93550596085bd951a6cd3f2432986205",
        "cccd88e6836349ea34d5463c0ef6d7a3a43c641c616954cd6718036a426ed7db",
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
# every fast digest and every other delphi digest kept its value.
GOLDEN_EVERY_FRAME = {
    ("delphi", "server", "8", "1701"): {
        "client/offline": [
            "1ba6098f436e9df7f2187a46e52c43a0960cf0830ae3819fb892c5e532887d7b",
            "990f713383089d65cd067d107b458386eecc0960882f281b7c9188f42d301222",
            "881744ab681d88c093591069792c9334faa22e86c8ad7a8bc634eb32048fd36c",
            "7cb5808c1adabd364205b23b343568032cf578ea9b2a978365ddc11c174283d8",
        ],
        "server/offline": [
            "012884e474eee2df42d540fd0939f7fabb4f267b00a249e7063d8571c65a36c9",
            "86813c1fbce7bada489760fb04c82ffdefd95673c998cea710fd1b44fe036e6c",
            "412d08cb1e04c0548a49cb00166eef4d40503fa7bafd4b7b710a273590bf35e6",
            "8c9e8625702e8b5b7e5a36e2aaa051c4cbf384e17a9c93be81682da816b9d502",
        ],
        "client/online": [
            "6392cf04c03bd66865c358d0a03ab017f402d8b9c279838d079210a64550d60e",
            "d8bb01b299abd0d9c0f98e87f340aff55f096be0fd0df10e62822bb3f8d2f1c9",
        ],
        "server/online": [
            "c5b12ba1a04aba9ed273cf5d735b0eb83d8478923d15199de65c737f6496427c",
            "aeadc0a5bb3676f860b57ecf320fa31f57ac872730d7ec8a24d6aa70a024f674",
        ],
    },
    ("delphi", "client", "8", "1701"): {
        "client/offline": [
            "1ba6098f436e9df7f2187a46e52c43a0960cf0830ae3819fb892c5e532887d7b",
            "990f713383089d65cd067d107b458386eecc0960882f281b7c9188f42d301222",
            "881744ab681d88c093591069792c9334faa22e86c8ad7a8bc634eb32048fd36c",
            "c2abcdafdb99da291a6ea311e7275eb48e7474e26ffa8dc38921016771c168bc",
            "af23bca044f6f7ba5d9e6c3ec2d1a66a5dadf1b64a2ccd5fe664de46d01bfb19",
        ],
        "server/offline": [
            "012884e474eee2df42d540fd0939f7fabb4f267b00a249e7063d8571c65a36c9",
            "86813c1fbce7bada489760fb04c82ffdefd95673c998cea710fd1b44fe036e6c",
        ],
        "client/online": [
            "6392cf04c03bd66865c358d0a03ab017f402d8b9c279838d079210a64550d60e",
            "8b1db8c8d5d14f32404251741d614bc4ad83477470e5e716c978d09e3376b315",
        ],
        "server/online": [
            "49d61066e7447a16bfdc05e0c95289d4b0d6ca1a62a8c6600e7053432e9edae2",
            "aeadc0a5bb3676f860b57ecf320fa31f57ac872730d7ec8a24d6aa70a024f674",
        ],
    },
    ("delphi", "server", "8", "1702"): {
        "client/offline": [
            "cff9ecfbf021c88aa3b1e996ddba0dfd32ac422a593224ae0ad110dac40e38e6",
            "e03de2a2bf98e49b5e81975bb23b460821ee0d7bf62979a56ef9bb1ea5c7290e",
            "0a52c62a050747375019101e110df92800b0ce04a3679fd9c5f10c8bd5d3a266",
            "f0325c018c42a94c9df1fffc9cbdb7f5ae7e39a758b062ef963358b70a4b5bc7",
        ],
        "server/offline": [
            "b59f32df77a252351ec717efd51167b558301dd85fd325a4fa305d9c7191b9ff",
            "e6148f2dd8776caf14def0460ecf6f1cf60e7658c52fdb86a95cb655abc1390a",
            "eca38736ce8b1c6d6b5f8ed41bba54fa8a1352010da7182c87684d97b2b0cf1b",
            "9337b6538d5a846f860a5985c42edc80be14e50e2c946d69513d128c0c82cfcb",
        ],
        "client/online": [
            "e1f963eb5208365b76db105d7b7b1618babb74f3bbeb98e86328097a8ae47827",
            "c89efb97a773a8d269cc4a0331ecac45c5eaf3e682c22a38a5e92b8f4197dfb0",
        ],
        "server/online": [
            "8b6b8c2f8cb4364e7f38c28dc899c3fe11e470ac8eddd92efb5509f83e690ef5",
            "29f8794cc836eb57990f0aac6f87e3ce1a2f1e92843fb52f0e0d2eeee382bb01",
        ],
    },
    ("delphi", "client", "8", "1702"): {
        "client/offline": [
            "cff9ecfbf021c88aa3b1e996ddba0dfd32ac422a593224ae0ad110dac40e38e6",
            "e03de2a2bf98e49b5e81975bb23b460821ee0d7bf62979a56ef9bb1ea5c7290e",
            "0a52c62a050747375019101e110df92800b0ce04a3679fd9c5f10c8bd5d3a266",
            "717be3ecd238ebcc58bbe79bb1ff0df27a9968e9b1125118581e0e0aaa4a05fd",
            "70e147b6e46deaca0949ebee05ab04f7567494acda4570921215983e0cdf4618",
        ],
        "server/offline": [
            "b59f32df77a252351ec717efd51167b558301dd85fd325a4fa305d9c7191b9ff",
            "e6148f2dd8776caf14def0460ecf6f1cf60e7658c52fdb86a95cb655abc1390a",
        ],
        "client/online": [
            "e1f963eb5208365b76db105d7b7b1618babb74f3bbeb98e86328097a8ae47827",
            "756c5d2c1f99985b2e0f459fc69e5040776a94cdfba6dd81af6c5188e9eb5cee",
        ],
        "server/online": [
            "95caeb6dd3c3b68041f9edd4f8b04a42e251cf792ab2d85065ab7a03a5c2542b",
            "29f8794cc836eb57990f0aac6f87e3ce1a2f1e92843fb52f0e0d2eeee382bb01",
        ],
    },
    ("fast", "server", "128", "1701"): {
        "client/offline": [
            "9a181ed864aca26576e9f4d06b93a6961123d8a4f935c3715b4f3242aa8d9995",
            "a6ad7cdd7ea5c1d6400fee3b41663c57a74a0e8db079a91a2e7bbe3ccaf221be",
            "62ca28577205de6dbfb11d707781c7c9a4d33495f71dbca4574eb74e3a1ac173",
            "f5bd45b67177f404df740a16a28c173b812bf253870f27a08e0d9e2e9d19b4bc",
        ],
        "server/offline": [
            "726df8df3c303fdb51cc46bba0ee35d5e57ecc2118e6d9d353eabecd0e3369e1",
            "3648599ba77ae40e65daf827bd77b6fe6de6bea61727c9b832414b4940aa6fc5",
            "b0ea9fdd9ea397a35caa7b5991da47a90db3605baf4931776a4af7e74a99fdc1",
            "c46ceac94bb08471f8d38974b749fc53fe87127690f1774c77957199a9957491",
        ],
        "client/online": [
            "0e78a2c6cdc41be8a2f17f6693c4e0f1c006813ac49c59548ad7518681501b6a",
            "7878e121449a327f827e6732576830604d713489fe1ea382072b49d2514e77f3",
        ],
        "server/online": [
            "5068b9172cb0967390a836361633e169ab607a8a5829dad8b3af0bb547bea921",
            "6fe50986f61cfdd664e36a98659688b9ddd82918d991e3e4bfb54e45fd415ba4",
        ],
    },
    ("fast", "client", "128", "1701"): {
        "client/offline": [
            "9a181ed864aca26576e9f4d06b93a6961123d8a4f935c3715b4f3242aa8d9995",
            "a6ad7cdd7ea5c1d6400fee3b41663c57a74a0e8db079a91a2e7bbe3ccaf221be",
            "62ca28577205de6dbfb11d707781c7c9a4d33495f71dbca4574eb74e3a1ac173",
            "25ff36c709fc7ccabf31d748ad9452e6e24b1339d5129eaefdd6b6ca542093ae",
            "7689ecda0e1a30a97ee01599f4e622be00aad4f8f8e05bca8740ebc99948dc5c",
        ],
        "server/offline": [
            "726df8df3c303fdb51cc46bba0ee35d5e57ecc2118e6d9d353eabecd0e3369e1",
            "3648599ba77ae40e65daf827bd77b6fe6de6bea61727c9b832414b4940aa6fc5",
        ],
        "client/online": [
            "0e78a2c6cdc41be8a2f17f6693c4e0f1c006813ac49c59548ad7518681501b6a",
            "92af4a64d34b42978141e590a440bbbe2f56aab6b66fdb0cc74256650d86d1da",
        ],
        "server/online": [
            "ff423f68da019c6445693c86edac89972d8e8ff8996e5fa61d621d13c23846eb",
            "6fe50986f61cfdd664e36a98659688b9ddd82918d991e3e4bfb54e45fd415ba4",
        ],
    },
    ("fast", "server", "128", "1702"): {
        "client/offline": [
            "41c452953d83a5d41050af0f1859c3b824c9b6d9dc2800432087b0d638ab0eac",
            "5bd00ae2ee89fe12d06a578a9e34d077a0da4f97665c79dab6db608c10c6dd16",
            "41fc76664dde6c6b9cdec9cc99e8ce35a295e1aa7f9c5db8a0f93a97b55daf5a",
            "3dd64ea9b2fe347bb5f636be07fd16d425fb4b10decc23e36d205d9dc2e7b4b4",
        ],
        "server/offline": [
            "7b9117562856b8e7df4cd11317a1f0dd93550596085bd951a6cd3f2432986205",
            "cccd88e6836349ea34d5463c0ef6d7a3a43c641c616954cd6718036a426ed7db",
            "f0aaef017a29b83556a5a67c047220a75f694c03e0814bb0aa19d909f194d4aa",
            "d9f2e91a0ef2f1a82854c870791960874a941d1b6a34dd7575beb55b89bdb72e",
        ],
        "client/online": [
            "3f19f7b26cd2a871f4b58b1be986b754698e99edc18b7ef8cd0294ad51891c9a",
            "5ed90070517de67fdd527a232a664622b661cc7b0ecbd9537915ef78563024e9",
        ],
        "server/online": [
            "b7071affcbaddc1b0ad15174de933a62fde85c68f8284a95ed0699f1c0a993e8",
            "f39020dd31478d6e98906f197c795c38e5225c5590bf7a589fbab52cc701475a",
        ],
    },
    ("fast", "client", "128", "1702"): {
        "client/offline": [
            "41c452953d83a5d41050af0f1859c3b824c9b6d9dc2800432087b0d638ab0eac",
            "5bd00ae2ee89fe12d06a578a9e34d077a0da4f97665c79dab6db608c10c6dd16",
            "41fc76664dde6c6b9cdec9cc99e8ce35a295e1aa7f9c5db8a0f93a97b55daf5a",
            "e03c349067bc340b54533260baa2544efdc1b9c557879abebbd05ffb0e952279",
            "d067f07d1d83e33dbd27fa409ebd07c294b04f09e3852b93c9e8e3abb6c3de62",
        ],
        "server/offline": [
            "7b9117562856b8e7df4cd11317a1f0dd93550596085bd951a6cd3f2432986205",
            "cccd88e6836349ea34d5463c0ef6d7a3a43c641c616954cd6718036a426ed7db",
        ],
        "client/online": [
            "3f19f7b26cd2a871f4b58b1be986b754698e99edc18b7ef8cd0294ad51891c9a",
            "2bd19505c227fb7fc3f6de3e70c0c11e0f4a8fb30b29502455fcc815514f3493",
        ],
        "server/online": [
            "059530f384bfea90f1d97c25b3a72bda46b19057edd64f1fecc5c9d99a3d760c",
            "f39020dd31478d6e98906f197c795c38e5225c5590bf7a589fbab52cc701475a",
        ],
    },
}

# The (messages, bytes) each party charges per (phase, direction) in the
# cases above — the same for both seeds, and for both parties' books.
# Offline up under Client-Garbler at delphi, 383,184 B: one Galois key of
# three seeded digits (3 x 47,136, half a 94,208-B ciphertext plus a
# 32-B seed each), two seeded Enc(r) (2 x 47,136) and the garbled
# batches with the client's own labels (147,504); no public key. Offline
# down at delphi carries the two Enc(W r - s) returns switched to four
# chain primes: 2 x 2 x 2048 x 15 B = 122,880 (2 x 94,208 at all six).
GOLDEN_TRANSCRIPT = {
    ("delphi", "server", "8"): {
        ("setup", "up"): (1, 32),
        ("setup", "down"): (1, 4_096),
        ("offline", "up"): (4, 246_176),
        ("offline", "down"): (4, 280_576),
        ("online", "up"): (2, 5_344),
        ("online", "down"): (2, 5_266),
    },
    ("delphi", "client", "8"): {
        ("setup", "up"): (1, 4_096),
        ("setup", "down"): (1, 32),
        ("offline", "up"): (5, 383_184),
        ("offline", "down"): (2, 122_880),
        ("online", "up"): (2, 10_592),
        ("online", "down"): (2, 5_266),
    },
    ("fast", "server", "128"): {
        ("setup", "up"): (1, 32),
        ("setup", "down"): (1, 4_096),
        ("offline", "up"): (4, 80_032),
        ("offline", "down"): (4, 1_056_768),
        ("online", "up"): (2, 34_864),
        ("online", "down"): (2, 34_825),
    },
    ("fast", "client", "128"): {
        ("setup", "up"): (1, 4_096),
        ("setup", "down"): (1, 32),
        ("offline", "up"): (5, 993_824),
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
