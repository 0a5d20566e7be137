"""The matvec's cache of encoded weight diagonals changes no ciphertext.

``HomomorphicLinearEvaluator.matvec`` takes each block of diagonals'
evaluation-domain plaintexts from a process-wide cache keyed by the
matrix content and the ring, encoding them only on a miss. A hit must
yield the ciphertext a miss yields, bit for bit, on both backends
(python bigint, numpy RNS); anything that changes the plaintexts — a weight,
the plaintext modulus, the degree, the ring, the shape — must miss; the
byte budget evicts without changing a result; threads share it safely;
``reset_process_state`` empties it; and what it hands out is read-only.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.backend import available_backends
from repro.crypto.rng import SecureRandom
from repro.he import linear
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.linear import (
    HomomorphicLinearEvaluator,
    clear_plain_cache,
    plain_cache_size,
    slot_layout,
)
from repro.he.params import delphi_params, fast_params, toy_params
from repro.network.serialize import serialize_ciphertext
from repro.runtime import reset_process_state

# Degree 64: the delphi chain key-switches on prime pairs, toy_params on
# one prime per digit, fast_params on positional digits of one prime.
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
# Two full batching rows of outputs at degree 64: the product is the
# full-width Horner sum, sixteen diagonals (w = n_in).
SHAPE = (64, 16)


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_plain_cache()
    yield
    clear_plain_cache()


def rig(params, seed=3):
    """(ctx, encoder, sk, galois keys, encrypted packed input) for SHAPE."""
    ctx = BfvContext(params, SecureRandom(seed))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
    packer = HomomorphicLinearEvaluator(ctx, encoder, gk)
    x = list(range(1, SHAPE[1] + 1))
    ct = ctx.encrypt(pk, encoder.encode(packer.pack_vector(x)))
    return ctx, encoder, sk, gk, ct


def cell_params(cell):
    name, backend, _ = cell
    return dataclasses.replace(SMALL[name], backend=backend)


def weights(params, shape=SHAPE, seed=0):
    return np.random.default_rng([seed, *shape]).integers(
        0, params.t, size=shape
    ).tolist()


def count_encodes(monkeypatch, encoder):
    """Diagonal blocks ``encoder`` encodes from now on (the cache misses)."""
    calls = []
    encode_many = encoder.encode_many

    def counted(rows):
        calls.append(len(rows))
        return encode_many(rows)

    monkeypatch.setattr(encoder, "encode_many", counted)
    return calls


def frame(ct):
    return serialize_ciphertext(ct)


def assert_same(got, want):
    assert got.c0 == want.c0 and got.c1 == want.c1
    assert frame(got) == frame(want)


def product(ctx, encoder, sk, ct, n_out, n_in):
    """The decrypted partial sums, added up by the shape's layout."""
    layout = slot_layout(n_out, n_in, encoder.row_size)
    return layout.reduce(encoder.decode(ctx.decrypt(sk, ct)), ctx.params.t)


@pytest.fixture(scope="module")
def rigs():
    made = {}

    def get(cell):
        if cell not in made:
            made[cell] = rig(cell_params(cell))
        return made[cell]

    return get


class TestHitsAreMisses:
    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_cold_and_warm_are_bit_identical(self, rigs, cell, monkeypatch):
        ctx, encoder, sk, gk, ct = rigs(cell)
        matrix = weights(ctx.params)
        encodes = count_encodes(monkeypatch, encoder)
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        cold = evaluator.matvec(ct, matrix)
        assert encodes == [SHAPE[1]]  # one block at this degree
        assert plain_cache_size()[0] == 1
        warm = evaluator.matvec(ct, matrix)
        assert encodes == [SHAPE[1]]
        assert_same(warm, cold)
        # A fresh evaluator (a new protocol lowering the same weights) hits.
        again = HomomorphicLinearEvaluator(ctx, encoder, gk).matvec(ct, matrix)
        assert encodes == [SHAPE[1]]
        assert_same(again, cold)
        assert evaluator.rotations_performed == 2 * (SHAPE[1] - 1)
        assert evaluator.plain_mults_performed == 2 * SHAPE[1]
        x = list(range(1, SHAPE[1] + 1))
        assert product(ctx, encoder, sk, warm, *SHAPE) == [
            sum(w * v for w, v in zip(row, x)) % ctx.params.t for row in matrix
        ]

    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_a_changed_weight_or_shape_misses(self, rigs, cell, monkeypatch):
        ctx, encoder, sk, gk, ct = rigs(cell)
        t = ctx.params.t
        matrix = weights(ctx.params)
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        evaluator.matvec(ct, matrix)
        encodes = count_encodes(monkeypatch, encoder)
        changed = [list(row) for row in matrix]
        changed[2][5] = (changed[2][5] + 1) % t
        x = list(range(1, SHAPE[1] + 1))
        for other in (changed, matrix[:40]):
            out = evaluator.matvec(ct, other)
            assert product(ctx, encoder, sk, out, len(other), SHAPE[1]) == [
                sum(w * v for w, v in zip(row, x)) % t for row in other
            ]
        # The same entries in another shape: other diagonals (40 x 16 and
        # 32 x 32 take sixteen steps too).
        evaluator.matvec(ct, np.array(matrix, dtype=np.uint64).reshape(32, 32))
        assert encodes == [SHAPE[1]] * 3
        assert plain_cache_size()[0] == 4

    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_the_same_weights_at_another_offset_miss(self, rigs, cell, monkeypatch):
        """A packed group's key holds each member's digest and offset: the
        same two matrices with the second one moved (or the two swapped)
        are other plaintexts, each its own entry, each correct warm."""
        ctx, encoder, sk, gk, _ = rigs(cell)
        t, row = ctx.params.t, encoder.row_size
        a, b = weights(ctx.params, (4, 8)), weights(ctx.params, (3, 4))
        x, y = list(range(1, 9)), list(range(2, 6))
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, None)
        moved = [
            linear.SlotGroup(
                (0, 1), (slot_layout(4, 8, row), slot_layout(3, 4, row, offset))
            )
            for offset in (32, 40)
        ]
        (swapped,) = linear.pack_layers(((3, 4), (4, 8)), row)
        groups = [(group, (a, b), (x, y)) for group in moved]
        groups.append((swapped, (b, a), (y, x)))
        cts = [
            ctx.encrypt(sk, encoder.encode(group.vector(inputs)))
            for group, _, inputs in groups
        ]
        encodes = count_encodes(monkeypatch, encoder)
        for _ in range(2):  # cold, then warm
            for (group, matrices, inputs), ct in zip(groups, cts):
                out = evaluator.matvec(ct, *matrices, group=group)
                got = group.reduce(encoder.decode(ctx.decrypt(sk, out)), t)
                assert got == [
                    [sum(w * v for w, v in zip(r, vec)) % t for r in m]
                    for m, vec in zip(matrices, inputs)
                ]
        assert encodes == [1, 1, 1]
        assert plain_cache_size()[0] == 3

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy backend unavailable"
    )
    def test_blocks_of_a_reshaped_matrix_miss_at_full_degree(self):
        """At delphi's degree a 64x16 and its 32x32 reshape both fit the
        slots unrotated, so they share the block range (0, 1): the same
        bytes, different diagonals."""
        params = dataclasses.replace(delphi_params(), backend="numpy")
        ctx, encoder, sk, gk, ct = rig(params)
        matrix = np.array(weights(params), dtype=np.uint64)
        reshaped = matrix.reshape(32, 32)
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        want = evaluator.matvec(ct, reshaped)
        clear_plain_cache()
        evaluator.matvec(ct, matrix)
        assert_same(evaluator.matvec(ct, reshaped), want)

    def test_the_same_weights_in_another_ring_or_field_miss(self, monkeypatch):
        """One small matrix under the plaintext moduli, degrees and rings
        of seven parameter sets: every one encodes its own plaintexts, and
        each keeps its own entry."""
        family = [
            fast_params(n=64),
            fast_params(n=64, t_bits=18),  # another t
            fast_params(n=128),  # another n (and q)
            dataclasses.replace(toy_params(n=64), backend="numpy"),  # RNS
            dataclasses.replace(toy_params(n=64), backend="python"),  # bigint
            dataclasses.replace(delphi_params(), n=64, backend="numpy"),
            # another n on the same chain and plaintext prime
            dataclasses.replace(delphi_params(), n=128, backend="numpy"),
        ]
        matrix = [[(5 * i + j) % 97 for j in range(SHAPE[1])] for i in range(SHAPE[0])]
        rigs = [rig(params) for params in family]
        outputs = []
        for ctx, encoder, sk, gk, ct in rigs:
            encodes = count_encodes(monkeypatch, encoder)
            outputs.append(HomomorphicLinearEvaluator(ctx, encoder, gk).matvec(ct, matrix))
            assert encodes == [slot_layout(*SHAPE, encoder.row_size).steps]
        assert plain_cache_size()[0] == len(family)
        for (ctx, encoder, sk, gk, ct), want in zip(rigs, outputs):
            encodes = count_encodes(monkeypatch, encoder)
            assert_same(HomomorphicLinearEvaluator(ctx, encoder, gk).matvec(ct, matrix), want)
            assert encodes == []


class TestBudget:
    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_a_tiny_budget_evicts_and_changes_nothing(self, rigs, cell, monkeypatch):
        ctx, encoder, sk, gk, ct = rigs(cell)
        evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
        first, second = weights(ctx.params, seed=1), weights(ctx.params, seed=2)
        want = [evaluator.matvec(ct, m) for m in (first, second)]
        entries, nbytes = plain_cache_size()
        assert entries == 2
        clear_plain_cache()
        # Room for one block: each matvec evicts the other's.
        monkeypatch.setattr(linear, "_PLAIN_CACHE_BUDGET", nbytes // 2)
        encodes = count_encodes(monkeypatch, encoder)
        for _ in range(2):
            for m, out in zip((first, second), want):
                assert_same(evaluator.matvec(ct, m), out)
                assert plain_cache_size() == (1, nbytes // 2)
        assert len(encodes) == 4
        # Smaller than one block: nothing is kept, every matvec encodes.
        monkeypatch.setattr(linear, "_PLAIN_CACHE_BUDGET", nbytes // 2 - 1)
        clear_plain_cache()
        for m, out in zip((first, second), want):
            assert_same(evaluator.matvec(ct, m), out)
        assert plain_cache_size() == (0, 0)
        assert len(encodes) == 6

    def test_delphi_rows_are_32_bit_and_fast_rows_64_bit(self):
        """Cached rows take the narrowest lane of the lazy transform
        output (below 2q): 4 bytes for 30-bit chain primes, 8 for a
        62-bit prime; a word per coefficient on the python backend."""
        for params, lane in (
            (dataclasses.replace(delphi_params(), n=64, backend="numpy"), 4),
            (fast_params(n=64), 8),
        ):
            clear_plain_cache()
            ctx, encoder, sk, gk, ct = rig(params)
            HomomorphicLinearEvaluator(ctx, encoder, gk).matvec(ct, weights(params))
            rings = len(params.rns_primes or (params.q,))
            if ct.c1.ring_ntt().backend.name == "python":
                lane = 8
            assert plain_cache_size() == (1, rings * SHAPE[1] * params.n * lane)


def run_threads(target, count):
    """``target(i)`` on ``count`` threads with a short switch interval;
    every thread must finish in time and raise nothing."""
    errors = []

    def guarded(i):
        try:
            target(i)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestSharing:
    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_four_threads_on_one_matrix_agree(self, rigs, cell):
        ctx, encoder, sk, gk, ct = rigs(cell)
        matrix = weights(ctx.params, seed=4)
        want = HomomorphicLinearEvaluator(ctx, encoder, gk).matvec(ct, matrix)
        one_entry = plain_cache_size()
        clear_plain_cache()
        start = threading.Barrier(4, timeout=60)
        frames = [[] for _ in range(4)]

        def run(i):
            start.wait()
            for _ in range(2):  # racing misses, then hits
                out = HomomorphicLinearEvaluator(ctx, encoder, gk).matvec(ct, matrix)
                frames[i].append(frame(out))

        run_threads(run, 4)
        assert frames == [[frame(want)] * 2] * 4
        assert plain_cache_size() == one_entry

    def test_byte_count_survives_racing_inserts_and_evictions(self, monkeypatch):
        """Eight threads insert and look up overlapping keys under a budget
        that evicts all the time: the byte count stays the sum of what is
        held, and within the budget — a lost update would break both."""
        monkeypatch.setattr(linear, "_PLAIN_CACHE_BUDGET", 1000)
        cache = linear._PLAIN_CACHE

        def churn(i):
            for k in range(3000):
                key = (k * 7 + i) % 40
                if cache.get(key) is None:
                    cache.put(key, key, 10 + key * 3)

        run_threads(churn, 8)
        entries, nbytes = plain_cache_size()
        assert 0 < nbytes <= 1000
        assert nbytes == sum(10 + key * 3 for key in cache._entries)
        assert entries == len(cache._entries)

    def test_reset_process_state_empties_it(self, rigs):
        ctx, encoder, sk, gk, ct = rigs(CELLS[0])
        HomomorphicLinearEvaluator(ctx, encoder, gk).matvec(ct, weights(ctx.params))
        assert plain_cache_size()[0] == 1
        reset_process_state()
        assert plain_cache_size() == (0, 0)

    @pytest.mark.parametrize("cell", CELLS, ids="-".join)
    def test_cached_rows_are_read_only(self, rigs, cell):
        ctx, encoder, sk, gk, ct = rigs(cell)
        HomomorphicLinearEvaluator(ctx, encoder, gk).matvec(ct, weights(ctx.params))
        ((stack, _),) = linear._PLAIN_CACHE._entries.values()
        for rows in stack:
            with pytest.raises((ValueError, TypeError)):
                rows[0][0] = 1
            with pytest.raises((ValueError, TypeError)):
                rows[0] = rows[1]
