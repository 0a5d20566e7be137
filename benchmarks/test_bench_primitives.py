"""Micro-benchmarks of the cryptographic substrates themselves.

Not a paper figure — these measure this library's own primitive throughput
(NTT, BFV ops, garbling, OT extension) so regressions in the functional
layer are visible (ARCHITECTURE.md, *Benchmark trajectory*).

The suite runs on :func:`repro.he.params.fast_params` (62-bit ciphertext
modulus) so the same workload is exact on both compute backends: run it
once with ``REPRO_BACKEND=python`` and once with ``REPRO_BACKEND=numpy``
and, under ``REPRO_BENCH_RECORD=1``, the per-backend timings land side by
side in ``BENCH_primitives.json`` (see ``benchmarks/conftest.py``). The
vectorized backend is expected to be >= 10x faster on the NTT/BFV benches.

The ``*_bigint`` / ``*_rns`` pairs additionally pit the two
representations of the wide-modulus parameter sets against each other at
the same composite q — ``toy_params`` (~100-bit chain) and
``delphi_params`` (~180-bit SEAL-style chain, n=2048) — tracking the
speedup the RNS chain buys on the paper-faithful configurations. The
representation follows the backend, so a ``*_bigint`` row always runs on
the python backend and a ``*_rns`` row on numpy, whichever
``REPRO_BACKEND`` column it lands in. The RNS ciphertext multiply at
n=2048 is expected to be >= 3x faster than the bigint oracle.
"""

import contextlib
import dataclasses
import json
import os
import pathlib
import random
import time

import numpy as np
import pytest

from repro.crypto.modmath import find_ntt_prime
from repro.crypto.rng import SecureRandom
from repro.gc.circuit import int_to_bits
from repro.gc.evaluate import Evaluator
from repro.gc.garble import Garbler, LabelBatch
from repro.gc.relu import ReluCircuitSpec, build_relu_circuit
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.linear import HomomorphicLinearEvaluator, clear_plain_cache, slot_layout
from repro.he.ntt import NegacyclicNtt
from repro.he.params import delphi_params, fast_params, toy_params
from repro.he.polynomial import key_switch_inner
from repro.network.serialize import (
    deserialize_circuit_batch,
    deserialize_galois_keys,
    serialize_circuit_batch,
    serialize_galois_keys,
)
from repro.ot.extension import IknpStream, base_seed_ot, extend, iknp_transfer

PARAMS = fast_params(n=256)
RELU_BATCH = 64
# bench_e2e's serve_* (and infer_cg_delphi) ReLU layer: 8 activations.
NARROW_RELU_BATCH = 8
# One wider conv layer's worth of activations (ROADMAP: raise benchmark
# network sizes) — e.g. an 8-channel 8x8 feature map.
WIDE_RELU_BATCH = 512


def _ntt_multiply_bench(benchmark, n):
    q = find_ntt_prime(62, n)
    ntt = NegacyclicNtt(n, q)
    rng = random.Random(0)
    a = [rng.randrange(q) for _ in range(n)]
    b = [rng.randrange(q) for _ in range(n)]
    benchmark(lambda: ntt.multiply(a, b))


def test_bench_ntt_multiply_1024(benchmark):
    _ntt_multiply_bench(benchmark, 1024)


def test_bench_ntt_multiply_2048(benchmark):
    """The delphi-scale ring degree on a single 62-bit prime."""
    _ntt_multiply_bench(benchmark, 2048)


def test_bench_bfv_encrypt(benchmark):
    ctx = BfvContext(PARAMS, SecureRandom(1))
    encoder = BatchEncoder(PARAMS)
    sk, pk = ctx.keygen()
    pt = encoder.encode(list(range(100)))
    benchmark(lambda: ctx.encrypt(pk, pt))


def test_bench_bfv_mul_plain(benchmark):
    ctx = BfvContext(PARAMS, SecureRandom(2))
    encoder = BatchEncoder(PARAMS)
    sk, pk = ctx.keygen()
    ct = ctx.encrypt(pk, encoder.encode(list(range(100))))
    pt = encoder.encode([7] * PARAMS.n)
    benchmark(lambda: ctx.mul_plain(ct, pt))


def test_bench_bfv_rotation(benchmark):
    ctx = BfvContext(PARAMS, SecureRandom(3))
    encoder = BatchEncoder(PARAMS)
    sk, pk = ctx.keygen()
    g = encoder.galois_element_for_rotation(1)
    gk = ctx.galois_keygen(sk, [g])
    ct = ctx.encrypt(pk, encoder.encode(list(range(100))))
    benchmark(lambda: ctx.rotate(ct, g, gk))


def _on_ring(params, representation):
    """``params`` on the backend whose ring is ``representation``: the
    python backend computes bigints, numpy RNS residues (this module
    imports numpy, so that backend is always there)."""
    backend = {"bigint": "python", "rns": "numpy"}[representation]
    return dataclasses.replace(params, backend=backend)


def _mul_plain_bench(benchmark, params, representation, rounds):
    """Ciphertext x plaintext multiply (two ring products) at wide q."""
    params = _on_ring(params, representation)
    ctx = BfvContext(params, SecureRandom(8))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    ct = ctx.encrypt(pk, encoder.encode(list(range(100))))
    pt = encoder.encode([7] * params.n)
    benchmark.pedantic(
        lambda: ctx.mul_plain(ct, pt), rounds=rounds, iterations=1,
        warmup_rounds=1,
    )


def test_bench_ct_mul_toy_bigint(benchmark):
    _mul_plain_bench(benchmark, toy_params(n=256), "bigint", rounds=10)


def test_bench_ct_mul_toy_rns(benchmark):
    _mul_plain_bench(benchmark, toy_params(n=256), "rns", rounds=10)


def test_bench_ct_mul_delphi_bigint(benchmark):
    """The acceptance baseline: n=2048, ~180-bit q, bigint oracle ring."""
    _mul_plain_bench(benchmark, delphi_params(), "bigint", rounds=5)


def test_bench_ct_mul_delphi_rns(benchmark):
    """Same multiply on CRT residues (expected >= 3x under numpy)."""
    _mul_plain_bench(benchmark, delphi_params(), "rns", rounds=5)


def test_bench_chain_ntt_delphi(benchmark):
    """The transform kernel alone on the delphi chain: forward (lazy, as
    every product consumes it) of 6 rings x 1, 2 and 6 rows, one plan call
    each — the shapes a mint makes most (an accumulator's c1, a block of
    two plaintexts, a Galois key's six components). ``extra_info``
    splits the three and prices a butterfly; guarded like the rotation
    row under ``REPRO_BENCH_STRICT=1``."""
    from repro.backend import backend_for

    params = delphi_params()
    primes = params.rns_primes
    be = backend_for(max(primes), prefer=params.backend)
    ntt = NegacyclicNtt(params.n, primes, backend=be)
    rng = random.Random(37)
    stacks = {
        rows: [
            [be.asvec([rng.randrange(q) for _ in range(params.n)], q) for _ in range(rows)]
            for q in primes
        ]
        for rows in (1, 2, 6)
    }
    benchmark.pedantic(
        lambda: [ntt.forward_stack(stack, lazy=True) for stack in stacks.values()],
        rounds=5, iterations=1, warmup_rounds=1,
    )
    butterflies = len(primes) * (params.n // 2) * (params.n.bit_length() - 1)
    for rows, stack in stacks.items():
        ms = _best_ms(lambda: ntt.forward_stack(stack, lazy=True))
        benchmark.extra_info[f"rows_{rows}_ms"] = ms
        benchmark.extra_info[f"rows_{rows}_ns_per_butterfly"] = round(
            ms * 1e6 / (rows * butterflies), 2
        )
    benchmark.extra_info["rings"] = len(primes)
    benchmark.extra_info["rows"] = sorted(stacks)
    if os.environ.get("REPRO_BENCH_STRICT"):
        _guard_against_committed_baseline(
            benchmark, "test_bench_chain_ntt_delphi", threshold=1.3
        )


def _best_ms(fn, rounds=5):
    """Best-of-N wall time in ms (phase probes, not benchmark rows)."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1000, 3)


def _rotation_phase_breakdown(ctx, ct, g, gk):
    """Where one delphi-RNS rotation spends its time, phase by phase.

    Three probes: the digit decomposition (one digit per pair of chain
    primes: the pair's residues lifted into one lane, then reduced into
    the other bases), the full eval-domain key inner
    product, and the pure transform share of that product (the digit
    forwards plus the two-row inverse of every residue ring: one chain
    plan call each).
    Recorded as extra_info so the JSON diff shows *where* a regression
    landed, not just that one happened.
    """
    p = ctx.params
    rotated = ct.c1.automorphism(g)
    digits = rotated.decompose(p.digit_groups, p.decomp_bits)
    eval_keys = gk.eval_keys(g)  # per ring: the (K0, K1) digit stacks
    plan = rotated.ring_ntt()._plan  # the whole chain's, one call per step
    digit_stack = [list(column) for column in zip(*(d.residues for d in digits))]

    def transforms_only():
        fwd = plan.forward(digit_stack, lazy=True)
        plan.inverse([rows[:2] for rows in fwd])

    return {
        "phase_decompose_ms": _best_ms(
            lambda: rotated.decompose(p.digit_groups, p.decomp_bits)
        ),
        "phase_key_product_ms": _best_ms(
            lambda: key_switch_inner(digits, eval_keys)
        ),
        "phase_ntt_ms": _best_ms(transforms_only),
    }


def _guard_against_committed_baseline(benchmark, name, threshold):
    """REPRO_BENCH_STRICT: fail if this run regressed vs the checked-in
    BENCH_primitives.json row (conftest merges *after* the session, so
    reading it here still sees the committed baseline)."""
    from repro.backend import get_backend

    path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_primitives.json"
    try:
        committed = json.loads(path.read_text())
    except (OSError, ValueError):
        return  # no baseline yet: first recording cannot regress
    baseline = (
        committed.get("backends", {})
        .get(get_backend().name, {})
        .get("results", {})
        .get(name, {})
        .get("mean_s")
    )
    if not baseline:
        return
    stats = getattr(benchmark, "stats", None)
    mean = getattr(getattr(stats, "stats", stats), "mean", None)
    if mean is None:
        return  # stats API shifted; the guard must not mask the bench
    assert mean <= baseline * threshold, (
        f"{name} regressed: fresh mean {mean * 1000:.2f} ms vs committed "
        f"baseline {baseline * 1000:.2f} ms (> {threshold}x)"
    )


def test_bench_bfv_rotation_delphi_rns(benchmark):
    """Key-switched rotation at delphi scale on the RNS chain.

    The headline hot-path row: eval-domain Galois keys + the RNS gadget
    (three prime-pair digits, no base conversion). ``extra_info`` carries
    the phase breakdown,
    and under ``REPRO_BENCH_STRICT=1`` (CI bench-smoke) the fresh mean
    must stay within 1.3x of the committed baseline.
    """
    params = _on_ring(delphi_params(), "rns")
    ctx = BfvContext(params, SecureRandom(13))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    g = encoder.galois_element_for_rotation(1)
    gk = ctx.galois_keygen(sk, [g])
    ct = ctx.encrypt(pk, encoder.encode(list(range(100))))
    benchmark.pedantic(
        lambda: ctx.rotate(ct, g, gk), rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info.update(_rotation_phase_breakdown(ctx, ct, g, gk))
    if os.environ.get("REPRO_BENCH_STRICT"):
        _guard_against_committed_baseline(
            benchmark, "test_bench_bfv_rotation_delphi_rns", threshold=1.3
        )


def _delphi_rns_rig(seed):
    params = _on_ring(delphi_params(), "rns")
    ctx = BfvContext(params, SecureRandom(seed))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    return params, ctx, encoder, sk, pk


class _PhaseClock:
    """Wall time, transform rows and plan calls below chosen call sites
    of one instrumented run: each wrapped callable adds its duration to a
    named phase and, for a plan's transform, one call and the rows of the
    ``[ring][row]`` stack it was handed (all rings together) to a named
    count. Nested wrapped calls are charged once — time to the outermost
    phase; ``close`` puts the originals back."""

    def __init__(self):
        self.ms = {}
        self.rows = {}
        self.calls = {}
        self._busy = set()  # "time" / "rows": already charged up the stack
        self._undo = contextlib.ExitStack()

    def wrap(self, obj, name, phase=None, rows=None):
        inner = getattr(obj, name)
        charges = {"time"} if phase else set()
        if rows:
            charges.add("rows")

        def timed(*args, **kwargs):
            mine = charges - self._busy
            if "rows" in mine:
                handed = sum(len(ring_rows) for ring_rows in args[0])
                self.rows[rows] = self.rows.get(rows, 0) + handed
                self.calls[rows] = self.calls.get(rows, 0) + 1
            self._busy |= mine
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self._busy -= mine
                if "time" in mine:
                    elapsed = (time.perf_counter() - start) * 1000
                    self.ms[phase] = self.ms.get(phase, 0.0) + elapsed

        setattr(obj, name, timed)  # shadows the method on this instance
        self._undo.callback(delattr, obj, name)

    def close(self):
        self._undo.close()


_TRANSFORMS = ("forward", "inverse")  # the NttPlan contract


def _matvec_phase_breakdown(ctx, encoder, evaluator, ct, matrix, warm):
    """Where one evaluation-domain matvec spends its time, and how many
    rows it transforms.

    One instrumented run: diagonal encoding (the stacked inverse mod t
    included), the key-switch inner products, and the ciphertext-ring
    transforms; rows and calls are counted at the plans — per diagonal
    and ring D + 1 rows on a chain (D - 1 digits, the accumulator's c1,
    the plaintext), D + 2 without one, plus one row mod t; per diagonal
    two ciphertext-ring calls whatever the chain length — the ledgers
    ``tests/test_batched_ntt.py`` pins. The diagonals are the ``w`` steps
    of the shape's slot layout. Cold unless ``warm``: then the
    diagonals come from the cache the bench rounds filled, and neither
    the plaintext forwards nor the rows mod t happen.
    """
    if not warm:
        clear_plain_cache()
    layout = slot_layout(len(matrix), len(matrix[0]), encoder.row_size)
    clock = _PhaseClock()
    ntt = ct.c1.ring_ntt()
    try:
        clock.wrap(encoder, "encode_many", "phase_encode_ms")
        clock.wrap(ntt, "key_switch_eval", "phase_key_product_ms")
        for name in _TRANSFORMS:
            clock.wrap(encoder._ntt._plan, name, rows="plain_rows")
            clock.wrap(ntt._plan, name, "phase_ntt_ms", "ring_rows")
        start = time.perf_counter()
        evaluator.matvec(ct, matrix)
        total_ms = (time.perf_counter() - start) * 1000
    finally:
        clock.close()
    rows = sum(clock.rows.values())
    return {
        "digits": ctx.params.num_decomp_digits,
        "rings": len(ntt.moduli),
        "transform_rows": rows,
        "transform_rows_per_diagonal": round(rows / layout.steps, 2),
        "transform_calls": sum(clock.calls.values()),
        "ring_transform_calls": clock.calls["ring_rows"],
        "phase_total_ms": round(total_ms, 3),
        **{phase: round(ms, 3) for phase, ms in sorted(clock.ms.items())},
    }


def _matvec_bench(benchmark, params, seed, shape, rounds, warm=False):
    """Whole ``HomomorphicLinearEvaluator.matvec`` on the matrix form a
    lowered network hands it (``asmatrix``), one Galois key. Cold rows
    empty the cache of encoded diagonals before every round — a model's
    first matvec in a process; warm rows leave it filled — every later
    one."""
    from repro.backend import backend_for

    ctx = BfvContext(params, SecureRandom(seed))
    encoder = BatchEncoder(params)
    sk, pk = ctx.keygen()
    gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, params.t, size=shape).tolist()
    matrix = backend_for(params.t, prefer=params.backend).asmatrix(rows, params.t)
    evaluator = HomomorphicLinearEvaluator(ctx, encoder, gk)
    x = rng.integers(0, params.t, size=shape[1]).tolist()
    ct = ctx.encrypt(pk, encoder.encode(evaluator.pack_vector(x)))
    out = benchmark.pedantic(
        lambda: evaluator.matvec(ct, matrix),
        setup=None if warm else clear_plain_cache,
        rounds=rounds, iterations=1, warmup_rounds=1,
    )
    layout = slot_layout(*shape, encoder.row_size)
    assert layout.reduce(encoder.decode(ctx.decrypt(sk, out)), params.t) == [
        sum(w * v for w, v in zip(row, x)) % params.t for row in rows
    ]
    benchmark.extra_info.update(
        _matvec_phase_breakdown(ctx, encoder, evaluator, ct, matrix, warm)
    )


def _delphi_w16(benchmark, name, warm):
    params = _on_ring(delphi_params(), "rns")
    _matvec_bench(benchmark, params, seed=29, shape=(8, 16), rounds=3, warm=warm)
    if os.environ.get("REPRO_BENCH_STRICT"):
        _guard_against_committed_baseline(benchmark, name, threshold=1.3)


def test_bench_matvec_delphi_rns_w16(benchmark):
    """The first layer of ``infer_cg_delphi`` (8x16 at delphi scale): its
    128 partial sums fit the 2048 slots, so no rotation and one
    plaintext product (it was 15 and 16 while every product took the
    full-width sum), its diagonal encoded afresh. Guarded like the
    rotation row."""
    _delphi_w16(benchmark, "test_bench_matvec_delphi_rns_w16", warm=False)


def test_bench_matvec_delphi_rns_w16_warm(benchmark):
    """The same layer as every mint after a process's first runs it: the
    diagonals' evaluation-domain plaintexts come from the cache."""
    _delphi_w16(benchmark, "test_bench_matvec_delphi_rns_w16_warm", warm=True)


def test_bench_matvec_fast_w128(benchmark):
    """The wide layer of ``infer_sg_wide`` (3x128, a full batching row of
    ``fast_params(256)``): two steps fit its 384 column products in the
    256 slots, so one rotation of three positional digits (it was 127),
    its diagonals encoded afresh."""
    _matvec_bench(benchmark, PARAMS, seed=31, shape=(3, 128), rounds=3)


def test_bench_matvec_fast_w128_warm(benchmark):
    """The wide layer with its diagonals cached."""
    _matvec_bench(benchmark, PARAMS, seed=31, shape=(3, 128), rounds=3, warm=True)


def test_bench_rns_decompose_delphi(benchmark):
    """The key-switch digit decomposition alone at delphi scale.

    Once a ~180-bit CRT reconstruction per coefficient, then the exact
    fast base conversion, then the six residues lifted into each other's
    bases, now three prime-pair lifts (``crt_lift``) each reduced into
    the four other bases. Isolated so the decompose share of a rotation
    regression is visible without untangling the fused key product.
    """
    params, ctx, encoder, sk, pk = _delphi_rns_rig(17)
    ct = ctx.encrypt(pk, encoder.encode(list(range(100))))
    rotated = ct.c1.automorphism(
        encoder.galois_element_for_rotation(1)
    )
    benchmark.pedantic(
        lambda: rotated.decompose(params.digit_groups, params.decomp_bits),
        rounds=5, iterations=1, warmup_rounds=1,
    )


def test_bench_galois_keygen_delphi_rns(benchmark):
    """One Galois key at delphi scale: three (a, e) draws, three key
    digits, six eval-domain forwards — what every mint pays before its
    first rotation."""
    params, ctx, encoder, sk, pk = _delphi_rns_rig(19)
    g = encoder.galois_element_for_rotation(1)
    benchmark.pedantic(
        lambda: ctx.galois_keygen(sk, [g]),
        rounds=5, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["digits"] = params.num_decomp_digits


def test_bench_galois_keys_serialize_delphi_rns(benchmark):
    """Residues -> wire bytes for one Galois key (six polynomials)."""
    params, ctx, encoder, sk, pk = _delphi_rns_rig(23)
    gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
    wire = benchmark.pedantic(
        lambda: serialize_galois_keys(gk),
        rounds=5, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["wire_bytes"] = len(wire)


def test_bench_galois_keys_deserialize_delphi_rns(benchmark):
    """Wire bytes -> residues for one Galois key (six polynomials)."""
    params, ctx, encoder, sk, pk = _delphi_rns_rig(23)
    gk = ctx.galois_keygen(sk, [encoder.galois_element_for_rotation(1)])
    wire = serialize_galois_keys(gk)
    restored = benchmark.pedantic(
        lambda: deserialize_galois_keys(wire, params),
        rounds=5, iterations=1, warmup_rounds=1,
    )
    assert restored.keys == gk.keys
    benchmark.extra_info["wire_bytes"] = len(wire)


def test_bench_garble_relu(benchmark):
    spec = ReluCircuitSpec(bits=17, modulus=PARAMS.t, mask_owner="evaluator")
    circuit = build_relu_circuit(spec)
    garbler = Garbler(SecureRandom(4))
    benchmark(lambda: garbler.garble(circuit))


def test_bench_garble_relu_layer(benchmark):
    """One ReLU layer's worth of circuits through the batch garbler."""
    spec = ReluCircuitSpec(bits=17, modulus=PARAMS.t, mask_owner="evaluator")
    circuit = build_relu_circuit(spec)
    garbler = Garbler(SecureRandom(14))
    benchmark.pedantic(
        lambda: garbler.garble_batch(circuit, RELU_BATCH), rounds=1, iterations=1
    )


def test_bench_garble_relu_layer_narrow(benchmark):
    """The serve_* workloads' ReLU layer: 8 instances, a lane walk."""
    spec = ReluCircuitSpec(bits=17, modulus=PARAMS.t, mask_owner="evaluator")
    circuit = build_relu_circuit(spec)
    garbler = Garbler(SecureRandom(18))
    benchmark.pedantic(
        lambda: garbler.garble_batch(circuit, NARROW_RELU_BATCH),
        rounds=7, iterations=1, warmup_rounds=1,
    )
    if os.environ.get("REPRO_BENCH_STRICT"):
        _guard_against_committed_baseline(
            benchmark, "test_bench_garble_relu_layer_narrow", threshold=1.3
        )


def test_bench_garble_relu_layer_wide(benchmark):
    """A wider conv layer's GC batch (512 activations, n=2048-era shapes)."""
    spec = ReluCircuitSpec(bits=17, modulus=PARAMS.t, mask_owner="evaluator")
    circuit = build_relu_circuit(spec)
    garbler = Garbler(SecureRandom(16))
    benchmark.pedantic(
        lambda: garbler.garble_batch(circuit, WIDE_RELU_BATCH),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    if os.environ.get("REPRO_BENCH_STRICT"):
        _guard_against_committed_baseline(
            benchmark, "test_bench_garble_relu_layer_wide", threshold=1.3
        )


def _evaluate_relu_layer_bench(benchmark, name, count, rounds):
    """``count`` garbled ReLUs through the batch evaluator, guarded."""
    spec = ReluCircuitSpec(bits=17, modulus=PARAMS.t, mask_owner="evaluator")
    circuit = build_relu_circuit(spec)
    circuits, encodings = Garbler(SecureRandom(15)).garble_batch(circuit, count)
    own = Garbler.encode_inputs(encodings, circuit, [int_to_bits(123, 17)] * count)
    zero, one = encodings.evaluator_pairs()
    chosen = np.array(
        (int_to_bits(456, 17) + int_to_bits(789, 17)) * count, dtype=bool
    )
    theirs = LabelBatch(
        circuit.evaluator_inputs,
        np.where(chosen[:, None], one, zero).reshape(count, -1, 16),
    )
    labels = {**own.columns(), **theirs.columns()}
    evaluator = Evaluator()
    benchmark.pedantic(
        lambda: evaluator.evaluate_batch(circuits, labels),
        rounds=rounds, iterations=1, warmup_rounds=1,
    )
    if os.environ.get("REPRO_BENCH_STRICT"):
        _guard_against_committed_baseline(benchmark, name, threshold=1.3)


def test_bench_evaluate_relu_layer(benchmark):
    """One ReLU layer's worth of circuits through the batch evaluator."""
    _evaluate_relu_layer_bench(
        benchmark, "test_bench_evaluate_relu_layer", RELU_BATCH, rounds=3
    )


def test_bench_evaluate_relu_layer_narrow(benchmark):
    """The serve_* workloads' ReLU layer: 8 instances, a lane walk."""
    _evaluate_relu_layer_bench(
        benchmark, "test_bench_evaluate_relu_layer_narrow", NARROW_RELU_BATCH, rounds=7
    )


def test_bench_evaluate_relu_layer_wide(benchmark):
    """infer_sg_wide's ReLU layer: 128 instances, wider than the lanes
    take, so the column walk."""
    _evaluate_relu_layer_bench(
        benchmark, "test_bench_evaluate_relu_layer_wide", 128, rounds=5
    )


def test_bench_circuit_batch_codec_wide(benchmark):
    """infer_sg_wide's garbled layer (128 instances) to wire bytes and back."""
    spec = ReluCircuitSpec(bits=17, modulus=PARAMS.t, mask_owner="evaluator")
    circuit = build_relu_circuit(spec)
    circuits, _ = Garbler(SecureRandom(17)).garble_batch(circuit, 128)

    def round_trip():
        wire = serialize_circuit_batch(circuits)
        return wire, deserialize_circuit_batch(wire, circuit)

    wire, restored = benchmark.pedantic(
        round_trip, rounds=5, iterations=1, warmup_rounds=1
    )
    assert (restored.tables == circuits.tables).all()
    benchmark.extra_info["wire_bytes"] = len(wire)


def test_bench_evaluate_relu(benchmark):
    spec = ReluCircuitSpec(bits=17, modulus=PARAMS.t, mask_owner="evaluator")
    circuit = build_relu_circuit(spec)
    garbled, encoding = Garbler(SecureRandom(5)).garble(circuit)
    labels = Garbler.encode_inputs(encoding, circuit, int_to_bits(123, 17))
    for wire, bit in zip(
        circuit.evaluator_inputs, int_to_bits(456, 17) + int_to_bits(789, 17)
    ):
        labels[wire] = encoding.label_for(wire, bit)
    evaluator = Evaluator()
    benchmark(lambda: evaluator.evaluate(garbled, labels))


def _label_ot_batch(n_ots):
    """Both label matrices of ``n_ots`` wires, as a session's holder has them."""
    rng = np.random.default_rng(0)
    pairs = tuple(
        np.frombuffer(rng.bytes(16 * n_ots), dtype=np.uint8).reshape(n_ots, 16)
        for _ in range(2)
    )
    return pairs, rng.integers(0, 2, n_ots).tolist()


def test_bench_iknp_1000_ots(benchmark):
    pairs, choices = _label_ot_batch(1000)
    benchmark.pedantic(
        lambda: iknp_transfer(pairs, choices, IknpStream(SecureRandom(6))),
        rounds=1, iterations=1,
    )


def test_bench_iknp_136_ots(benchmark):
    """bench_e2e's serve_* label OT on a fresh stream (8 ReLUs x 17
    share bits): the base OTs plus one batch."""
    pairs, choices = _label_ot_batch(136)
    benchmark.pedantic(
        lambda: iknp_transfer(pairs, choices, IknpStream(SecureRandom(6))),
        rounds=5, iterations=1, warmup_rounds=1,
    )


def _warm_iknp_bench(benchmark, n_ots):
    """One batch on a stream whose base OTs already ran: what every label
    OT after a keep-alive connection's first one costs."""
    pairs, choices = _label_ot_batch(n_ots)
    stream = IknpStream(SecureRandom(6))
    iknp_transfer(pairs, choices, stream)  # the connection's first OT
    _, transcript = benchmark.pedantic(
        lambda: iknp_transfer(pairs, choices, stream),
        rounds=10, iterations=1, warmup_rounds=1,
    )
    assert transcript.base_ot_bytes == 0


def test_bench_iknp_136_ots_warm(benchmark):
    """serve_warm's per-request label OT: 8 ReLUs x 17 share bits."""
    _warm_iknp_bench(benchmark, 136)


def test_bench_iknp_328_ots_warm(benchmark):
    """infer_cg_delphi's label OT at its 41-bit field: 8 ReLUs x 41 bits."""
    _warm_iknp_bench(benchmark, 328)


def test_bench_iknp_4352_ots(benchmark):
    """infer_sg_wide's offline label OT: 128 ReLUs x 2 words x 17 bits.

    ``extra_info`` splits the batch into its m-independent base OTs and
    the m-proportional extension.
    """
    pairs, choices = _label_ot_batch(4352)
    benchmark.pedantic(
        lambda: iknp_transfer(pairs, choices, IknpStream(SecureRandom(6))),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    seeds = base_seed_ot(SecureRandom(6))
    benchmark.extra_info["phase_base_ms"] = _best_ms(
        lambda: base_seed_ot(SecureRandom(6))
    )
    benchmark.extra_info["phase_extend_ms"] = _best_ms(
        lambda: extend(IknpStream(seeds=seeds), pairs, choices)
    )
