"""Pooled-vs-sequential parity for the offline precompute runtime.

The design invariant of :mod:`repro.runtime.pool` is that pooling never
changes an output bit: all randomness is drawn by the parent in the
sequential order and jobs are pure functions of pre-drawn material. These
tests enforce byte-identity between pooled and sequential garbling, OT
extension, Galois key generation, and whole protocol offline phases, plus
the fork-safety contract of the worker initializer.
"""

import os

import pytest

import repro.runtime.state as runtime_state
from repro.backend import (
    RnsContext,
    active_backend_name,
    reset_backend_selection,
    set_backend,
)
from repro.crypto.rng import SecureRandom
from repro.gc.garble import Garbler
from repro.gc.relu import ReluCircuitSpec, build_relu_circuit
from repro.he.bfv import BfvContext
from repro.he.encoder import BatchEncoder
from repro.he.params import fast_params, toy_params
from repro.he.polynomial import RingPoly, ntt_cache_size
from repro.network.serialize import (
    serialize_garbled_circuit,
    serialize_input_encoding,
)
from repro.runtime import (
    PrecomputePool,
    derive_worker_seed,
    plan_shards,
    reset_process_state,
    resolve_workers,
)

PARAMS = fast_params(n=256)


def relu_circuit():
    spec = ReluCircuitSpec(bits=17, modulus=PARAMS.t, mask_owner="evaluator")
    return build_relu_circuit(spec)


def batch_bytes(batch):
    return b"".join(
        serialize_garbled_circuit(garbled) + serialize_input_encoding(encoding)
        for garbled, encoding in batch
    )


# -- worker resolution and shard planning ---------------------------------------


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(3) == 3
    assert resolve_workers(None, default=1) == 1
    assert resolve_workers(None) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert resolve_workers(None, default=1) == 5
    assert resolve_workers(2) == 2  # explicit beats env
    monkeypatch.setenv("REPRO_WORKERS", "junk")
    with pytest.warns(RuntimeWarning):
        assert resolve_workers(None, default=1) == 1  # fail soft, loudly
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert resolve_workers(None, default=1) == 1  # floored at one


def test_resolve_workers_warns_naming_the_bad_value(monkeypatch):
    """An unparseable REPRO_WORKERS must not be silently swallowed.

    The fallback is deliberate (a broken environment should not kill a
    run), but the warning must name the offending value so the user can
    see why their worker-count setting had no effect.
    """
    monkeypatch.setenv("REPRO_WORKERS", "all-the-cores")
    with pytest.warns(RuntimeWarning, match="all-the-cores"):
        assert resolve_workers(None, default=1) == 1
    with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
        resolve_workers(None)
    # A parseable value stays silent...
    monkeypatch.setenv("REPRO_WORKERS", "2")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_workers(None, default=1) == 2
        # ...and so does an explicit argument, which never consults env.
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert resolve_workers(4) == 4


def test_plan_shards_covers_and_balances():
    plans = plan_shards([100], workers=4, min_shard=8, oversubscribe=4)
    ranges = plans[0]
    assert ranges[0][0] == 0 and ranges[-1][1] == 100
    assert all(hi > lo for lo, hi in ranges)
    assert [lo for lo, _ in ranges[1:]] == [hi for _, hi in ranges[:-1]]
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1  # even split
    assert min(sizes) >= 7  # ~min_shard


def test_plan_shards_is_skew_aware():
    # One wide layer among small ones: the target comes from the total,
    # so the wide layer splits finely while small layers stay whole.
    plans = plan_shards([512, 16, 16], workers=4, min_shard=8, oversubscribe=4)
    assert len(plans[0]) > 8
    assert len(plans[1]) == 1 and len(plans[2]) == 1
    assert plans[1][0] == (0, 16)


def test_plan_shards_edge_cases():
    assert plan_shards([0], workers=2) == [[]]
    assert plan_shards([1], workers=8) == [[(0, 1)]]
    assert plan_shards([], workers=2) == []


# -- pooled garbling parity -----------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_garble_batch_matches_sequential_vectorized(workers):
    circuit = relu_circuit()
    expected = Garbler(SecureRandom(99)).garble_batch(circuit, 40)
    with PrecomputePool(workers=workers, min_shard=4) as pool:
        pooled = pool.garble_batch(circuit, 40, rng=SecureRandom(99))
    assert batch_bytes(pooled) == batch_bytes(expected)
    # The parent's shared topology object is rebound on every instance
    # (the batched evaluator's fast path requires identity).
    assert all(garbled.circuit is circuit for garbled, _ in pooled)


def test_pool_garble_batch_matches_sequential_scalar():
    circuit = relu_circuit()
    expected = Garbler(SecureRandom(7)).garble_batch(circuit, 9, vectorize=False)
    with PrecomputePool(workers=2, min_shard=2) as pool:
        pooled = pool.garble_batch(
            circuit, 9, rng=SecureRandom(7), vectorize=False
        )
    assert batch_bytes(pooled) == batch_bytes(expected)


def test_pool_garble_batch_edges():
    circuit = relu_circuit()
    with PrecomputePool(workers=2) as pool:
        assert pool.garble_batch(circuit, 0, rng=SecureRandom(1)) == []
        single = pool.garble_batch(circuit, 1, rng=SecureRandom(1))
    expected = Garbler(SecureRandom(1)).garble_batch(circuit, 1)
    assert batch_bytes(single) == batch_bytes(expected)


def test_pool_garble_layers_matches_per_layer_sequential():
    circuit = relu_circuit()
    counts = [48, 8]
    with PrecomputePool(workers=2, min_shard=4) as pool:
        batches = pool.garble_layers(
            [(circuit, count, SecureRandom(30 + i)) for i, count in enumerate(counts)]
        )
    for i, count in enumerate(counts):
        expected = Garbler(SecureRandom(30 + i)).garble_batch(circuit, count)
        assert batch_bytes(batches[i]) == batch_bytes(expected)


# -- pooled Galois keygen parity ------------------------------------------------


def test_pool_galois_keygen_matches_sequential():
    encoder = BatchEncoder(PARAMS)
    g = encoder.galois_element_for_rotation(1)

    ctx_seq = BfvContext(PARAMS, SecureRandom(11))
    sk_seq, _ = ctx_seq.keygen()
    gk_seq = ctx_seq.galois_keygen(sk_seq, [g])

    ctx_pool = BfvContext(PARAMS, SecureRandom(11))
    sk_pool, _ = ctx_pool.keygen()
    with PrecomputePool(workers=2) as pool:
        gk_pool = pool.galois_keygen(ctx_pool, sk_pool, [g])

    assert sorted(gk_seq.keys) == sorted(gk_pool.keys)
    for (k0_a, k1_a), (k0_b, k1_b) in zip(gk_seq.keys[g], gk_pool.keys[g]):
        assert k0_a.coeffs == k0_b.coeffs
        assert k1_a.coeffs == k1_b.coeffs


def test_pool_galois_keygen_rns_chain():
    """Pooled keygen on an RNS-chained parameter set (worker re-registers
    the composite factorization; coefficients stay oracle-exact)."""
    params = toy_params(n=256)
    encoder = BatchEncoder(params)
    g = encoder.galois_element_for_rotation(1)

    ctx_seq = BfvContext(params, SecureRandom(23))
    sk_seq, _ = ctx_seq.keygen()
    gk_seq = ctx_seq.galois_keygen(sk_seq, [g])

    ctx_pool = BfvContext(params, SecureRandom(23))
    sk_pool, _ = ctx_pool.keygen()
    with PrecomputePool(workers=2) as pool:
        gk_pool = pool.galois_keygen(ctx_pool, sk_pool, [g])

    for (k0_a, k1_a), (k0_b, k1_b) in zip(gk_seq.keys[g], gk_pool.keys[g]):
        assert k0_a.coeffs == k0_b.coeffs
        assert k1_a.coeffs == k1_b.coeffs


# -- fork-safety / process state ------------------------------------------------


def test_reset_process_state_clears_caches_and_reselects(monkeypatch):
    original = active_backend_name()
    try:
        # Populate the process-global caches.
        RingPoly([1, 2, 3, 4], 12289) * RingPoly([4, 3, 2, 1], 12289)
        RnsContext.for_primes(toy_params(n=256).rns_primes)
        assert ntt_cache_size() > 0
        assert len(RnsContext._cache) > 0
        set_backend("python")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        reset_process_state()
        assert ntt_cache_size() == 0
        assert len(RnsContext._cache) == 0
        # Selection re-read from the worker's own environment, dropping
        # the parent's programmatic set_backend().
        assert active_backend_name() == "numpy"
        monkeypatch.delenv("REPRO_BACKEND")
        reset_process_state()
        assert active_backend_name() == "auto"
    finally:
        set_backend(original)


def test_derive_worker_seed_is_stable_and_distinct():
    seeds = {derive_worker_seed(123, i) for i in range(8)}
    assert len(seeds) == 8
    assert derive_worker_seed(123, 0) == derive_worker_seed(123, 0)
    assert derive_worker_seed(123, 0) != derive_worker_seed(124, 0)


def _worker_probe(_job):
    """Pool job: report this worker's identity and first private draws."""
    return (
        runtime_state.worker_index(),
        runtime_state.worker_rng().bytes(8),
        os.getpid(),
    )


def test_pool_workers_have_independent_rngs():
    with PrecomputePool(workers=2, seed=123) as pool:
        probes = pool.map_jobs(_worker_probe, list(range(8)))
    pids = {pid for _, _, pid in probes}
    assert os.getpid() not in pids  # really ran in child processes
    assert all(index is not None for index, _, _ in probes)
    # Every draw is distinct (streams advance and never collide) and no
    # worker continues the parent's stream for the same base seed.
    draws = {draw for _, draw, _ in probes}
    assert len(draws) == len(probes)
    assert SecureRandom(123).bytes(8) not in draws


def test_system_config_threads_workers_into_protocol(monkeypatch):
    """SystemConfig.workers reaches the functional protocol's pool size."""
    import numpy as np

    from repro.core.system import SystemConfig
    from repro.nn.datasets import tiny_dataset
    from repro.nn.models import tiny_mlp
    from repro.profiling.model_costs import Protocol, profile_network

    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
    profile = profile_network(network)
    config = SystemConfig(
        profile=profile, protocol=Protocol.CLIENT_GARBLER, workers=2
    )
    assert config.precompute_workers() == 2
    network.randomize_weights(
        config.functional_bfv_params().t, np.random.default_rng(0)
    )
    protocol = config.functional_protocol(network, seed=3)
    assert protocol._workers == 2
    assert protocol.garbler_role == "client"
    protocol.run_offline()
    x = np.random.default_rng(1).integers(0, protocol.params.t, size=16).tolist()
    assert protocol.run_online(x) == protocol.plaintext_reference(x)


def _worker_backend_probe(_job):
    """Pool job: report the backend selection this worker resolved."""
    return active_backend_name()


def test_pool_forwards_backend_selection_to_workers(monkeypatch):
    """A pool-level backend choice survives the worker's env reset."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    with PrecomputePool(workers=2, backend="python") as pool:
        probes = pool.map_jobs(_worker_backend_probe, list(range(4)))
    assert set(probes) == {"python"}


def test_protocol_pool_inherits_explicit_backend(monkeypatch):
    """HybridProtocol's own pool carries the protocol's backend choice."""
    import numpy as np

    import repro.runtime.pool as pool_module
    from repro import HybridProtocol, tiny_dataset, tiny_mlp

    captured = {}
    real_pool = pool_module.PrecomputePool

    def capturing_pool(*args, **kwargs):
        captured.update(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setattr(pool_module, "PrecomputePool", capturing_pool)
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=4)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    protocol = HybridProtocol(
        network, PARAMS, garbler="server", seed=1, backend="python", workers=2
    )
    protocol.run_offline()
    assert captured["backend"] == "python"
    assert captured["representation"] == "bigint"


def test_pool_inline_when_single_worker():
    circuit = relu_circuit()
    pool = PrecomputePool(workers=1)
    pool.garble_batch(circuit, 8, rng=SecureRandom(3))
    assert pool._pool is None  # no processes were spawned
    assert runtime_state.worker_index() is None  # parent untouched
    pool.close()


# -- async submission surface ----------------------------------------------------


def test_apply_async_inline_resolves_at_submit():
    """workers<=1 runs the job inline: ready immediately, same process."""
    import math

    with PrecomputePool(workers=1) as pool:
        seen = []
        job = pool.apply_async(math.sqrt, 16.0, callback=seen.append)
        assert job.ready()
        assert job.get() == 4.0
        assert seen == [4.0]  # callback ran synchronously
        assert pool._pool is None  # still no processes


def test_apply_async_inline_captures_exceptions():
    import math

    with PrecomputePool(workers=1) as pool:
        seen = []
        job = pool.apply_async(math.sqrt, -1.0, callback=seen.append)
        assert job.ready()  # resolved — to an error
        with pytest.raises(ValueError):
            job.get()
        assert seen == []  # callback must not fire on failure


def test_apply_async_pooled_runs_in_worker():
    import math
    import time

    with PrecomputePool(workers=2) as pool:
        jobs = [pool.apply_async(math.sqrt, float(n * n)) for n in range(1, 6)]
        assert [job.get(timeout=60) for job in jobs] == [1.0, 2.0, 3.0, 4.0, 5.0]
        deadline = time.monotonic() + 60
        while not all(job.ready() for job in jobs):
            assert time.monotonic() < deadline
        failing = pool.apply_async(math.sqrt, -1.0)
        with pytest.raises(ValueError):
            failing.get(timeout=60)


def test_apply_async_pooled_callback_fires():
    import math
    import time

    with PrecomputePool(workers=2) as pool:
        seen = []
        job = pool.apply_async(math.sqrt, 81.0, callback=seen.append)
        assert job.get(timeout=60) == 9.0
        deadline = time.monotonic() + 60
        while not seen:  # callback runs on the pool's result thread
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert seen == [9.0]


def test_pool_creation_is_thread_safe():
    """Racing first submissions must materialize exactly one process pool."""
    import math
    import threading

    with PrecomputePool(workers=2) as pool:
        barrier = threading.Barrier(4)
        results = []

        def submit():
            barrier.wait()
            results.append(pool.apply_async(math.sqrt, 4.0).get(timeout=60))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert results == [2.0, 2.0, 2.0, 2.0]
        assert pool._pool is not None
