"""The process pool: whole-mint parity, worker resolution, fork safety.

A :class:`~repro.runtime.PrecomputePool` runs one job kind, the whole
mint. A mint is a pure function of its seed and compute backend, so the
blob a worker returns must equal the same mint run in-process, byte for
byte. The rest is the fork-safety contract of the worker initializer and
the async submission surface the gateway's refill thread drives.
"""

import os

import numpy as np
import pytest

import repro.runtime.state as runtime_state
from repro import HybridProtocol, tiny_dataset, tiny_mlp
from repro.backend import (
    RnsContext,
    active_backend_name,
    set_backend,
)
from repro.crypto.rng import SecureRandom
from repro.he.params import fast_params, toy_params
from repro.he.polynomial import RingPoly, ntt_cache_size
from repro.runtime import (
    PrecomputePool,
    derive_worker_seed,
    mint_offline_job,
    reset_process_state,
    resolve_workers,
)

PARAMS = fast_params(n=256)


def tiny_network(hidden=8):
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=hidden)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    return network


# -- the one job kind: whole mints ---------------------------------------------


@pytest.mark.parametrize("garbler", ["client", "server"])
def test_mint_offline_job_matches_inprocess_mint(garbler):
    """A worker-minted blob equals the in-process mint under the same seed.

    Parent and worker both select their backend from the environment
    (tests that switch it do so under ``using_backend``, which restores
    the previous selection), so plain ``auto`` parameters agree.
    """
    network = tiny_network()
    reference = HybridProtocol(network, PARAMS, garbler=garbler, seed=42)
    reference.run_offline()
    with PrecomputePool(workers=2) as pool:
        job = pool.apply_async(mint_offline_job, (network, PARAMS, garbler, 42, 0))
        blob = job.get(timeout=120)
        assert pool._pool is not None  # really minted in a worker process
    assert blob == reference.offline_blob()


def test_protocol_rejects_workers_other_than_one():
    """``workers`` survives only as the benchmark's ``workers=1`` spelling."""
    network = tiny_network(hidden=4)
    HybridProtocol(network, PARAMS, seed=1, workers=1)
    with pytest.raises(ValueError, match="workers=2"):
        HybridProtocol(network, PARAMS, seed=1, workers=2)


def test_protocol_never_builds_a_pool(monkeypatch):
    """REPRO_WORKERS sizes PrecomputePools; a protocol never creates one."""
    import repro.runtime.pool as pool_module

    def forbidden(*args, **kwargs):
        raise AssertionError("a protocol must not construct a PrecomputePool")

    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(pool_module, "PrecomputePool", forbidden)
    monkeypatch.setattr("repro.runtime.PrecomputePool", forbidden)
    protocol = HybridProtocol(tiny_network(hidden=4), PARAMS, seed=1)
    protocol.run_offline()
    x = list(range(16))
    assert protocol.run_online(x) == protocol.plaintext_reference(x)


# -- worker resolution ---------------------------------------------------------


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    all_cores = os.cpu_count() or 1
    assert resolve_workers(3) == 3
    assert resolve_workers(None) == all_cores
    assert resolve_workers() == all_cores
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert resolve_workers(None) == 5
    assert resolve_workers(2) == 2  # explicit beats env
    monkeypatch.setenv("REPRO_WORKERS", "junk")
    with pytest.warns(RuntimeWarning):
        assert resolve_workers(None) == all_cores  # fail soft, loudly
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert resolve_workers(None) == 1  # floored at one
    assert resolve_workers(0) == 1


def test_resolve_workers_warns_naming_the_bad_value(monkeypatch):
    """An unparseable REPRO_WORKERS must not be silently swallowed.

    The fallback is deliberate (a broken environment should not kill a
    run), but the warning must name the offending value so the user can
    see why their worker-count setting had no effect.
    """
    monkeypatch.setenv("REPRO_WORKERS", "all-the-cores")
    with pytest.warns(RuntimeWarning, match="all-the-cores"):
        assert resolve_workers(None) == (os.cpu_count() or 1)
    with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
        resolve_workers(None)
    # A parseable value stays silent...
    monkeypatch.setenv("REPRO_WORKERS", "2")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_workers(None) == 2
        # ...and so does an explicit argument, which never consults env.
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert resolve_workers(4) == 4


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


def test_pool_inline_when_single_worker():
    pool = PrecomputePool(workers=1)
    probes = pool.map_jobs(_worker_probe, list(range(3)))
    assert {pid for _, _, pid in probes} == {os.getpid()}
    assert pool._pool is None  # no processes were spawned
    assert runtime_state.worker_index() is None  # parent untouched
    pool.close()


# -- async submission surface ----------------------------------------------------


def test_apply_async_inline_resolves_at_submit():
    """workers<=1 runs the job inline: ready immediately, same process."""
    import math

    with PrecomputePool(workers=1) as pool:
        job = pool.apply_async(math.sqrt, 16.0)
        assert job.ready()
        assert job.get() == 4.0
        assert pool._pool is None  # still no processes


def test_apply_async_inline_captures_exceptions():
    import math

    with PrecomputePool(workers=1) as pool:
        job = pool.apply_async(math.sqrt, -1.0)
        assert job.ready()  # resolved — to an error
        with pytest.raises(ValueError):
            job.get()


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
