"""Every wait on the gateway's serving path ends at its event.

* A request held in WAIT_STORE for an in-flight refill is OFFERed as
  soon as the refill's blob is stored: the refill driver writes the
  selector's wake pipe after every landed or failed mint, so the offer
  does not wait out an idle ``select()`` round.
* An owed refill is submitted as soon as ``kick()`` posts it, or as soon
  as a finished mint frees a slot for it: the refill driver blocks on one
  event, not on a sleep.
* The wake pipe lives and dies with ``start()``/``stop()``.
"""

import os
import threading
import time

import numpy as np
import pytest

import repro.runtime.gateway as gateway_module
from repro import tiny_dataset, tiny_mlp
from repro.core.lowering import lower_network, plaintext_reference
from repro.he.params import fast_params
from repro.runtime import (
    PrecomputePool,
    PrecomputeStore,
    ServingGateway,
    mint_offline_job,
)
from repro.runtime.connection import OFFER, ConnectionMachine
from repro.runtime.pool import _PoolJob
from repro.runtime.serving import mint_seed
from repro.workload import closed_schedule, draw_schedule_inputs, replay_functional

PARAMS = fast_params(n=256)
CLIENTS, REQUESTS, BASE_SEED = 2, 4, 5
MINT_SECONDS = 0.12  # every refill mint takes exactly this long
WAKE_SLACK = 0.010  # event -> reaction, scheduling noise included


def _network():
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    return network


@pytest.fixture(scope="module")
def blobs():
    """Every precompute the schedule mints, by seed, minted once up front."""
    network = _network()
    seeds = [
        mint_seed(BASE_SEED, c, j) for c in range(CLIENTS) for j in range(REQUESTS)
    ]
    return {
        seed: mint_offline_job((network, PARAMS, "client", seed, 0))
        for seed in seeds
    }


class _FixedTimeMint:
    """Stands in for ``mint_offline_job``: sleeps MINT_SECONDS, then
    returns the real blob minted up front for the job's seed. Picklable,
    blobs included, so pool workers can run it too."""

    def __init__(self, blobs):
        self.blobs = blobs

    def __call__(self, args):
        time.sleep(MINT_SECONDS)
        return self.blobs[args[3]]


def _fixed_time_mints(monkeypatch, blobs):
    """Make the gateway's mints take MINT_SECONDS and return real blobs."""
    monkeypatch.setattr(gateway_module, "mint_offline_job", _FixedTimeMint(blobs))


@pytest.mark.parametrize("workers", [1, 2])
def test_held_offer_follows_its_landing(tmp_path, monkeypatch, blobs, workers):
    """Two zero-think clients on a refill gateway whose mints take a fixed
    time: between a held request's blob landing and its OFFER, the
    selector blocks in ``select()`` for at most WAKE_SLACK. A selector
    that retried held offers only when an idle round timed out would
    block 0-50 ms there. Time the selector spends serving the other
    client's frames is not a wait and is not counted.

    One worker mints inline on the refill thread; two run mints in worker
    processes, whose completions reach the driver from the pool's result
    thread and land side by side."""
    _fixed_time_mints(monkeypatch, blobs)
    landed: dict[bytes, float] = {}  # blob -> when its put returned
    held_offers: list[tuple[bytes, float]] = []  # (blob, when offered)
    selects: list[tuple[float, float]] = []  # (entered, returned)
    start, admit = ServingGateway.start, ServingGateway._admit
    retry = ConnectionMachine.retry

    def timed_start(self):
        start(self)
        select = self._selector.select

        def timed_select(timeout=None):
            entered = time.perf_counter()
            try:
                return select(timeout)
            finally:
                selects.append((entered, time.perf_counter()))

        self._selector.select = timed_select

    def timed_admit(self, c, index, blob):
        admit(self, c, index, blob)
        landed[blob] = time.perf_counter()

    def timed_retry(self):
        held = self.state == self.WAIT_STORE
        actions = retry(self)
        for action, taken in actions:
            if held and action == OFFER:
                held_offers.append((taken[0], time.perf_counter()))
        return actions

    monkeypatch.setattr(ServingGateway, "start", timed_start)
    monkeypatch.setattr(ServingGateway, "_admit", timed_admit)
    monkeypatch.setattr(ConnectionMachine, "retry", timed_retry)
    network = _network()
    schedule = closed_schedule(CLIENTS, REQUESTS, 0.0)
    inputs = draw_schedule_inputs(schedule, network, PARAMS)
    with PrecomputePool(workers=workers) as pool:
        report = replay_functional(
            schedule, network, PARAMS, PrecomputeStore(tmp_path), pool=pool,
            base_seed=BASE_SEED, inputs=inputs,
        )

    assert report.hit_rate == 1.0 and report.demand_mints == 0
    oracle = lower_network(network, PARAMS.t)
    for r in report.requests:
        c = int(r.client[len("client"):])
        assert r.logits == plaintext_reference(oracle, inputs[c][r.index])
    assert held_offers, "no request was held: the schedule tests nothing"
    # A stored blob may be offered before the thread that stored it runs
    # again to stamp it; no select() falls in such a (negative) gap.
    waits = [
        sum(
            returned - max(entered, landed[blob])
            for entered, returned in selects
            if landed[blob] < returned <= offered
        )
        for blob, offered in held_offers
    ]
    assert max(waits) <= WAKE_SLACK, [round(w, 4) for w in waits]
    # The hold is reported per request, and splits a latency.
    held = [r for r in report.requests if r.hold_seconds > 0.0]
    assert len(held) == len(held_offers)
    summary = report.summary()
    assert summary["mean_hold_seconds"] == pytest.approx(
        sum(r.hold_seconds for r in report.requests) / len(report.requests),
        abs=1e-6,
    )
    for client in summary["gateway_stats"]["clients"].values():
        assert 0.0 <= client["hold_p50"] <= client["hold_p95"]


@pytest.mark.parametrize("workers", [1, 2])
def test_kick_submits_an_owed_refill_at_once(tmp_path, monkeypatch, blobs, workers):
    """Credits posted while the refill driver is idle: the first is
    claimed and submitted within WAKE_SLACK of ``kick()``. There are more
    of them than workers, so each later one waits for a slot, takes it
    as soon as a mint frees it, and ``drain_refills`` returns once the
    last mint lands."""
    _fixed_time_mints(monkeypatch, blobs)
    owed = 3
    submitted: list[float] = []
    submit = ServingGateway._submit_mint

    def timed_submit(self, seed, *args, **kwargs):
        submitted.append(time.perf_counter())
        return submit(self, seed, *args, **kwargs)

    monkeypatch.setattr(ServingGateway, "_submit_mint", timed_submit)
    with PrecomputePool(workers=workers) as pool:
        gateway = ServingGateway(
            _network(), PARAMS, CLIENTS, PrecomputeStore(tmp_path), pool=pool,
            prefill=0, base_seed=BASE_SEED, expected_per_client=REQUESTS,
        )
        gateway.start()
        try:
            time.sleep(0.1)  # let the driver settle into its idle wait
            with gateway._state_lock:
                for _ in range(owed):
                    gateway.ledger.completed(0)  # what a DONE books
            kicked = time.perf_counter()
            gateway._refill_worker.kick()
            gateway.drain_refills(timeout=30.0)
            drained = time.perf_counter()
        finally:
            gateway.stop()

    assert len(submitted) == owed
    assert submitted[0] - kicked <= WAKE_SLACK
    assert gateway.ledger.minted == [owed, 0] and gateway.ledger.idle()
    # ceil(owed / workers) rounds of mints back to back, plus slack for
    # forking the pool's workers on first use.
    rounds = -(-owed // workers)
    assert drained - kicked <= rounds * MINT_SECONDS + 1.0


class _HandPool:
    """A two-worker pool whose jobs the test resolves by hand."""

    workers = 2

    def __init__(self):
        self.jobs = []  # (seed, AsyncJob, on_done) in submission order

    def apply_async(self, func, job, on_done=None):
        handle = _PoolJob()  # resolving it notifies no one: on_done is ours
        self.jobs.append((job[3], handle, on_done))
        return handle


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def test_completions_sharing_one_wake_free_their_slots(tmp_path, blobs):
    """Both in-flight mints finish before the refill driver next runs, so
    their two notifications reach it as one wake-up. The driver harvests
    both and fills a freed slot with the third owed refill in that same
    round; nothing else would wake it to do so later."""
    pool = _HandPool()
    gateway = ServingGateway(
        _network(), PARAMS, CLIENTS, PrecomputeStore(tmp_path), pool=pool,
        prefill=0, base_seed=BASE_SEED, expected_per_client=REQUESTS,
    )
    gateway.start()
    try:
        with gateway._state_lock:
            for _ in range(3):
                gateway.ledger.completed(0)
        gateway._refill_worker.kick()
        _wait_until(lambda: len(pool.jobs) == 2)  # one per worker
        time.sleep(0.1)  # let the driver settle into its wait
        for seed, handle, _ in pool.jobs:
            handle._resolve(blobs[seed])
        pool.jobs[0][2]()  # the one wake-up both completions amount to
        _wait_until(lambda: len(pool.jobs) == 3)
        seed, handle, on_done = pool.jobs[2]
        handle._resolve(blobs[seed])
        on_done()
        started = time.perf_counter()
        gateway.drain_refills(timeout=10.0)
        assert time.perf_counter() - started <= 1.0
    finally:
        gateway.stop(drain=False)  # a stalled driver owes mints forever
    assert gateway.ledger.minted == [3, 0] and gateway.ledger.idle()


# -- the wake pipe's lifecycle ------------------------------------------------


def _idle_gateway(tmp_path, pool):
    return ServingGateway(
        _network(), PARAMS, 1, PrecomputeStore(tmp_path), pool=pool,
        prefill=0, refill=False,
    )


def test_stop_unregisters_and_closes_the_wake_pipe(tmp_path):
    with PrecomputePool(workers=1) as pool:
        gateway = _idle_gateway(tmp_path, pool)
        gateway.start()
        waker, selector = gateway._waker, gateway._selector
        assert selector.get_key(waker).data is waker
        unregistered = []
        unregister = selector.unregister
        selector.unregister = lambda f: unregistered.append(f) or unregister(f)
        gateway.stop()

    assert waker in unregistered
    assert waker.closed
    assert waker._recv.fileno() == -1 and waker._send.fileno() == -1
    waker.wake()  # after stop(): a no-op, not an error


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_start_stop_cycles_leak_no_descriptors(tmp_path):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    with PrecomputePool(workers=1) as pool:
        gateway = _idle_gateway(tmp_path / "warm", pool)
        gateway.start()  # first use: lazy imports and caches settle
        gateway.stop()
        before = open_fds()
        for cycle in range(10):
            gateway = _idle_gateway(tmp_path / str(cycle), pool)
            gateway.start()
            gateway.stop()
        assert open_fds() == before


def test_full_wake_pipe_never_blocks(tmp_path):
    """A wake into a full pipe is dropped (the selector is bound to wake
    anyway); one poll() drains it and wakes work again."""
    with PrecomputePool(workers=1) as pool:
        gateway = _idle_gateway(tmp_path, pool)
        gateway.start()
        try:
            waker = gateway._waker
            with pytest.raises(BlockingIOError):
                while True:
                    waker._send.send(bytes(65536))
            done = threading.Event()

            def wake_many():
                for _ in range(1000):
                    waker.wake()
                done.set()

            thread = threading.Thread(target=wake_many, daemon=True)
            thread.start()
            thread.join(timeout=10.0)
            assert done.is_set() and not thread.is_alive()
            gateway.poll(0.0)
            with pytest.raises(BlockingIOError):
                waker._recv.recv(1)  # drained
            waker.wake()
            assert waker._recv.recv(1) == b"\0"
        finally:
            gateway.stop()


def test_serve_abort_returns_within_one_idle_tick(tmp_path):
    tick = gateway_module.IDLE_TICK_SECONDS
    with PrecomputePool(workers=1) as pool:
        gateway = _idle_gateway(tmp_path, pool)
        gateway.start()
        abort = threading.Event()
        returned: list[float] = []

        def serve():
            gateway.serve(1, timeout=None, abort=abort.is_set)
            returned.append(time.perf_counter())

        thread = threading.Thread(target=serve, daemon=True)
        try:
            thread.start()
            time.sleep(3 * tick)
            aborted = time.perf_counter()
            abort.set()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            gateway.stop()

    assert returned[0] - aborted <= tick + WAKE_SLACK
