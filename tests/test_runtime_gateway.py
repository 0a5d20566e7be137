"""Concurrent serving gateway: correctness under real concurrency.

The gateway multiplexes many live client sockets on one selector thread
while refill mints run through the pool's async surface — none of which
may change a single output bit. These tests pin that down:

* a zero-think closed schedule replayed through the gateway returns, per
  (client, index), the plaintext oracle's logits on that request's input
  — both garbler roles, with an ample budget (full hit rate, one mint per
  request) and with one tight enough to evict (misses demand-run the
  offline phase over the wire);
* forked OS-process clients (nothing shared but the socket) verify their
  logits and exit clean;
* a client that dies mid-protocol is dropped without disturbing the
  other live sessions;
* with refill mints in worker processes, the mint windows overlap the
  serve window (the throughput ratio itself is CI ``gateway-smoke``'s).
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro import HybridProtocol, tiny_dataset, tiny_mlp
from repro.core.lowering import lower_network, plaintext_reference
from repro.he.params import fast_params
from repro.network.frames import (
    decode_busy,
    decode_goaway,
    decode_offer,
    encode_busy,
    encode_goaway,
    encode_hello,
    encode_request,
)
from repro.network.transport import SocketTransport, TransportError
from repro.runtime import (
    PrecomputePool,
    PrecomputeStore,
    ServingGateway,
    request_inference,
)
from repro.runtime.client import GatewayClient
from repro.runtime.policy import BUSY_RETRY_FLOOR, MAX_RETRY_AFTER
from repro.runtime.pool import mint_offline_job
from repro.runtime.serving import draw_inputs, mint_seed
from repro.runtime.store import KIND_OFFLINE
from repro.workload import closed_schedule, draw_schedule_inputs, replay_functional

PARAMS = fast_params(n=256)


def _network(hidden=8):
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=hidden)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    return network


# -- concurrent serving correctness ---------------------------------------------


@pytest.mark.parametrize(
    "garbler, budget_entries, prefill, workers",
    [
        pytest.param("client", None, 1, 1, id="client-unbounded"),
        pytest.param("client", 2, 1, 1, id="client-evicting"),
        pytest.param("server", None, 1, 1, id="server-unbounded"),
        pytest.param("server", 2, 1, 1, id="server-evicting"),
        pytest.param("server", None, 0, 2, id="server-cold-w2"),
    ],
)
def test_replay_matches_oracle_per_client_and_index(
    tmp_path, garbler, budget_entries, prefill, workers
):
    """3 clients x 2 requests as a zero-think closed schedule through the
    gateway: every (client, index) is served once, with the plaintext
    oracle's logits on the input ``draw_inputs`` gives it under the same
    ``input_seed``. With an ample budget every request hits and one
    precompute is minted per request; with a budget that cannot hold
    every client's precompute, admissions evict and misses run offline
    over the wire; with nothing prefilled the first requests demand-mint
    in the selector thread while the 2-worker pool runs the refills."""
    network = _network()
    clients, requests = 3, 2
    byte_budget = None
    if budget_entries is not None:
        # Room for fewer stored precomputes than there are clients.
        entry = len(mint_offline_job((network, PARAMS, garbler, mint_seed(5, 0, 0), 0)))
        byte_budget = budget_entries * entry + entry // 2

    schedule = closed_schedule(clients, requests, 0.0)
    store = PrecomputeStore(tmp_path / "gateway", byte_budget=byte_budget)
    with PrecomputePool(workers=workers) as pool:
        report = replay_functional(
            schedule, network, PARAMS, store, pool=pool, garbler=garbler,
            prefill=prefill, base_seed=5, input_seed=9,
        )

    assert sorted((r.client, r.index) for r in report.requests) == [
        (f"client{c}", j) for c in range(clients) for j in range(requests)
    ]
    assert report.connections_accepted == clients  # one keep-alive socket each
    assert report.requests_admitted == clients * requests
    assert (
        report.requests_admitted
        + report.requests_deferred
        + report.requests_rejected
        == report.requests_issued
    )
    assert report.dropped_sessions == 0
    assert report.workloads[schedule.name]["requests"] == clients * requests
    oracle = lower_network(network, PARAMS.t)
    inputs = draw_inputs(network, PARAMS, [requests] * clients, input_seed=9)
    for r in report.requests:
        c = int(r.client[len("client"):])
        assert r.logits == plaintext_reference(oracle, inputs[c][r.index])
    if prefill == 0:
        assert report.demand_mints > 0  # cold start: misses mint inline
    elif byte_budget is None:
        assert report.hit_rate == 1.0  # no request paid a miss
        assert report.demand_mints == 0
        assert report.minted == clients * requests
    else:
        assert report.evictions > 0  # the budget actually bit
        assert store.total_bytes <= byte_budget  # never exceeded
    import json

    json.dumps(report.summary())  # must stay uploadable by the CI smoke job


# -- forked OS-process clients ---------------------------------------------------


def _forked_client_main(port, client_index, requests):
    """Child process: request inferences and verify logits, or exit 1."""
    network = _network()
    oracle = lower_network(network, PARAMS.t)
    shape = lower_network(network, PARAMS.t, shape_only=True)
    rng = np.random.default_rng(900 + client_index)
    for j in range(requests):
        x = rng.integers(0, PARAMS.t, size=16).tolist()
        logits = request_inference(
            "127.0.0.1", port, network, PARAMS, x, garbler="client",
            client_id=f"client{client_index}", request_index=j, lowered=shape,
        )
        assert logits == plaintext_reference(oracle, x)


def test_gateway_serves_forked_client_processes(tmp_path):
    """N real OS processes against one gateway: nothing shared but TCP."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    clients, requests = 2, 1
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, clients, store, pool=pool, garbler="client",
            expected_per_client=requests,
        )
        gateway.start()
        procs = [
            multiprocessing.Process(
                target=_forked_client_main, args=(gateway.port, c, requests)
            )
            for c in range(clients)
        ]
        try:
            for p in procs:
                p.start()
            gateway.serve(clients * requests, timeout=300.0)
            for p in procs:
                p.join(timeout=60)
            gateway.check_refills()
        finally:
            gateway.stop()
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join()
    assert [p.exitcode for p in procs] == [0] * clients
    report = gateway.report()
    assert len(report.requests) == clients * requests
    assert report.hit_rate == 1.0
    assert report.dropped_sessions == 0
    served = {(r.client, r.index) for r in report.requests}
    assert served == {(f"client{c}", j) for c in range(clients)
                      for j in range(requests)}


# -- failure isolation -----------------------------------------------------------


def test_gateway_drops_dead_client_without_disturbing_others(tmp_path):
    """A client that vanishes mid-protocol costs exactly its own session."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 2, store, pool=pool, garbler="client",
            expected_per_client=1,
        )
        gateway.start()
        survivor_logits = []
        errors = []

        def victim():
            # Handshake through the offer — a hit consumes client1's
            # precompute — then die without ever starting the online phase.
            try:
                transport = SocketTransport.connect(
                    "127.0.0.1", gateway.port, retries=5
                )
                transport.send(encode_hello("client1"))
                transport.send(encode_request(0))
                hit, _ = decode_offer(transport.recv(wait=True))
                assert hit
                transport._sock.close()  # abrupt death, no clean close
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        def survivor():
            try:
                x = list(range(16))
                survivor_logits.append(
                    request_inference(
                        "127.0.0.1", gateway.port, network, PARAMS, x,
                        garbler="client", client_id="client0",
                    )
                )
            except BaseException as exc:
                errors.append(exc)

        try:
            victim_thread = threading.Thread(target=victim, daemon=True)
            victim_thread.start()
            survivor_thread = threading.Thread(target=survivor, daemon=True)
            survivor_thread.start()
            gateway.serve(1, timeout=300.0)
            # The victim's death is observed asynchronously; keep polling
            # until the gateway notices and drops it.
            deadline = time.monotonic() + 60
            while gateway.dropped_sessions < 1:
                assert time.monotonic() < deadline
                gateway.poll(0.05)
            victim_thread.join(timeout=60)
            survivor_thread.join(timeout=60)
        finally:
            gateway.stop()

    assert errors == []
    assert gateway.dropped_sessions == 1
    report = gateway.report()
    assert len(report.requests) == 1  # only the survivor completed
    assert report.requests[0].client == "client0"
    oracle = lower_network(network, PARAMS.t)
    assert survivor_logits == [plaintext_reference(oracle, list(range(16)))]


# -- wall-clock overlap ----------------------------------------------------------


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="wall-clock overlap needs at least two cores",
)
def test_refill_mints_overlap_the_serve_window(tmp_path):
    """With refill mints in worker processes, mint windows overlap the
    serve window and every logit is the oracle's. How much the overlap
    buys in requests/second is a wall-clock race against a sequential
    mint-then-serve loop; its one stated bar (median of three,
    gateway >= sequential) is CI gateway-smoke's."""
    network = _network()
    with PrecomputePool(workers=2) as pool:
        report = replay_functional(
            closed_schedule(3, 2, 0.0), network, PARAMS,
            PrecomputeStore(tmp_path), pool=pool,
        )

    assert report.refill_overlap_seconds > 0.0
    oracle = lower_network(network, PARAMS.t)
    inputs = draw_inputs(network, PARAMS, [2] * 3)
    assert len(report.requests) == 6
    for r in report.requests:
        c = int(r.client[len("client"):])
        assert r.logits == plaintext_reference(oracle, inputs[c][r.index])


# -- keep-alive connections and admission -----------------------------------------


def test_keepalive_connections_serve_many_requests(tmp_path):
    """4 clients x 4 requests over exactly 4 connections.

    Each replay driver opens ONE keep-alive connection and issues all of
    its requests over it (``connections_accepted == num_clients``, not
    ``num_requests``), every logit vector matches the plaintext oracle —
    plus a full sequential protocol reference per client — and the
    admission ledger balances."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    schedule = closed_schedule(4, 4, 0.0)
    inputs = draw_schedule_inputs(schedule, network, PARAMS)
    with PrecomputePool(workers=1) as pool:
        report = replay_functional(
            schedule, network, PARAMS, store, pool=pool, inputs=inputs
        )

    assert len(report.requests) == 16
    assert report.connections_accepted == 4  # one socket per client, reused
    assert report.requests_admitted == 16
    assert report.requests_rejected == 0
    assert (
        report.requests_admitted
        + report.requests_deferred
        + report.requests_rejected
        == report.requests_issued
    )
    assert report.dropped_sessions == 0
    per_client: dict = {}
    for request in report.requests:
        per_client.setdefault(request.client, []).append(request.index)
    assert all(sorted(v) == [0, 1, 2, 3] for v in per_client.values())
    lowered = lower_network(network, PARAMS.t)
    for request in report.requests:
        c = int(request.client[len("client"):])
        assert request.logits == plaintext_reference(
            lowered, inputs[c][request.index]
        )
    # One full sequential protocol reference per client (logits are
    # seed-independent, so the reference seed does not matter).
    for c in range(4):
        request = next(
            r for r in report.requests
            if r.client == f"client{c}" and r.index == 0
        )
        sequential = HybridProtocol(
            network, PARAMS, garbler="client", seed=mint_seed(0, c, 0),
        )
        sequential.run_offline()
        assert request.logits == sequential.run_online(inputs[c][0])

    summary = report.summary()
    assert summary["connections_accepted"] == 4
    assert summary["requests_issued"] == summary["requests_admitted"] + (
        summary["requests_deferred"] + summary["requests_rejected"]
    )


def test_gateway_saturation_defers_and_recovers(tmp_path):
    """``max_queue=0``: any REQ arriving while refill work is in flight
    is answered BUSY; keep-alive clients back off and retry, every
    request still completes with oracle-clean logits, and the admission
    ledger balances with non-zero deferrals."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    schedule = closed_schedule(3, 2, 0.0)
    inputs = draw_schedule_inputs(schedule, network, PARAMS)
    with PrecomputePool(workers=1) as pool:
        report = replay_functional(
            schedule, network, PARAMS, store, pool=pool, inputs=inputs,
            gateway_max_queue=0,
        )

    assert len(report.requests) == 6
    assert report.requests_deferred > 0  # the threshold actually bit
    assert report.requests_rejected == 0  # deferral cap is unlimited here
    assert report.requests_admitted == 6
    assert (
        report.requests_admitted
        + report.requests_deferred
        + report.requests_rejected
        == report.requests_issued
    )
    lowered = lower_network(network, PARAMS.t)
    for request in report.requests:
        c = int(request.client[len("client"):])
        assert request.logits == plaintext_reference(
            lowered, inputs[c][request.index]
        )


def _pump_for_frame(gateway, transport, timeout=30.0):
    """Poll the gateway's selector until the client socket yields a frame."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        gateway.poll(0.05)
        frame = transport.recv(wait=False)
        if frame is not None:
            return frame
    raise AssertionError("no frame from gateway within timeout")


def test_gateway_busy_then_goaway_raw_frames(tmp_path):
    """Raw admission wire semantics, single-threaded: a REQ over the
    backlog threshold gets BUSY carrying the retry-after floor (no mint
    has been timed), and blowing the deferral cap gets GOAWAY with a
    reason."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 1, store, pool=pool, garbler="client",
            prefill=0, refill=False, max_queue=0, max_request_deferrals=1,
        )
        gateway.start()
        try:
            # Fake an in-flight mint backlog so admission must defer.
            with gateway._state_lock:
                gateway.ledger.pending[0] = 3
            transport = SocketTransport.connect(
                "127.0.0.1", gateway.port, retries=5
            )
            transport.send(encode_hello("client0"))
            transport.send(encode_request(0))
            assert decode_busy(_pump_for_frame(gateway, transport)) == (
                BUSY_RETRY_FLOOR
            )
            transport.send(encode_request(0))
            reason = decode_goaway(_pump_for_frame(gateway, transport))
            assert "backlog" in reason
            transport.close()
        finally:
            with gateway._state_lock:
                gateway.ledger.pending[0] = 0
            gateway.stop(drain=False)

    assert gateway.ledger.admission()["issued"] == 2
    assert gateway.ledger.admission()["deferred"] == 1
    assert gateway.ledger.admission()["rejected"] == 1
    assert gateway.ledger.admission()["admitted"] == 0
    assert gateway.dropped_sessions == 0  # rejection is not a mid-protocol death


def test_dropped_admission_frees_its_in_flight_slot(tmp_path):
    """A request admitted and then dropped before its OFFER went out — a
    stored transcript that does not match the network is refused in
    ``_take_precompute`` — gives its in-flight slot back, so the client's
    next connection is not queued behind a request that no longer
    exists."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 1, store, pool=pool, garbler="client",
            prefill=0, refill=False,
        )
        store.put(gateway.store_key("client0"), KIND_OFFLINE, b"not a transcript")
        gateway.start()
        try:
            transport = SocketTransport.connect(
                "127.0.0.1", gateway.port, retries=5
            )
            transport.send(encode_hello("client0"))
            transport.send(encode_request(0))
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                gateway.connections_accepted == 0 or gateway._connections
            ):
                gateway.poll(0.05)  # until the refused connection is gone
            transport.close()
        finally:
            gateway.stop(drain=False)

    assert gateway.dropped_sessions == 1  # the request was active
    assert gateway.ledger.admission()["admitted"] == 1
    assert gateway.ledger.inflight == {}
    assert gateway.ledger.waiting == 0


def test_torn_store_entry_costs_one_connection(tmp_path):
    """A torn store entry — the first 7 bytes of a transcript — waits in
    client0's namespace. The request that takes it loses its connection
    (one dropped session, its in-flight slot returned), and the gateway
    goes on serving: client1's request comes back with the oracle's
    logits. The cut used to surface from ``poll()`` as a ``struct.error``
    and end ``serve()`` for every client."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    oracle = lower_network(network, PARAMS.t)
    shape = lower_network(network, PARAMS.t, shape_only=True)
    box: dict = {}
    errors = []
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 2, store, pool=pool, garbler="client",
            prefill=0, refill=False,
        )
        store.put(gateway.store_key("client0"), KIND_OFFLINE, b"RPC2\x01\x00\x00")
        gateway.start()

        def drive():
            try:
                client = GatewayClient(
                    "127.0.0.1", gateway.port, network, PARAMS,
                    garbler="client", client_id="client1", lowered=shape,
                )
                try:
                    box["logits"] = client.request(list(range(16)))
                finally:
                    client.close()
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        try:
            transport = SocketTransport.connect(
                "127.0.0.1", gateway.port, retries=5
            )
            transport.send(encode_hello("client0"))
            transport.send(encode_request(0))
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                gateway.connections_accepted == 0 or gateway._connections
            ):
                gateway.poll(0.05)  # until the torn entry's connection is gone
            transport.close()
            thread = threading.Thread(target=drive, daemon=True)
            thread.start()
            gateway.serve(1, timeout=120.0)
            thread.join(timeout=60.0)
        finally:
            gateway.stop(drain=False)

    assert errors == []
    assert gateway.dropped_sessions == 1
    assert box["logits"] == plaintext_reference(oracle, list(range(16)))
    assert gateway.ledger.admission()["admitted"] == 2
    assert gateway.ledger.inflight == {}


def test_torn_store_entry_is_deleted_so_its_client_is_served_next(tmp_path):
    """The request that takes a torn entry loses its connection, and the
    entry goes with it: client0 reconnects and its next request is served
    (a demand mint, the namespace being empty) with the oracle's logits.
    A refused entry used to stay at the head of the namespace, so every
    later request of that client dropped its connection too."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    oracle = lower_network(network, PARAMS.t)
    shape = lower_network(network, PARAMS.t, shape_only=True)
    box: dict = {}
    errors = []
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 1, store, pool=pool, garbler="client",
            prefill=0, refill=False,
        )
        key = gateway.store_key("client0")
        store.put(key, KIND_OFFLINE, b"RPC2\x01\x00\x00")
        gateway.start()

        def drive():
            try:
                client = GatewayClient(
                    "127.0.0.1", gateway.port, network, PARAMS,
                    garbler="client", client_id="client0", lowered=shape,
                )
                try:
                    box["logits"] = client.request(list(range(16)))
                finally:
                    client.close()
            except BaseException as exc:
                errors.append(exc)

        try:
            transport = SocketTransport.connect(
                "127.0.0.1", gateway.port, retries=5
            )
            transport.send(encode_hello("client0"))
            transport.send(encode_request(0))
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                gateway.connections_accepted == 0 or gateway._connections
            ):
                gateway.poll(0.05)  # until the torn entry's connection is gone
            transport.close()
            thread = threading.Thread(target=drive, daemon=True)
            thread.start()
            gateway.serve(1, timeout=120.0, abort=lambda: not thread.is_alive())
            thread.join(timeout=60.0)
        finally:
            gateway.stop(drain=False)

    assert errors == []
    assert box["logits"] == plaintext_reference(oracle, list(range(16)))
    assert gateway.dropped_sessions == 1
    assert store.names(key, KIND_OFFLINE) == []
    assert gateway.ledger.inflight == {}


def test_budget_below_one_precompute_fails_start(tmp_path):
    """A byte budget that cannot hold a single precompute (the paper's
    ``buffer_capacity == 0`` regime) is refused when the gateway
    prefills, before it accepts a connection."""
    network = _network()
    store = PrecomputeStore(tmp_path, byte_budget=10_000)  # < one entry
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(network, PARAMS, 1, store, pool=pool)
        try:
            with pytest.raises(ValueError, match="budget"):
                gateway.start()
        finally:
            gateway.stop(drain=False)


def test_buffered_hit_writes_the_store_index_once(tmp_path, monkeypatch):
    """A hit consumes its precompute through one ``PrecomputeStore.take``:
    one fsynced index write, not a ``get`` (an LRU refresh for an entry
    about to go) followed by a ``delete``. The taken entry is the
    prefilled one, and it is gone afterwards."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 1, store, pool=pool, garbler="client",
            prefill=1, refill=False,
        )
        gateway.start()
        try:
            key = gateway.store_key("client0")
            assert len(store.names(key, KIND_OFFLINE)) == 1
            writes = []
            real_save = store._save_index
            monkeypatch.setattr(
                store, "_save_index", lambda: writes.append(real_save())
            )
            taken = gateway._take_precompute("client0")
        finally:
            gateway.stop(drain=False)

    assert taken is not None
    assert len(writes) == 1
    assert store.names(key, KIND_OFFLINE) == []


def test_gateway_without_prefill_demand_mints_everything(tmp_path):
    """Nothing prefilled and one request per client: refill credits are
    capped at the schedule's count, so each request demand-mints on its
    own critical path and nothing else is minted."""
    network = _network()
    with PrecomputePool(workers=1) as pool:
        report = replay_functional(
            closed_schedule(2, 1, 0.0), network, PARAMS,
            PrecomputeStore(tmp_path), pool=pool, prefill=0,
        )

    assert report.hit_rate == 0.0
    assert report.demand_mints == 2
    assert report.minted == 2
    oracle = lower_network(network, PARAMS.t)
    inputs = draw_inputs(network, PARAMS, [1] * 2)
    for r in report.requests:
        c = int(r.client[len("client"):])
        assert r.logits == plaintext_reference(oracle, inputs[c][r.index])


def test_midstream_stats_on_keepalive_connection(tmp_path):
    """A GWS1 probe between two requests on one live connection: the
    stats frame is answered in-stream, the connection keeps serving, the
    second request's logits are clean, and the whole connection used a
    single recycled server session."""
    network = _network()
    store = PrecomputeStore(tmp_path)
    oracle = lower_network(network, PARAMS.t)
    shape = lower_network(network, PARAMS.t, shape_only=True)
    box: dict = {}
    errors = []
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 1, store, pool=pool, garbler="client",
            expected_per_client=2,
        )
        gateway.start()

        def drive():
            try:
                client = GatewayClient(
                    "127.0.0.1", gateway.port, network, PARAMS,
                    garbler="client", client_id="client0", lowered=shape,
                )
                try:
                    box[0] = client.request(list(range(16)), request_index=0)
                    box["stats"] = client.stats()
                    box[1] = client.request(
                        list(range(16, 32)), request_index=1
                    )
                finally:
                    client.close()
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        thread = threading.Thread(target=drive, daemon=True)
        try:
            thread.start()
            gateway.serve(2, timeout=300.0)
            thread.join(timeout=60.0)
            gateway.check_refills()
        finally:
            gateway.stop()

    assert errors == []
    assert box[0] == plaintext_reference(oracle, list(range(16)))
    assert box[1] == plaintext_reference(oracle, list(range(16, 32)))
    stats = box["stats"]
    assert stats["admission"]["connections_accepted"] == 1
    rows = [r for r in stats["connections"] if r["client"] == "client0"]
    assert rows and rows[0]["requests_completed"] == 1  # taken between reqs
    assert gateway._session_counter == 1  # one session, recycled, not two
    assert gateway.connections_accepted == 1
    assert gateway.ledger.admission()["admitted"] == 2


# -- refill caps and client-side backoff -------------------------------------------


def test_gateway_refill_caps_bound_the_mint_count(tmp_path):
    """Caps reach the ledger: a mismatched list is refused at construction,
    and a run prefilled to one short of its cap tops up by exactly one
    mint however its completions and the refill driver interleave."""
    network = _network()
    oracle = lower_network(network, PARAMS.t)
    logits, errors = [], []
    with PrecomputePool(workers=1) as pool:
        with pytest.raises(ValueError, match="match num_clients"):
            ServingGateway(
                network, PARAMS, 2, PrecomputeStore(tmp_path / "bad"),
                pool=pool, expected_per_client=[3],
            )
        gateway = ServingGateway(
            network, PARAMS, 1, PrecomputeStore(tmp_path / "ok"), pool=pool,
            garbler="client", prefill=3, expected_per_client=4,
        )
        gateway.start()

        def drive():
            try:
                with GatewayClient(
                    "127.0.0.1", gateway.port, network, PARAMS, garbler="client",
                ) as client:
                    for _ in range(4):
                        logits.append(client.request(list(range(16))))
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        thread = threading.Thread(target=drive, daemon=True)
        try:
            thread.start()
            gateway.serve(4, timeout=300.0)
            thread.join(timeout=60.0)
            gateway.check_refills()
        finally:
            gateway.stop()

    assert errors == []
    assert logits == [plaintext_reference(oracle, list(range(16)))] * 4
    report = gateway.report()
    assert report.minted == 4  # never above expected_per_client
    assert report.hit_rate == 1.0


class _ScriptedTransport:
    """Feeds a GatewayClient a scripted frame sequence; records sends."""

    def __init__(self, frames):
        self.frames = list(frames)
        self.sent = []

    def send(self, frame):
        self.sent.append(bytes(frame))

    def recv(self, wait=True):
        return self.frames.pop(0)


def _scripted_client(frames, seed=7):
    """A GatewayClient wired to a scripted transport (no socket, no
    session — only the admission/backoff path is exercised)."""
    import random

    client = object.__new__(GatewayClient)
    client.client_id = "client0"
    client.issued = client.admitted = client.deferred = client.rejected = 0
    client.retry_sleep_seconds = 0.0
    client._next_index = 0
    client._closed = False
    client._backoff_rng = random.Random(seed)
    client._backoff_cap = 2 * MAX_RETRY_AFTER
    client.transport = _ScriptedTransport(frames)
    return client


def test_client_backoff_honors_hint_with_decorrelated_jitter(monkeypatch):
    """First retry sleeps exactly the server hint; later retries jitter
    in [hint, 3 x previous] capped at 2 x MAX_RETRY_AFTER, and every
    sleep lands in local_stats."""
    sleeps = []
    monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
    hint = 0.2
    frames = [encode_busy(hint)] * 4 + [encode_goaway("drained")]
    client = _scripted_client(frames)
    with pytest.raises(TransportError, match="drained"):
        client.request([0])

    assert len(sleeps) == 4
    assert sleeps[0] == pytest.approx(hint)  # uniform(hint, hint) == hint
    prev = sleeps[0]
    for s in sleeps[1:]:
        assert hint <= s <= min(2 * MAX_RETRY_AFTER, 3 * prev) + 1e-9
        prev = s
    stats = client.local_stats()
    assert stats["issued"] == 5  # original + 4 retries
    assert stats["deferred"] == stats["busy_retries"] == 4
    assert stats["rejected"] == 1
    assert stats["admitted"] == 0
    assert stats["retry_sleep_seconds"] == pytest.approx(sum(sleeps), abs=1e-5)


@pytest.mark.parametrize(
    "reply",
    [b"", b"GWB1\x00", b"GWO1", b"GWG1\xff", b"GWD1\x00\x00\x00\x00\x00"],
    ids=["empty", "short-busy", "short-offer", "non-utf8-goaway", "unexpected-kind"],
)
def test_client_surfaces_malformed_replies_as_transport_errors(reply):
    """Whatever the peer answers a REQ with, the caller sees the one typed
    error — never a ``struct.error`` or ``IndexError`` out of a codec."""
    client = _scripted_client([reply])
    with pytest.raises(TransportError):
        client.request([0])


def test_client_backoff_seeded_determinism(monkeypatch):
    monkeypatch.setattr(time, "sleep", lambda s: None)
    def run(seed):
        client = _scripted_client(
            [encode_busy(0.1)] * 6 + [encode_goaway("bye")], seed=seed
        )
        with pytest.raises(TransportError):
            client.request([0])
        return client.retry_sleep_seconds

    assert run(3) == run(3)
    assert run(3) != run(4)
