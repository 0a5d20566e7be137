"""The label-OT extension lives as long as the connection.

A keep-alive connection runs its 128 base OTs on its first label OT and
every later request continues the same IKNP stream, so a served request
pays only the extension. Checked end to end through the gateway under
both garblers — Client-Garbler on store hits (its OT runs online), and
Server-Garbler on misses, because a Server-Garbler hit runs no OT at all
(the labels are in the stored entry) — and on a keep-alive session pair
whose request dies after its label OT.
"""

import threading

import numpy as np
import pytest

from repro import tiny_dataset, tiny_mlp
from repro.core.lowering import lower_network, plaintext_reference
from repro.core.protocol import DONE, HybridProtocol
from repro.he.params import fast_params
from repro.ot import extension
from repro.runtime import GatewayClient, PrecomputePool, PrecomputeStore, ServingGateway

PARAMS = fast_params(n=256)
REQUESTS = 3  # per connection
SETUP = ("setup_up", "setup_down")
ONLINE = ("online_up", "online_down")
OFFLINE = ("offline_up", "offline_down")


def _network():
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    return network


def _input(*index):
    rng = np.random.default_rng([9, *index])
    return rng.integers(0, PARAMS.t, size=16).tolist()


@pytest.fixture
def base_ot_runs(monkeypatch):
    """One entry per ``base_seed_ot`` call anywhere in this process."""
    runs = []
    original = extension.base_seed_ot

    def counted(rng):
        runs.append(threading.current_thread().name)
        return original(rng)

    monkeypatch.setattr(extension, "base_seed_ot", counted)
    return runs


def _reference_books(network, garbler):
    """Channel summary of one in-process inference of the served model."""
    protocol = HybridProtocol(network, PARAMS, garbler=garbler, seed=1)
    try:
        protocol.run_offline()
        x = _input(99)
        assert protocol.run_online(x) == protocol.plaintext_reference(x)
        return protocol.channel.summary()
    finally:
        protocol.close()


def _total(books, keys):
    return sum(books[k] for k in keys)


@pytest.mark.parametrize("garbler", ["client", "server"])
def test_each_connection_runs_its_base_ots_once(tmp_path, base_ot_runs, garbler):
    network = _network()
    oracle = lower_network(network, PARAMS.t)
    hits = garbler == "client"
    reference = _reference_books(network, garbler)
    assert _total(reference, SETUP) == extension.iknp_transcript(0).base_ot_bytes
    base_ot_runs.clear()
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 1, PrecomputeStore(tmp_path), pool=pool,
            garbler=garbler, prefill=2 * REQUESTS if hits else 0, refill=False,
            base_seed=7,
        )
        gateway.start()
        errors = []

        def serve():
            try:
                gateway.serve(2 * REQUESTS, timeout=120.0)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            for connection in range(2):
                with GatewayClient(
                    gateway.host, gateway.port, network, PARAMS, garbler=garbler,
                    client_id=gateway.client_id(0), seed=connection,
                ) as client:
                    books = client.session.channel
                    for j in range(REQUESTS):
                        before = books.summary()
                        x = _input(connection, j)
                        assert client.request(x) == plaintext_reference(oracle, x)
                        after = books.summary()

                        def moved(keys):
                            return _total(after, keys) - _total(before, keys)

                        # Each request moves the reference's online bytes
                        # (and, on a miss, its offline bytes); only the
                        # connection's first request books the base OTs.
                        assert moved(ONLINE) == _total(reference, ONLINE)
                        if not hits:
                            assert moved(OFFLINE) == _total(reference, OFFLINE)
                        assert moved(SETUP) == (
                            _total(reference, SETUP) if j == 0 else 0
                        )
                    assert len(base_ot_runs) == connection + 1
                    assert [books.summary()[k] for k in SETUP] == [
                        reference[k] for k in SETUP
                    ]
                    if hits:  # the client holds the labels: its stream read on
                        per_request = 8 * PARAMS.t.bit_length()
                        assert client.session.iknp_stream.next_index == (
                            REQUESTS * per_request
                        )
            server.join(timeout=120.0)
        finally:
            gateway.stop()
    assert not errors and not server.is_alive()
    report = gateway.report()
    assert report.requests_admitted == 2 * REQUESTS
    assert report.hit_rate == (1.0 if hits else 0.0)
    # One base phase per connection, and on the label holder's side.
    holder = "MainThread" if hits else server.name
    assert base_ot_runs == [holder, holder]


def _phase_with_its_last_frame_cut(proto, start):
    """Run a phase until the server finishes it, then truncate the last
    frame it sent before the client reads it: the client's phase fails
    after the phase's label OT has run."""
    start()
    while proto.server.step() != DONE:
        proto.client.step()
    inbox = proto.client.transport._inbox
    inbox[-1] = inbox[-1][:5]
    with pytest.raises(ValueError):
        while proto.client.step() != DONE:
            pass  # pragma: no cover - the cut frame raises first


@pytest.mark.parametrize("garbler", ["client", "server"])
def test_a_failed_phase_does_not_rewind_the_stream(base_ot_runs, garbler):
    """The request whose phase dies after its label OT keeps the rows it
    used: the next request on the connection reads on past them, under
    its own tweaks, and still gets the oracle's logits."""
    network = _network()
    proto = HybridProtocol(network, PARAMS, garbler=garbler, seed=3)
    holder = proto.client if garbler == "client" else proto.server
    x = _input(0)
    proto.run_offline()
    assert proto.run_online(x) == proto.plaintext_reference(x)
    per_request = holder.iknp_stream.next_index
    assert per_request > 0 and len(base_ot_runs) == 1

    proto.reset_for_request()
    if garbler == "client":  # the label OT runs online
        proto.run_offline()
        _phase_with_its_last_frame_cut(proto, lambda: proto.start_online(x))
    else:  # it runs offline, and its reply is the phase's last frame
        _phase_with_its_last_frame_cut(proto, proto.start_offline)
    assert holder.iknp_stream.next_index == 2 * per_request

    proto.reset_for_request()
    y = _input(1)
    proto.run_offline()
    assert proto.run_online(y) == proto.plaintext_reference(y)
    assert holder.iknp_stream.next_index == 3 * per_request
    assert len(base_ot_runs) == 1
    assert [proto.channel.summary()[k] for k in SETUP] == [
        proto.server.channel.summary()[k] for k in SETUP
    ]
