"""A malformed control frame costs one connection, not the gateway.

Frames are literal bytes and both endpoints come from
``repro.runtime.gateway``, so this file also runs against trees that
predate ``repro.network.frames`` — where the short ``GWR1`` frame below
escapes ``serve()`` as a ``struct.error`` and takes every client down.
"""

import threading
import time

import numpy as np
import pytest

from repro import tiny_dataset, tiny_mlp
from repro.core.lowering import lower_network, plaintext_reference
from repro.he.params import fast_params
from repro.network.transport import SocketTransport, TransportClosed
from repro.runtime.gateway import GatewayClient, ServingGateway
from repro.runtime.pool import PrecomputePool
from repro.runtime.store import PrecomputeStore

PARAMS = fast_params(n=256)


@pytest.mark.parametrize(
    "bad_request",
    [
        pytest.param(b"GWR1\x00", id="truncated"),
        pytest.param(b"GWR1\x00\x00\x00\x00\x00", id="trailing-byte"),
    ],
)
def test_malformed_request_frame_drops_only_its_peer(tmp_path, bad_request):
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    x = list(range(16))
    logits, errors = [], []

    def well_behaved():
        try:
            with GatewayClient(
                "127.0.0.1", gateway.port, network, PARAMS, garbler="client",
                client_id="client0",
            ) as client:
                logits.append(client.request(x))
        except BaseException as exc:  # pragma: no cover - debug aid
            errors.append(exc)

    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 1, PrecomputeStore(tmp_path), pool=pool,
            garbler="client", expected_per_client=1,
        )
        gateway.start()
        try:
            hostile = SocketTransport.connect("127.0.0.1", gateway.port, retries=5)
            hostile.send(b"GWH2client0")
            hostile.send(bad_request)
            thread = threading.Thread(target=well_behaved, daemon=True)
            thread.start()
            gateway.serve(1, timeout=300.0)
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            # The hostile peer was hung up on, not answered.
            deadline = time.monotonic() + 30.0
            with pytest.raises(TransportClosed):
                while time.monotonic() < deadline:
                    assert hostile.recv(wait=False) is None
                    time.sleep(0.01)
            hostile.close()
        finally:
            gateway.stop()

    assert errors == []
    assert logits == [plaintext_reference(lower_network(network, PARAMS.t), x)]
    report = gateway.report()
    assert report.connections_accepted == 2  # both peers said HELLO
    assert report.requests_admitted == 1  # the bad REQ never reached admission
    assert report.dropped_sessions == 0  # no request was active on the bad peer
    assert report.hit_rate == 1.0  # its precompute went to the good client
