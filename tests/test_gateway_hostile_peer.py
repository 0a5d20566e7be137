"""A malformed frame costs one connection, not the gateway.

Frames are literal bytes and both endpoints come from
``repro.runtime.gateway``, so this file also runs against trees that
predate ``repro.network.frames`` — where the short ``GWR1`` frame below
escapes ``serve()`` as a ``struct.error`` and takes every client down,
as the short *protocol* frame did until the GC/OT decoders of
``repro.network.serialize`` got their truncation check.
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


def serve_one_client_beside(tmp_path, hostile_frames):
    """One gateway, one raw peer that says HELLO and then sends
    ``hostile_frames``, one well-behaved client: (its logits, the oracle's,
    the gateway's report, what the raw peer was sent before the hang-up)."""
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    x = list(range(16))
    logits, errors, answers = [], [], []

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
            for frame in hostile_frames:
                hostile.send(frame)
            thread = threading.Thread(target=well_behaved, daemon=True)
            thread.start()
            gateway.serve(1, timeout=300.0)
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            # The hostile peer was hung up on.
            deadline = time.monotonic() + 30.0
            with pytest.raises(TransportClosed):
                while time.monotonic() < deadline:
                    frame = hostile.recv(wait=False)
                    if frame is not None:
                        answers.append(bytes(frame))
                    time.sleep(0.01)
            hostile.close()
        finally:
            gateway.stop()

    assert errors == []
    oracle = plaintext_reference(lower_network(network, PARAMS.t), x)
    return logits, oracle, gateway.report(), answers


@pytest.mark.parametrize(
    "bad_request",
    [
        pytest.param(b"GWR1\x00", id="truncated"),
        pytest.param(b"GWR1\x00\x00\x00\x00\x00", id="trailing-byte"),
    ],
)
def test_malformed_request_frame_drops_only_its_peer(tmp_path, bad_request):
    logits, oracle, report, answers = serve_one_client_beside(
        tmp_path, [bad_request]
    )
    assert logits == [oracle]
    assert answers == []  # hung up on, not answered
    assert report.connections_accepted == 2  # both peers said HELLO
    assert report.requests_admitted == 1  # the bad REQ never reached admission
    assert report.dropped_sessions == 0  # no request was active on the bad peer
    assert report.hit_rate == 1.0  # its precompute went to the good client


def test_truncated_protocol_frame_drops_only_its_peer(tmp_path):
    """A well-formed REQ wins the stored precompute (a hit OFFER), then
    the masked input arrives as a 5-byte field vector — cut inside its
    count word. That request dies with its connection; the well-behaved
    client is still served, by a demand mint."""
    request0 = b"GWR1" + (0).to_bytes(4, "little")
    logits, oracle, report, answers = serve_one_client_beside(
        tmp_path, [request0, b"PI\x01\x01\x00"]
    )
    assert logits == [oracle]
    assert [a[:5] for a in answers] == [b"GWO1\x01"]  # a hit OFFER, then nothing
    assert report.connections_accepted == 2
    assert report.requests_admitted == 2  # the hostile REQ was a real one
    assert report.dropped_sessions == 1  # ... and died with a request active
