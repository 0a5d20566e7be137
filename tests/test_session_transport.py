"""Session/transport redesign: transcript parity, framing, deployments.

The acceptance gate of the role-separated API: ``ClientSession`` +
``ServerSession`` over an ``InMemoryTransport`` must reproduce the
pre-redesign monolith's per-phase channel transcript (bytes AND message
counts, both directions, both phases), its logits, and its operation
counters — for both garbler roles, at toy and DELPHI-scale parameters.
The monolith is frozen in :mod:`repro.core._monolith` precisely so this
suite keeps enforcing that gate. On top of parity: transport framing
(including wire-version rejection), independent step-interleaving of many
sessions, and real socket deployments (loopback single-process and a
genuine two-process run).
"""

import multiprocessing
import struct

import numpy as np
import pytest

from repro.backend import backend_for
from repro.core._monolith import MonolithHybridProtocol
from repro.core.protocol import DONE, WAITING, HybridProtocol
from repro.core.session import ClientSession, ServerSession
from repro.he.params import delphi_params, toy_params
from repro.network.transport import (
    InMemoryTransport,
    SocketListener,
    SocketTransport,
    TransportClosed,
    TransportError,
)
from repro.nn.datasets import tiny_dataset
from repro.nn.layers import Linear, ReLU
from repro.nn.models import tiny_mlp
from repro.nn.network import Network
from repro.nn.shapes import TensorShape

PARAMS = toy_params(n=256)
P = PARAMS.t


def make_mlp(widths, seed):
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(widths) - 1):
        weights = rng.integers(0, P, size=(widths[i + 1], widths[i])).astype(object)
        layers.append(Linear(widths[i], widths[i + 1], weights=weights, name=f"fc{i}"))
        if i < len(widths) - 2:
            layers.append(ReLU(name=f"relu{i}"))
    return Network("mlp", TensorShape(widths[0]), layers)


def phase_transcript(channel):
    """(messages, bytes) per phase/direction — the full accounting state."""
    return {
        (phase, direction): (stats.messages, stats.bytes)
        for phase, directions in channel.phase_stats.items()
        for direction, stats in directions.items()
    }


def assert_parity(net, params, garbler, seed, x):
    mono = MonolithHybridProtocol(net, params, garbler=garbler, seed=seed)
    mono.run_offline()
    logits_mono = mono.run_online(x)

    proto = HybridProtocol(net, params, garbler=garbler, seed=seed)
    proto.run_offline()
    logits = proto.run_online(x)

    assert logits == logits_mono
    assert logits == proto.plaintext_reference(x)
    assert phase_transcript(proto.channel) == phase_transcript(mono.channel)
    # The server session keeps its own books; they must agree byte for byte.
    assert phase_transcript(proto.server.channel) == phase_transcript(mono.channel)
    assert proto.counters == mono.counters
    return proto


class TestMonolithParity:
    """Sessions over InMemoryTransport == the PR-4 monolith, per phase."""

    @pytest.mark.parametrize("garbler", ["server", "client"])
    def test_tiny_mlp_both_roles(self, garbler):
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=8)
        net.randomize_weights(P, np.random.default_rng(0))
        x = np.random.default_rng(1).integers(0, P, size=16).tolist()
        assert_parity(net, PARAMS, garbler, seed=11, x=x)

    @pytest.mark.parametrize("trial", range(4))
    def test_randomized_architectures(self, trial):
        """Random widths/depths/inputs/roles: parity is not shape-specific."""
        rng = np.random.default_rng(100 + trial)
        depth = int(rng.integers(2, 4))
        widths = [16] + [int(rng.choice([2, 4, 8])) for _ in range(depth - 1)]
        widths.append(int(rng.choice([2, 4])))
        garbler = ["server", "client"][trial % 2]
        net = make_mlp(widths, seed=200 + trial)
        x = rng.integers(0, P, size=16).tolist()
        assert_parity(net, PARAMS, garbler, seed=300 + trial, x=x)

    def test_truncating_protocol(self):
        net = make_mlp([16, 8, 3], seed=7)
        x = np.random.default_rng(8).integers(0, P, size=16).tolist()
        mono = MonolithHybridProtocol(
            net, PARAMS, garbler="server", seed=5, truncate_bits=3
        )
        mono.run_offline()
        proto = HybridProtocol(net, PARAMS, garbler="server", seed=5, truncate_bits=3)
        proto.run_offline()
        assert proto.run_online(x) == mono.run_online(x)
        assert phase_transcript(proto.channel) == phase_transcript(mono.channel)

    def test_delphi_scale_params(self):
        """Parity holds at the paper's 41-bit field / n=2048 ring."""
        params = delphi_params()
        if backend_for(params.t, prefer=params.backend).name != "numpy":
            pytest.skip("delphi-scale parity needs the vectorized backend")
        net = make_mlp([4, 2, 2], seed=3)
        x = [1, 2, 3, 4]
        assert_parity(net, params, "client", seed=17, x=x)


class TestSessionStepping:
    """Sessions are independent state machines a driver can interleave."""

    def _armed_protocols(self, count=2):
        protos = []
        for i in range(count):
            net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
            net.randomize_weights(P, np.random.default_rng(i))
            protos.append(HybridProtocol(net, PARAMS, garbler="client", seed=i))
        return protos

    def test_interleaved_offline_and_online(self):
        """Round-robin stepping N protocols one message at a time works."""
        protos = self._armed_protocols(2)
        for proto in protos:
            proto.start_offline()
        pending = list(protos)
        while pending:
            pending = [p for p in pending if not p.step()]
        xs = [
            np.random.default_rng(10 + i).integers(0, P, size=16).tolist()
            for i in range(len(protos))
        ]
        for proto, x in zip(protos, xs):
            proto.start_online(x)
        pending = list(protos)
        while pending:
            pending = [p for p in pending if not p.step()]
        for proto, x in zip(protos, xs):
            assert proto.client.finish() == proto.plaintext_reference(x)

    def test_step_reports_waiting_until_peer_progresses(self):
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
        net.randomize_weights(P, np.random.default_rng(0))
        proto = HybridProtocol(net, PARAMS, garbler="client", seed=1)
        proto.client.start_offline()
        proto.server.start_offline()
        # The server's first act is to wait for the public key.
        assert proto.server.step() == WAITING
        # The client sends keys and the first ciphertext, then waits.
        assert proto.client.step() == WAITING
        # Now the server can consume them and reply.
        assert proto.server.step() == WAITING
        assert proto.client.transport.pending

    def test_online_before_offline_rejected(self):
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
        net.randomize_weights(P, np.random.default_rng(0))
        proto = HybridProtocol(net, PARAMS, garbler="client", seed=1)
        with pytest.raises(RuntimeError):
            proto.client.start_online([0] * 16)
        with pytest.raises(RuntimeError):
            proto.server.start_online()

    def test_client_lowering_is_shape_only(self):
        """No weight matrix ever materializes on the client side, and a
        client built from the bare (unweighted) architecture agrees with
        one built from the server's weighted model."""
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=8)
        net.randomize_weights(P, np.random.default_rng(0))
        proto = HybridProtocol(net, PARAMS, garbler="client", seed=2)
        assert all(lin.matrix is None for lin in proto.client.lowered.linears)
        assert all(lin.matrix is not None for lin in proto.server.lowered.linears)
        bare = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=8)  # no weights
        session = ClientSession(bare, params=PARAMS, garbler="client", seed=2)
        assert [
            (lin.n_in, lin.n_out) for lin in session.lowered.linears
        ] == [(lin.n_in, lin.n_out) for lin in proto.client.lowered.linears]

    def test_double_start_rejected(self):
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
        net.randomize_weights(P, np.random.default_rng(0))
        proto = HybridProtocol(net, PARAMS, garbler="client", seed=1)
        proto.client.start_offline()
        with pytest.raises(RuntimeError, match="already in progress"):
            proto.client.start_offline()


class TestInMemoryTransport:
    def test_fifo_pair(self):
        a, b = InMemoryTransport.pair()
        a.send(b"one")
        a.send(b"two")
        assert b.recv(wait=False) == b"one"
        assert b.recv(wait=False) == b"two"
        assert b.recv(wait=False) is None
        b.send(b"reply")
        assert a.pending
        assert a.recv(wait=False) == b"reply"

    def test_blocking_recv_raises(self):
        a, _ = InMemoryTransport.pair()
        with pytest.raises(TransportError, match="cannot block"):
            a.recv(wait=True)

    def test_closed_endpoint_rejects(self):
        a, b = InMemoryTransport.pair()
        a.close()
        with pytest.raises(TransportClosed):
            a.send(b"x")


class TestSocketTransport:
    def test_loopback_roundtrip_and_partial_frames(self):
        client, server = SocketTransport.loopback_pair()
        try:
            payloads = [b"a" * 3, b"b" * 70000, b"c"]
            for p in payloads:
                client.send(p)
            got = []
            while len(got) < len(payloads):
                frame = server.recv(wait=False)
                if frame is not None:
                    got.append(frame)
            assert got == payloads
            server.send(b"pong")
            assert client.recv(wait=True) == b"pong"
        finally:
            client.close()
            server.close()

    def test_send_burst_larger_than_kernel_buffers_never_blocks(self):
        """A one-sided frame burst parks in the userspace outbox instead
        of wedging sendall against a peer on the same thread."""
        client, server = SocketTransport.loopback_pair()
        try:
            payloads = [bytes([i]) * (1 << 20) for i in range(8)]  # 8 MB
            for p in payloads:  # must return promptly, not deadlock
                client.send(p)
            got = []
            while len(got) < len(payloads):
                frame = server.recv(wait=False)
                if frame is None:
                    assert client.pending or server.pending  # in flight
                    continue
                got.append(frame)
            assert got == payloads
        finally:
            client.close()
            server.close()

    def test_peer_close_raises(self):
        client, server = SocketTransport.loopback_pair()
        client.close()
        with pytest.raises(TransportClosed):
            server.recv(wait=True)
        server.close()

    def test_loopback_protocol_end_to_end(self):
        """Full offline+online over real kernel sockets, single process."""
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=8)
        net.randomize_weights(P, np.random.default_rng(0))
        x = np.random.default_rng(4).integers(0, P, size=16).tolist()
        memory = HybridProtocol(net, PARAMS, garbler="client", seed=9)
        memory.run_offline()
        logits_memory = memory.run_online(x)

        proto = HybridProtocol(net, PARAMS, garbler="client", seed=9, transport="socket")
        try:
            proto.run_offline()
            logits = proto.run_online(x)
        finally:
            proto.close()
        assert logits == logits_memory
        assert phase_transcript(proto.channel) == phase_transcript(memory.channel)


def _two_process_server(port_queue, garbler):
    """Child process: serve exactly one inference over TCP."""
    params = toy_params(n=256)
    net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
    net.randomize_weights(params.t, np.random.default_rng(0))
    with SocketListener() as listener:
        port_queue.put(listener.port)
        transport = listener.accept(timeout=60.0)
    session = ServerSession(net, params=params, garbler=garbler, seed=2, transport=transport)
    session.run_offline()
    session.run_online()
    session.close()


@pytest.mark.parametrize("garbler", ["client"])
def test_two_process_socket_inference(garbler):
    """Client and server in separate OS processes, wire bytes only."""
    net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
    net.randomize_weights(P, np.random.default_rng(0))
    x = np.random.default_rng(5).integers(0, P, size=16).tolist()

    queue = multiprocessing.Queue()
    server = multiprocessing.Process(
        target=_two_process_server, args=(queue, garbler)
    )
    server.start()
    try:
        port = queue.get(timeout=30)
        transport = SocketTransport.connect("127.0.0.1", port)
        session = ClientSession(
            net, params=PARAMS, garbler=garbler, seed=1, transport=transport
        )
        session.run_offline()
        logits = session.run_online(x)
        session.close()
    finally:
        server.join(timeout=60)
        if server.is_alive():  # pragma: no cover - cleanup on failure only
            server.terminate()
            server.join()
    assert server.exitcode == 0
    from repro.core.lowering import lower_network, plaintext_reference

    assert logits == plaintext_reference(lower_network(net, P), x)


class TestWireVersioning:
    """The transport framing contract: magic + version precede everything."""

    def test_version_mismatch_rejected_with_clear_error(self):
        from repro.network import serialize

        blob = serialize.serialize_field_vector([1, 2, 3], P)
        bumped = blob[:2] + bytes([serialize.WIRE_VERSION + 1]) + blob[3:]
        with pytest.raises(ValueError, match="version"):
            serialize.deserialize_field_vector(bumped)

    def test_bad_magic_rejected(self):
        from repro.network import serialize

        blob = serialize.serialize_field_vector([1], P)
        with pytest.raises(ValueError, match="magic"):
            serialize.deserialize_field_vector(b"XX" + blob[2:])

    def test_wrong_format_code_rejected(self):
        from repro.network import serialize

        blob = serialize.serialize_labels(np.zeros((1, 16), dtype=np.uint8))
        with pytest.raises(ValueError, match="format"):
            serialize.deserialize_field_vector(blob)

    def test_session_rejects_mismatched_peer_version(self):
        """A version-skewed first message fails loudly, not mid-protocol."""
        from repro.network import serialize

        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
        net.randomize_weights(P, np.random.default_rng(0))
        proto = HybridProtocol(net, PARAMS, garbler="client", seed=1)
        proto.client.start_offline()
        proto.server.start_offline()
        assert proto.client.step() == WAITING  # pk + gk + first ct in flight
        frame = proto.server.transport.recv(wait=False)  # the public key
        skewed = frame[:2] + bytes([serialize.WIRE_VERSION + 9]) + frame[3:]
        # Re-inject the skewed frame at the front of the server's inbox.
        proto.server.transport._inbox.appendleft(skewed)
        with pytest.raises(ValueError, match="version"):
            proto.server.step()
        # A failed phase must never look finished: the generator is dead,
        # further steps are no-ops, and offline stays incomplete.
        assert proto.server.step() == DONE
        assert not proto.server.offline_done
        with pytest.raises(RuntimeError, match="offline phase must run"):
            proto.server.start_online()


class TestSessionLifecycle:
    """Connection/request split: sessions are explicit state machines that
    can be recycled for the next request with ``reset_for_request()``."""

    def _proto(self, seed=21):
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
        net.randomize_weights(P, np.random.default_rng(0))
        return HybridProtocol(net, PARAMS, garbler="client", seed=seed)

    def test_lifecycle_progression(self):
        from repro.core.session import (
            LIFE_COMPLETE,
            LIFE_NEW,
            LIFE_ONLINE,
            LIFE_READY,
        )

        proto = self._proto()
        assert proto.client.lifecycle == LIFE_NEW
        assert proto.server.lifecycle == LIFE_NEW
        proto.run_offline()
        assert proto.client.lifecycle == LIFE_READY
        assert proto.server.lifecycle == LIFE_READY
        proto.start_online([0] * 16)
        assert proto.client.lifecycle == LIFE_ONLINE
        assert proto.server.lifecycle == LIFE_ONLINE
        while not proto.step():
            pass
        logits = proto.client.finish()
        assert proto.client.lifecycle == LIFE_COMPLETE
        assert proto.server.lifecycle == LIFE_COMPLETE
        assert logits == proto.plaintext_reference([0] * 16)

    def test_reset_recycles_sessions_for_next_request(self):
        """One session pair, N requests: every request's logits match the
        plaintext reference and channel accounting keeps accumulating."""
        from repro.core.session import LIFE_NEW

        proto = self._proto()
        rng = np.random.default_rng(33)
        proto.run_offline()
        first_x = rng.integers(0, P, size=16).tolist()
        assert proto.run_online(first_x) == proto.plaintext_reference(first_x)
        bytes_after_first = proto.channel.total_bytes

        proto.reset_for_request()
        assert proto.client.lifecycle == LIFE_NEW
        assert proto.server.lifecycle == LIFE_NEW
        second_x = rng.integers(0, P, size=16).tolist()
        proto.run_offline()
        assert proto.run_online(second_x) == proto.plaintext_reference(second_x)
        # Same transport, same channel: the books span both requests.
        assert proto.channel.total_bytes > bytes_after_first

    def test_counters_accumulate_across_recycled_requests(self):
        """Counters are connection-scoped: a second request through
        ``reset_for_request()`` doubles every field (the HE rotation and
        plain-mult counts used to be assigned, so they stood still)."""
        from dataclasses import asdict

        proto = self._proto()
        x = [1] * 16
        proto.run_offline()
        proto.run_online(x)
        first = asdict(proto.counters)
        assert all(first.values())
        proto.reset_for_request()
        proto.run_offline()
        proto.run_online(x)
        assert asdict(proto.counters) == {k: 2 * v for k, v in first.items()}

    def test_repeat_offline_without_reset_rejected(self):
        proto = self._proto()
        proto.run_offline()
        with pytest.raises(RuntimeError, match="reset_for_request"):
            proto.client.start_offline()

    def test_online_before_offline_rejected(self):
        proto = self._proto()
        with pytest.raises(RuntimeError, match="offline phase must run"):
            proto.client.start_online([0] * 16)

    def test_reset_mid_phase_rejected(self):
        proto = self._proto()
        proto.client.start_offline()
        proto.server.start_offline()
        proto.client.step()
        with pytest.raises(RuntimeError, match="phase is in progress"):
            proto.client.reset_for_request()

    def test_online_rerun_from_complete_without_full_reset(self):
        """COMPLETE -> start_online is legal: a stored precompute can be
        reloaded into the same session objects (the gateway's hit path
        after a recycle)."""
        proto = self._proto()
        proto.run_offline()
        x = [1] * 16
        logits = proto.run_online(x)
        assert logits == proto.plaintext_reference(x)


class TestLabelFramesCheckedWhereReceived:
    """Every leg that receives wire labels checks the frame against the
    circuit when it arrives: one label short is a ``ValueError`` in that
    phase, not a ``KeyError`` inside ``evaluate_batch`` a phase later
    (or, for the garbler's decode, a silently shorter word)."""

    # (garbler, phase the frame travels in, who sends it, its format)
    LEGS = {
        "direct-labels-offline": ("client", "offline", "client", "label_lists"),
        "ot-reply-offline": ("server", "offline", "server", "label_lists"),
        "ot-reply-online": ("client", "online", "client", "labels"),
        "direct-labels-online": ("server", "online", "server", "label_lists"),
        "output-labels-online": ("server", "online", "client", "label_lists"),
    }

    @staticmethod
    def _drop_one_label(frame):
        """The frame a sender one label short would have written: the
        last label gone and the count word that covers it (the batch's in
        a flat frame, the last list's in a label-lists frame) one less."""
        from repro.network import serialize

        cut = frame[:-16]
        if serialize.frame_format_name(frame) == "labels":
            (count,) = struct.unpack_from("<I", frame, 4)
            return cut[:4] + struct.pack("<I", count - 1) + cut[8:]
        (count,) = struct.unpack_from("<I", frame, 4)
        (width,) = struct.unpack_from("<I", frame, 8)
        last = 8 + (count - 1) * (4 + 16 * width)
        return cut[:last] + struct.pack("<I", width - 1) + cut[last + 4 :]

    @pytest.mark.parametrize("leg", LEGS)
    def test_one_label_short_is_a_value_error_in_the_receiving_phase(self, leg):
        from repro.network.serialize import frame_format_name

        garbler, phase, sender, fmt = self.LEGS[leg]
        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
        net.randomize_weights(P, np.random.default_rng(0))
        proto = HybridProtocol(net, PARAMS, garbler=garbler, seed=5)
        armed = []  # the shim fires once, on the first matching frame
        transport = getattr(proto, sender).transport
        send = transport.send

        def lossy_send(frame):
            if armed and frame_format_name(frame) == fmt:
                armed.clear()
                frame = self._drop_one_label(frame)
            send(frame)

        transport.send = lossy_send
        if phase == "offline":
            armed.append(True)
            with pytest.raises(ValueError, match="label frame does not match"):
                proto.run_offline()
            assert not proto._offline_done
        else:
            proto.run_offline()
            armed.append(True)
            with pytest.raises(ValueError, match="label frame does not match"):
                proto.run_online([1] * 16)
        assert not armed

    @pytest.mark.parametrize("garbler", ["server", "client"])
    def test_permuted_gate_indices_fail_in_the_offline_phase(self, garbler):
        """A circuit batch whose first two per-gate index words are swapped
        has every length right and used to decode cleanly; the evaluator
        now refuses it when it arrives, before anything is stored."""
        from repro.network.serialize import frame_format_name

        net = tiny_mlp(tiny_dataset(size=4, classes=3), hidden=4)
        net.randomize_weights(P, np.random.default_rng(0))
        proto = HybridProtocol(net, PARAMS, garbler=garbler, seed=5)
        transport = getattr(proto, garbler).transport
        send = transport.send
        swapped = []

        def hostile_send(frame):
            if frame_format_name(frame) == "circuit_batch":
                first = 8 + 4 + 12  # batch header, length word, circuit header
                second = first + 36  # one gate: index word + two halves
                frame = (
                    frame[:first]
                    + frame[second : second + 4]
                    + frame[first + 4 : second]
                    + frame[first : first + 4]
                    + frame[second + 4 :]
                )
                swapped.append(True)
            send(frame)

        transport.send = hostile_send
        with pytest.raises(ValueError, match="malformed circuit batch"):
            proto.run_offline()
        assert swapped and not proto._offline_done
