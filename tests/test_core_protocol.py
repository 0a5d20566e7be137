"""Integration tests: the functional 2PC protocol against plaintext truth."""

import numpy as np
import pytest

from repro.core.protocol import HybridProtocol, lower_network
from repro.he.params import toy_params
from repro.nn.datasets import tiny_dataset
from repro.nn.layers import Conv2d, Linear, ReLU
from repro.nn.models import tiny_cnn, tiny_mlp
from repro.nn.network import Network
from repro.nn.shapes import TensorShape

PARAMS = toy_params(n=256)
P = PARAMS.t


def make_mlp(seed=0, hidden=8, size=4, classes=3):
    net = tiny_mlp(tiny_dataset(size=size, classes=classes), hidden=hidden)
    net.randomize_weights(P, np.random.default_rng(seed))
    return net


def run_protocol(net, x, garbler, seed=11):
    proto = HybridProtocol(net, PARAMS, garbler=garbler, seed=seed)
    proto.run_offline()
    return proto, proto.run_online(x)


class TestLowering:
    def test_mlp_steps(self):
        lowered = lower_network(make_mlp(), P)
        assert [k for k, _ in lowered.steps] == ["linear", "relu", "linear"]
        assert lowered.input_size == 16
        assert lowered.output_size == 3

    def test_cnn_steps(self):
        net = tiny_cnn(tiny_dataset(size=4), width=2)
        net.randomize_weights(P, np.random.default_rng(0))
        lowered = lower_network(net, P)
        assert [k for k, _ in lowered.steps] == [
            "linear", "relu", "linear", "relu", "linear",
        ]

    def test_relu_without_linear_rejected(self):
        net = Network("bad", TensorShape(4), [ReLU()])
        with pytest.raises(ValueError):
            lower_network(net, P)

    def test_trailing_relu_rejected(self):
        net = Network(
            "bad", TensorShape(4), [Linear(4, 2), ReLU()]
        )
        with pytest.raises(ValueError):
            lower_network(net, P)

    def test_strided_conv_rejected(self):
        net = Network(
            "bad", TensorShape(1, 4, 4), [Conv2d(1, 1, 3, stride=2), ReLU(), Conv2d(1, 1, 3)]
        )
        with pytest.raises(ValueError):
            lower_network(net, P)

    def test_lowered_matrix_matches_forward_mod(self):
        net = make_mlp(seed=3)
        lowered = lower_network(net, P)
        x = list(range(16))
        expected = net.forward_mod(
            np.array(x, dtype=object).reshape(1, 4, 4), P
        ).tolist()
        # plaintext_reference path through the lowered program
        proto = HybridProtocol(net, PARAMS, seed=1)
        assert proto.plaintext_reference(x) == expected


class TestServerGarbler:
    def test_mlp_exact(self):
        net = make_mlp(seed=5)
        rng = np.random.default_rng(5)
        x = rng.integers(0, P, size=16).tolist()
        proto, got = run_protocol(net, x, "server")
        assert got == proto.plaintext_reference(x)

    def test_cnn_exact(self):
        net = tiny_cnn(tiny_dataset(size=4), width=2)
        net.randomize_weights(P, np.random.default_rng(6))
        x = np.random.default_rng(7).integers(0, P, size=16).tolist()
        proto, got = run_protocol(net, x, "server")
        ref = net.forward_mod(np.array(x, dtype=object).reshape(1, 4, 4), P).tolist()
        assert got == ref

    def test_multiple_inputs_reuse_offline(self):
        """One offline phase serves exactly one inference (fresh each time)."""
        net = make_mlp(seed=8)
        rng = np.random.default_rng(8)
        for trial in range(2):
            x = rng.integers(0, P, size=16).tolist()
            proto, got = run_protocol(net, x, "server", seed=20 + trial)
            assert got == proto.plaintext_reference(x)

    def test_online_before_offline_rejected(self):
        proto = HybridProtocol(make_mlp(), PARAMS, seed=1)
        with pytest.raises(RuntimeError):
            proto.run_online([0] * 16)

    def test_wrong_input_size_rejected(self):
        proto = HybridProtocol(make_mlp(), PARAMS, seed=1)
        proto.run_offline()
        with pytest.raises(ValueError):
            proto.run_online([0] * 5)

    def test_offline_download_dominates(self):
        """GC transfer makes Server-Garbler offline download-heavy."""
        net = make_mlp(seed=9)
        proto, _ = run_protocol(net, [1] * 16, "server")
        summary = proto.channel.summary()
        assert summary["offline_down"] > summary["offline_up"] * 0.5
        assert summary["offline_down"] > summary["online_down"]

    def test_counters(self):
        net = make_mlp(seed=10)
        proto, _ = run_protocol(net, [2] * 16, "server")
        assert proto.counters.gc_circuits_garbled == 8  # hidden width
        assert proto.counters.gc_circuits_evaluated == 8
        assert proto.counters.he_encryptions == 2  # two linear layers
        assert proto.counters.ots_performed == 8 * 2 * proto.bits


class TestClientGarbler:
    def test_mlp_exact(self):
        net = make_mlp(seed=12)
        rng = np.random.default_rng(12)
        x = rng.integers(0, P, size=16).tolist()
        proto, got = run_protocol(net, x, "client")
        assert got == proto.plaintext_reference(x)

    def test_cnn_exact(self):
        net = tiny_cnn(tiny_dataset(size=4), width=2)
        net.randomize_weights(P, np.random.default_rng(13))
        x = np.random.default_rng(14).integers(0, P, size=16).tolist()
        proto, got = run_protocol(net, x, "client")
        ref = net.forward_mod(np.array(x, dtype=object).reshape(1, 4, 4), P).tolist()
        assert got == ref

    def test_offline_upload_dominates(self):
        """Client garbles and uploads circuits: CG offline is upload-heavy."""
        net = make_mlp(seed=15)
        proto, _ = run_protocol(net, [3] * 16, "client")
        summary = proto.channel.summary()
        assert summary["offline_up"] > summary["offline_down"]

    def test_online_ot_increases_online_upload(self):
        """CG moves OT online: online upload exceeds Server-Garbler's."""
        net = make_mlp(seed=16)
        proto_sg, _ = run_protocol(net, [4] * 16, "server", seed=30)
        proto_cg, _ = run_protocol(net, [4] * 16, "client", seed=30)
        assert (
            proto_cg.channel.summary()["online_up"]
            > proto_sg.channel.summary()["online_up"]
        )

    def test_both_roles_agree(self):
        net = make_mlp(seed=17)
        rng = np.random.default_rng(17)
        x = rng.integers(0, P, size=16).tolist()
        _, sg = run_protocol(net, x, "server", seed=40)
        _, cg = run_protocol(net, x, "client", seed=41)
        assert sg == cg

    def test_invalid_role_rejected(self):
        with pytest.raises(ValueError):
            HybridProtocol(make_mlp(), PARAMS, garbler="nobody")


class TestPackingValidation:
    def test_width_not_dividing_row_rejected(self):
        net = Network(
            "bad", TensorShape(5), [Linear(5, 2, weights=np.zeros((2, 5)))]
        )
        with pytest.raises(ValueError):
            HybridProtocol(net, PARAMS, seed=1)

    def test_too_wide_layer_rejected(self):
        n = PARAMS.row_size * 2
        net = Network(
            "bad", TensorShape(4), [Linear(4, n, weights=np.zeros((n, 4)))]
        )
        with pytest.raises(ValueError):
            HybridProtocol(net, PARAMS, seed=1)


class TestRelUCorrectnessInsideProtocol:
    def test_negative_activations_clamp(self):
        """Weights chosen so pre-activations are negative field values."""
        net = tiny_mlp(tiny_dataset(size=4, classes=2), hidden=4)
        rng = np.random.default_rng(18)
        net.randomize_weights(P, rng)
        # Force first layer output strongly negative: W = -1 everywhere.
        first = net.layers[1]
        first.weights = np.full((4, 16), P - 1, dtype=object)  # -1 mod p
        x = [1] * 16  # y = -16 mod p -> negative -> ReLU -> 0
        proto, got = run_protocol(net, x, "server", seed=50)
        assert got == proto.plaintext_reference(x)
        # With all-zero ReLU output, logits are exactly 0.
        assert got == [0, 0]


class TestSharedReluCircuit:
    def test_every_session_reads_one_circuit_per_spec(self):
        """Both roles of every protocol read the process-wide ReLU circuit
        of their spec instead of each building its own."""
        net = make_mlp()
        for garbler in ("server", "client"):
            one = HybridProtocol(net, PARAMS, garbler=garbler, seed=1)
            two = HybridProtocol(net, PARAMS, garbler=garbler, seed=2)
            circuit = one.client.relu_circuit()
            assert circuit is one.server.relu_circuit()
            assert circuit is two.client.relu_circuit() is two.server.relu_circuit()
