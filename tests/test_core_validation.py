"""Validation: functional-protocol bytes vs the analytic communication model.

This is the repo's analogue of the paper's simulator-validation step
(0.9% relative error against DELPHI, §3): the formulas the simulator uses
must agree with what the real protocol actually transmits.
"""

import numpy as np
import pytest

from repro.core.protocol import HybridProtocol
from repro.core.validation import predict_comm, validate_protocol_comm
from repro.backend import backend_for
from repro.he.params import delphi_params, fast_params, toy_params
from repro.nn.datasets import tiny_dataset
from repro.nn.models import tiny_cnn, tiny_mlp

PARAMS = toy_params(n=256)
P = PARAMS.t
# toy and delphi switch their returns to a shorter chain, fast does not.
PARAM_SETS = {"toy": PARAMS, "fast": fast_params(256), "delphi": delphi_params()}


def make_net(kind="mlp", seed=0, modulus=P):
    ds = tiny_dataset(size=4, classes=3)
    net = tiny_mlp(ds, hidden=8) if kind == "mlp" else tiny_cnn(ds, width=2)
    net.randomize_weights(modulus, np.random.default_rng(seed))
    return net


def exact_validation(kind, name, garbler, seeds):
    """Every phase and direction the channel measured, against
    ``predict_comm``, for one inference of a ``kind`` network; ``seeds``
    are the weights', the protocol's and the input's."""
    params = PARAM_SETS[name]
    if name == "delphi" and backend_for(params.t).name != "numpy":
        pytest.skip("full-degree delphi runs need the vectorized backend")
    net_seed, seed, x_seed = seeds
    net = make_net(kind, net_seed, params.t)
    protocol = HybridProtocol(net, params, garbler=garbler, seed=seed)
    x = np.random.default_rng(x_seed).integers(0, params.t, size=16).tolist()
    return validate_protocol_comm(protocol, x)


class TestCommValidation:
    @pytest.mark.parametrize("name", PARAM_SETS)
    @pytest.mark.parametrize("garbler", ["server", "client"])
    def test_mlp_bytes_are_exact(self, garbler, name):
        validation = exact_validation("mlp", name, garbler, (1, 9, 2))
        assert validation.measured == validation.predicted

    @pytest.mark.parametrize("name", PARAM_SETS)
    @pytest.mark.parametrize("garbler", ["server", "client"])
    def test_cnn_bytes_are_exact(self, garbler, name):
        validation = exact_validation("cnn", name, garbler, (3, 10, 4))
        assert validation.measured == validation.predicted

    def test_prediction_directions(self):
        """Predicted asymmetries match the paper's qualitative claims."""
        sg = predict_comm(HybridProtocol(make_net("mlp", 5), PARAMS, garbler="server", seed=1))
        cg = predict_comm(HybridProtocol(make_net("mlp", 5), PARAMS, garbler="client", seed=1))
        assert sg["offline_down"] > sg["offline_up"] - 2 * PARAMS.ciphertext_bytes * 3
        assert cg["offline_up"] > cg["offline_down"]
        assert cg["online_up"] > sg["online_up"]

    def test_errors_keyed_by_phase(self):
        protocol = HybridProtocol(make_net("mlp", 6), PARAMS, garbler="server", seed=2)
        x = [1] * 16
        validation = validate_protocol_comm(protocol, x)
        assert set(validation.relative_errors()) == {
            "setup_up", "setup_down",
            "offline_up", "offline_down", "online_up", "online_down",
        }

    @pytest.mark.parametrize("garbler", ["server", "client"])
    def test_setup_is_the_base_ots_once_exactly(self, garbler):
        """Two ReLU layers, one IKNP stream: the setup phase is one set of
        base OTs in the OT's direction — A from the chooser, the kappa
        points from the holder — and the prediction has it to the byte."""
        from repro.ot.extension import iknp_transcript

        net = make_net("cnn", 3)
        protocol = HybridProtocol(net, PARAMS, garbler=garbler, seed=10)
        assert sum(kind == "relu" for kind, _ in protocol.lowered.steps) == 2
        validation = validate_protocol_comm(protocol, [1] * 16)
        base = iknp_transcript(0)
        chooser_up = garbler == "server"  # the client chooses its labels
        expected = (
            (base.key_bytes, base.point_bytes)
            if chooser_up
            else (base.point_bytes, base.key_bytes)
        )
        for source in (validation.measured, validation.predicted):
            assert (source["setup_up"], source["setup_down"]) == expected
