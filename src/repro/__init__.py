"""repro: end-to-end systems for private inference (ASPLOS'23 reproduction).

Reproduces Garimella et al., "Characterizing and Optimizing End-to-End
Systems for Private Inference" (ASPLOS 2023): a functional DELPHI-style
hybrid protocol (BFV HE + additive secret sharing + garbled circuits + OT)
built from scratch, a calibrated cost model of the paper's Atom/EPYC
testbed, and a discrete-event system simulator for streaming inference
workloads with the paper's three optimizations — the Client-Garbler
protocol, layer-parallel HE, and wireless slot allocation.

Quick start::

    from repro import HybridProtocol, tiny_mlp, tiny_dataset, toy_params

    network = tiny_mlp(tiny_dataset(size=4))
    # ... randomize weights, run_offline(), run_online(x)

See examples/quickstart.py for a complete runnable walkthrough.
"""

from repro.backend import (
    available_backends,
    backend_for,
    get_backend,
    set_backend,
    using_backend,
)
from repro.core import (
    ClientSession,
    HybridProtocol,
    OfflineParallelism,
    PiSystemSimulator,
    ServerSession,
    SpeedupKnobs,
    SystemConfig,
    estimate,
    simulate_mean_latency,
    waterfall,
)
from repro.he import BfvContext, BfvParams, delphi_params, fast_params, toy_params
from repro.nn import (
    CIFAR100,
    IMAGENET,
    TINY_IMAGENET,
    Network,
    resnet18,
    resnet32,
    tiny_cnn,
    tiny_dataset,
    tiny_mlp,
    vgg16,
)
from repro.profiling.devices import ATOM, EPYC, DeviceProfile
from repro.runtime import (
    PrecomputePool,
    PrecomputeStore,
    ServingReport,
)
from repro.profiling.model_costs import (
    NetworkCostProfile,
    Protocol,
    profile_network,
)

__version__ = "1.0.0"

__all__ = [
    "ATOM",
    "BfvContext",
    "BfvParams",
    "CIFAR100",
    "ClientSession",
    "ServerSession",
    "DeviceProfile",
    "EPYC",
    "HybridProtocol",
    "IMAGENET",
    "Network",
    "NetworkCostProfile",
    "OfflineParallelism",
    "PiSystemSimulator",
    "PrecomputePool",
    "PrecomputeStore",
    "Protocol",
    "ServingReport",
    "SpeedupKnobs",
    "SystemConfig",
    "TINY_IMAGENET",
    "available_backends",
    "backend_for",
    "delphi_params",
    "estimate",
    "fast_params",
    "get_backend",
    "profile_network",
    "set_backend",
    "using_backend",
    "resnet18",
    "resnet32",
    "simulate_mean_latency",
    "tiny_cnn",
    "tiny_dataset",
    "tiny_mlp",
    "toy_params",
    "vgg16",
    "waterfall",
]
