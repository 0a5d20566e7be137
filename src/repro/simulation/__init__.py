"""Discrete-event simulation substrate (SimPy work-alike) and workloads."""

from repro.simulation.engine import (
    Container,
    Environment,
    Event,
    Process,
    Resource,
    Store,
    Timeout,
)
from repro.workload.generators import (
    InferenceRequest,
    PoissonWorkload,
    deterministic_arrivals,
)

__all__ = [
    "Container",
    "Environment",
    "Event",
    "InferenceRequest",
    "PoissonWorkload",
    "Process",
    "Resource",
    "Store",
    "Timeout",
    "deterministic_arrivals",
]
