"""Discrete-event simulation substrate (SimPy work-alike)."""

from repro.simulation.engine import (
    Container,
    Environment,
    Event,
    Process,
    Resource,
    Store,
    Timeout,
)

__all__ = [
    "Container",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]
