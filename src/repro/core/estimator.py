"""End-to-end protocol latency estimation (single inference).

Table 1's view of one deployment: the offline/online x GC/HE/SS/
communication decomposition of :func:`~repro.core.system.pipeline_times`
for a :class:`~repro.core.system.SystemConfig`, whose ``parallelism`` and
``wsa`` pick the HE schedule and the TDD slot split, with the speedup
knobs used by the Figure 14 future-optimization analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.system import SystemConfig, pipeline_times
from repro.profiling.model_costs import Protocol


@dataclass(frozen=True)
class SpeedupKnobs:
    """Hypothetical accelerator speedups for the future-optimization study."""

    gc: float = 1.0  # garbling and evaluation
    he: float = 1.0  # homomorphic encryption, server and client side
    bandwidth: float = 1.0
    relu_reduction: float = 1.0  # PI-friendly architectures (fewer ReLUs)


@dataclass(frozen=True)
class PhaseBreakdown:
    """Seconds per cost source within one phase (a Table 1 row)."""

    gc: float
    he: float
    ss: float
    comm: float

    @property
    def total(self) -> float:
        return self.gc + self.he + self.ss + self.comm


@dataclass(frozen=True)
class ProtocolEstimate:
    """Full single-inference latency estimate."""

    protocol: Protocol
    offline: PhaseBreakdown
    online: PhaseBreakdown
    client_storage_bytes: float

    @property
    def total_seconds(self) -> float:
        return self.offline.total + self.online.total

    @property
    def offline_fraction(self) -> float:
        return self.offline.total / self.total_seconds

    def table_rows(self) -> dict[str, dict[str, float]]:
        """Table 1 layout: rows offline/online/total x columns GC/HE/SS/Comms."""
        rows = {}
        for name, phase in (("offline", self.offline), ("online", self.online)):
            rows[name] = {
                "GC": phase.gc,
                "HE": phase.he,
                "SS": phase.ss,
                "Comms": phase.comm,
                "Total": phase.total,
            }
        rows["total"] = {
            key: rows["offline"][key] + rows["online"][key]
            for key in rows["offline"]
        }
        return rows


def estimate(
    config: SystemConfig, knobs: SpeedupKnobs = SpeedupKnobs()
) -> ProtocolEstimate:
    """Estimate one private inference of ``config`` end to end.

    ``knobs`` applies the Figure 14 accelerator/architecture speedups: the
    ReLU reduction and the bandwidth act on the deployment itself, the GC
    and HE factors on the stage times it yields.
    """
    profile = replace(
        config.profile, relu_count=config.profile.relu_count / knobs.relu_reduction
    )
    config = replace(
        config, profile=profile, total_bps=config.total_bps * knobs.bandwidth
    )
    t = pipeline_times(config)
    # The HE-accelerator knob covers both sides: server evaluation and the
    # client's encrypt/decrypt (client-side HE acceleration, e.g. [82]).
    offline = PhaseBreakdown(
        gc=t.garble / knobs.gc,
        he=(t.server_he + t.client_he) / knobs.he,
        ss=0.0,
        comm=t.offline_up + t.offline_down,
    )
    online = PhaseBreakdown(
        gc=t.gc_eval / knobs.gc,
        he=0.0,
        ss=t.ss,
        comm=t.online_up + t.online_down,
    )
    return ProtocolEstimate(
        protocol=config.protocol,
        offline=offline,
        online=online,
        client_storage_bytes=config.precompute_footprint,
    )
