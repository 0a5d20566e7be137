"""Future-optimization analysis (§6, Figure 14).

Starting from the optimized protocols, accumulate hypothetical research
advances — GC acceleration (FASE's 19x, then 100x), HE accelerators
(1000x), next-generation wireless (10x bandwidth), and PI-friendly
architectures (10x fewer ReLUs) — and report total PI latency plus the
offline share after each step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.estimator import ProtocolEstimate, SpeedupKnobs, estimate
from repro.core.system import SystemConfig
from repro.profiling.model_costs import NetworkCostProfile, Protocol


@dataclass(frozen=True)
class WaterfallStep:
    label: str
    estimate: ProtocolEstimate

    @property
    def total_seconds(self) -> float:
        return self.estimate.total_seconds

    @property
    def offline_percent(self) -> float:
        return 100.0 * self.estimate.offline_fraction


# The accumulating knob settings of Figure 14, applied to Client-Garbler.
FUTURE_STEPS: tuple[tuple[str, SpeedupKnobs], ...] = (
    ("Client Garbler", SpeedupKnobs()),
    ("GC FASE 19x", SpeedupKnobs(gc=19.0)),
    ("GC 100x", SpeedupKnobs(gc=100.0)),
    ("HE 1000x", SpeedupKnobs(gc=100.0, he=1000.0)),
    ("BW 10x", SpeedupKnobs(gc=100.0, he=1000.0, bandwidth=10.0)),
    (
        "Fewer ReLUs",
        SpeedupKnobs(gc=100.0, he=1000.0, bandwidth=10.0, relu_reduction=10.0),
    ),
)


def waterfall(profile: NetworkCostProfile) -> list[WaterfallStep]:
    """The full Figure 14 series, including the Server-Garbler* baseline.

    Every step runs the default deployment (Atom client, EPYC server,
    1 Gbps, LPHE and WSA) of ``profile``.
    """
    steps = [
        WaterfallStep(
            "Server Garbler*",
            estimate(SystemConfig(profile, protocol=Protocol.SERVER_GARBLER)),
        )
    ]
    client_garbler = SystemConfig(profile, protocol=Protocol.CLIENT_GARBLER)
    for label, knobs in FUTURE_STEPS:
        steps.append(WaterfallStep(label, estimate(client_garbler, knobs)))
    return steps


def breakdown_components(step: WaterfallStep) -> dict[str, float]:
    """Normalized latency components (the stacked bars of Figure 14 bottom)."""
    e = step.estimate
    total = e.total_seconds
    return {
        "Offline Comm.": e.offline.comm / total,
        "GC.Garble": e.offline.gc / total,
        "HE.Eval": e.offline.he / total,
        "Online Comm.": e.online.comm / total,
        "GC.Eval": e.online.gc / total,
        "SS.Eval": e.online.ss / total,
    }
