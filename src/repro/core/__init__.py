"""Core: hybrid PI protocols, cost estimation, system simulation, WSA."""

from repro.core.analytic import (
    best_case_latency,
    max_sustainable_rate_per_minute,
    worst_case_latency,
)
from repro.core.estimator import (
    PhaseBreakdown,
    ProtocolEstimate,
    SpeedupKnobs,
    estimate,
)
from repro.core.future import FUTURE_STEPS, WaterfallStep, waterfall
from repro.core.protocol import HybridProtocol, LoweredNetwork, lower_network
from repro.core.session import ClientSession, ServerSession
from repro.core.validation import predict_comm, validate_protocol_comm
from repro.core.system import (
    OfflineParallelism,
    PiSystemSimulator,
    SimulationResult,
    SystemConfig,
    pipeline_times,
    simulate_mean_latency,
)
from repro.core.wsa import (
    comm_seconds,
    improvement_over_even_split,
    optimal_upload_fraction,
    optimize,
    sweep_allocations,
)

__all__ = [
    "ClientSession",
    "FUTURE_STEPS",
    "HybridProtocol",
    "ServerSession",
    "LoweredNetwork",
    "OfflineParallelism",
    "best_case_latency",
    "max_sustainable_rate_per_minute",
    "predict_comm",
    "validate_protocol_comm",
    "worst_case_latency",
    "PhaseBreakdown",
    "PiSystemSimulator",
    "ProtocolEstimate",
    "SimulationResult",
    "SpeedupKnobs",
    "SystemConfig",
    "WaterfallStep",
    "comm_seconds",
    "estimate",
    "improvement_over_even_split",
    "lower_network",
    "optimal_upload_fraction",
    "optimize",
    "pipeline_times",
    "simulate_mean_latency",
    "sweep_allocations",
    "waterfall",
]
