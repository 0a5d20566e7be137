"""Analytic queueing approximations for the PI serving system.

A cross-check on the discrete-event simulator: with Poisson arrivals and a
(nearly) deterministic service time the system is M/D/1, whose mean queue
wait has the Pollaczek-Khinchine closed form. Two regimes bracket the
simulator's behaviour:

* buffer never depletes  -> service time = online phase only;
* buffer always empty    -> service time = offline + online ("incurred
  online", the paper's high-rate asymptote).

The simulator must land between these curves (and approach each in its
regime); ``tests/test_extensions.py`` enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import SystemConfig, pipeline_times


@dataclass(frozen=True)
class AnalyticLatency:
    service_seconds: float
    queue_seconds: float
    utilization: float

    @property
    def total_seconds(self) -> float:
        return self.service_seconds + self.queue_seconds


def md1_mean_wait(service: float, mean_interarrival: float) -> float:
    """Pollaczek-Khinchine mean queue wait for M/D/1 (infinite if unstable)."""
    rho = service / mean_interarrival
    if rho >= 1.0:
        return float("inf")
    lam = 1.0 / mean_interarrival
    return rho * rho / (2.0 * lam * (1.0 - rho))


def best_case_latency(config: SystemConfig, mean_interarrival: float) -> AnalyticLatency:
    """Latency if every request finds a buffered pre-compute."""
    service = pipeline_times(config).online_seconds
    return AnalyticLatency(
        service_seconds=service,
        queue_seconds=md1_mean_wait(service, mean_interarrival),
        utilization=service / mean_interarrival,
    )


def worst_case_latency(config: SystemConfig, mean_interarrival: float) -> AnalyticLatency:
    """Latency if every request must run the offline phase inline."""
    times = pipeline_times(config)
    service = times.online_seconds + times.offline_seconds
    return AnalyticLatency(
        service_seconds=service,
        queue_seconds=md1_mean_wait(service, mean_interarrival),
        utilization=service / mean_interarrival,
    )


def max_sustainable_rate_per_minute(config: SystemConfig) -> float:
    """Upper bound on one client's throughput (requests/minute).

    With no buffer the full protocol serializes per request. With a buffer
    the binding resource is the slower of the online chain and the offline
    production period; RLP amortizes production across its concurrent
    workers (bounded by buffer slots and server cores).
    """
    times = pipeline_times(config)
    if config.buffer_capacity < 1:
        return 60.0 / (times.online_seconds + times.offline_seconds)
    production = times.offline_seconds / config.workers_per_client
    return 60.0 / max(times.online_seconds, production)
