"""Workload engine: arrival generators, replay drivers, capacity planner.

Three layers, one contract:

* :mod:`repro.workload.generators` — seeded arrival processes (Poisson,
  closed-loop think time, Zipf skew, burst overlays) emitting a typed
  :class:`Schedule`.
* :mod:`repro.workload.drivers` — *one schedule, two executions*: a
  functional replay against the live gateway and an analytic replay
  through the discrete-event engine, reporting the same columns.
* :mod:`repro.workload.planner` — least-squares calibration of the
  analytic :class:`ServiceModel` from measured reports, held-out
  validation, and SLO-driven capacity sweeps.
"""

from repro.workload.drivers import (
    ServiceModel,
    draw_schedule_inputs,
    replay_analytic,
    replay_functional,
)
from repro.workload.generators import (
    Arrival,
    BurstEnvelope,
    InferenceRequest,
    PoissonWorkload,
    Schedule,
    closed_schedule,
    poisson_schedule,
    uniform_schedule,
    zipf_rates,
)
from repro.workload.planner import (
    SLO,
    CalibratedModel,
    CapacityPlanner,
    calibrate,
    fit_service_times,
)

__all__ = [
    "Arrival",
    "BurstEnvelope",
    "CalibratedModel",
    "CapacityPlanner",
    "InferenceRequest",
    "PoissonWorkload",
    "SLO",
    "Schedule",
    "ServiceModel",
    "calibrate",
    "closed_schedule",
    "draw_schedule_inputs",
    "fit_service_times",
    "poisson_schedule",
    "replay_analytic",
    "replay_functional",
    "uniform_schedule",
    "zipf_rates",
]
