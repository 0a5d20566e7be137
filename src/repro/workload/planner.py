"""Calibrated capacity planning: cores and store entries for N clients at λ.

The analytic replay (:func:`~repro.workload.drivers.replay_analytic`) can
sweep configurations the functional path could never run — thousands of
clients, hours of simulated traffic — but its answers are only as
credible as its :class:`~repro.workload.drivers.ServiceModel`. This
module closes that loop:

1. **Calibrate** — run a few *small* functional workloads against the
   real gateway, fit the model's service-time parameters from their
   measured :class:`~repro.runtime.serving.ServingReport`\\ s by least
   squares (``serve_seconds ≈ t_online·requests +
   t_demand·demand_mints`` across runs; refill mint time from the
   background-refill ledger).
2. **Validate** — replay a *held-out* schedule both ways and report the
   relative prediction error on throughput and latency, so every plan
   ships with the evidence for (or against) trusting it.
3. **Plan** — sweep the calibrated model over (clients, rate, workers,
   store entries) grids and return the cheapest configuration meeting an
   :class:`SLO`, with the full sweep table attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.runtime.policy import DEFAULT_MAX_QUEUE
from repro.workload.drivers import ServiceModel, replay_analytic
from repro.workload.generators import Schedule, poisson_schedule

__all__ = [
    "CalibratedModel",
    "SLO",
    "CapacityPlanner",
    "fit_service_times",
    "calibrate",
]

# A simple linear resource price — enough to rank "more cores" against
# "more store" honestly; swap the coefficients for a real bill of materials.
CORE_COST = 1.0
ENTRY_COST = 0.05


@dataclass(frozen=True)
class CalibratedModel:
    """Fitted service-time parameters plus how they were obtained."""

    online_seconds: float
    demand_mint_seconds: float
    refill_mint_seconds: float
    fit: dict = field(default_factory=dict)  # diagnostics (method, residual)

    def service_model(
        self,
        *,
        workers: int = 1,
        store_entries: int | None = None,
        prefill: int = 1,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> ServiceModel:
        return ServiceModel(
            online_seconds=self.online_seconds,
            demand_mint_seconds=self.demand_mint_seconds,
            refill_mint_seconds=self.refill_mint_seconds,
            workers=workers,
            store_entries=store_entries,
            prefill=prefill,
            max_queue=max_queue,
        )

    def predict(self, schedule: Schedule, **knobs) -> dict:
        """Analytic replay of a schedule under this model's parameters."""
        return replay_analytic(schedule, self.service_model(**knobs))

    def validate(self, schedule: Schedule, measured_report, **knobs) -> dict:
        """Predicted vs measured columns on a held-out run.

        ``measured_report`` is the ServingReport of a functional replay
        of the *same* schedule (its ``workloads[schedule.name]`` block is
        the measured side). Measured numbers are converted back to
        schedule time through the replay's ``time_scale`` so a slowed
        CI replay still compares apples to apples. Relative errors are
        what the acceptance gate (< 50% on throughput) checks.
        """
        measured = measured_report.workloads[schedule.name]
        predicted = self.predict(schedule, **knobs)
        scale = measured.get("time_scale", 1.0) or 1.0
        meas_goodput = measured["goodput_rps"] * scale
        meas_latency = measured["mean_latency"] / scale
        throughput_error = (
            abs(predicted["goodput_rps"] - meas_goodput) / meas_goodput
            if meas_goodput > 0
            else float("inf")
        )
        latency_error = (
            abs(predicted["mean_latency"] - meas_latency) / meas_latency
            if meas_latency > 0
            else float("inf")
        )
        return {
            "schedule": schedule.name,
            "predicted": predicted,
            "measured": measured,
            "measured_goodput_rps": round(meas_goodput, 6),
            "measured_mean_latency": round(meas_latency, 6),
            "throughput_error": round(throughput_error, 6),
            "latency_error": round(latency_error, 6),
        }

    def to_json_dict(self) -> dict:
        return {
            "online_seconds": round(self.online_seconds, 6),
            "demand_mint_seconds": round(self.demand_mint_seconds, 6),
            "refill_mint_seconds": round(self.refill_mint_seconds, 6),
            "fit": self.fit,
        }


def fit_service_times(reports, *, prefills=None) -> CalibratedModel:
    """Least-squares fit of the service model over calibration runs.

    Each report contributes one observation ``serve_seconds ≈
    t_online · requests + t_demand · demand_mints``; the 2x2 normal
    equations solve for both parameters at once, so the calibration runs
    must vary their miss profile (e.g. one warm run, one cold). When the
    system is degenerate — all runs share one miss ratio — or the
    least-squares solution goes non-physical (a negative time), the fit
    falls back to direct per-request estimators: mean measured
    ``online_seconds`` and mean miss-path ``mint_seconds``. The refill
    mint time always comes from the refill ledger:
    ``Σ refill_seconds / Σ refill mints``. ``prefills`` names each run's
    prefill depth (scalar or one per report; the gateway's ``minted``
    counter includes prefill mints, which are not refills).
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one calibration run")
    if prefills is None:
        prefills = [1] * len(reports)
    elif isinstance(prefills, int):
        prefills = [prefills] * len(reports)
    if len(prefills) != len(reports):
        raise ValueError("prefills must match the number of reports")

    # Direct estimators (the fallback, and the refill time either way).
    all_rows = [r for report in reports for r in report.requests]
    miss_rows = [r for r in all_rows if not r.hit]
    online_direct = (
        sum(r.online_seconds for r in all_rows) / len(all_rows)
        if all_rows
        else 0.0
    )
    refill_time = sum(r.refill_seconds for r in reports)
    refill_count = sum(
        max(0, report.minted - report.num_clients * prefill)
        for report, prefill in zip(reports, prefills)
    )
    demand_direct = (
        sum(r.mint_seconds for r in miss_rows) / len(miss_rows)
        if miss_rows
        else (refill_time / refill_count if refill_count else 0.0)
    )
    refill_mint = (
        refill_time / refill_count if refill_count else demand_direct
    )

    # Least squares on the report-level totals.
    s11 = s12 = s22 = b1 = b2 = 0.0
    for report in reports:
        x1 = float(len(report.requests))
        x2 = float(report.demand_mints)
        y = report.serve_seconds
        s11 += x1 * x1
        s12 += x1 * x2
        s22 += x2 * x2
        b1 += x1 * y
        b2 += x2 * y
    det = s11 * s22 - s12 * s12
    method = "fallback-direct"
    online, demand = online_direct, demand_direct
    residual = None
    if det > 1e-9 and s22 > 0:
        ls_online = (b1 * s22 - b2 * s12) / det
        ls_demand = (b2 * s11 - b1 * s12) / det
        if ls_online > 0 and ls_demand > 0:
            online, demand = ls_online, ls_demand
            method = "least-squares"
            residual = sum(
                (
                    report.serve_seconds
                    - online * len(report.requests)
                    - demand * report.demand_mints
                )
                ** 2
                for report in reports
            )
    if demand <= 0:
        demand = max(online, 1e-6)
    return CalibratedModel(
        online_seconds=online,
        demand_mint_seconds=demand,
        refill_mint_seconds=refill_mint,
        fit={
            "method": method,
            "runs": len(reports),
            "residual": round(residual, 9) if residual is not None else None,
            "online_direct": round(online_direct, 6),
            "demand_direct": round(demand_direct, 6),
            "refill_mints_observed": refill_count,
        },
    )


@dataclass(frozen=True)
class SLO:
    """What "good enough" means for a planned configuration."""

    p95_latency_seconds: float | None = None
    max_deferral_rate: float | None = None
    min_goodput_fraction: float = 0.9  # goodput >= fraction of offered rate

    def met_by(self, row: dict) -> bool:
        if (
            self.p95_latency_seconds is not None
            and row["latency_p95"] > self.p95_latency_seconds
        ):
            return False
        if (
            self.max_deferral_rate is not None
            and row["deferral_rate"] > self.max_deferral_rate
        ):
            return False
        offered = row.get("offered_rps", 0.0)
        if offered > 0 and row["goodput_rps"] < (
            self.min_goodput_fraction * offered
        ):
            return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "p95_latency_seconds": self.p95_latency_seconds,
            "max_deferral_rate": self.max_deferral_rate,
            "min_goodput_fraction": self.min_goodput_fraction,
        }


class CapacityPlanner:
    """Sweep a calibrated model over configuration grids; pick the cheapest.

    Cost is ``workers * CORE_COST + store_entries * ENTRY_COST``.
    """

    def __init__(
        self,
        model: CalibratedModel,
        *,
        prefill: int = 1,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ):
        self.model = model
        self.prefill = prefill
        self.max_queue = max_queue

    def sweep(
        self,
        *,
        clients_grid,
        rate_grid,
        workers_grid,
        store_grid,
        horizon: float = 60.0,
        seed: int = 0,
    ) -> list[dict]:
        """Predicted columns for every grid point.

        ``rate_grid`` holds aggregate offered rates λ (requests/second,
        split uniformly across clients); ``store_grid`` store capacities
        in precompute entries. Each point generates a fresh seeded
        Poisson schedule over ``horizon`` and replays it analytically.
        """
        rows = []
        for clients in clients_grid:
            for rate in rate_grid:
                schedule = poisson_schedule(
                    clients,
                    rate / clients,
                    horizon,
                    seed=seed,
                    name=f"plan-c{clients}-r{rate:g}",
                )
                for workers in workers_grid:
                    for store_entries in store_grid:
                        predicted = self.model.predict(
                            schedule,
                            workers=workers,
                            store_entries=store_entries,
                            prefill=self.prefill,
                            max_queue=self.max_queue,
                        )
                        rows.append(
                            {
                                "clients": clients,
                                "rate_rps": rate,
                                "workers": workers,
                                "store_entries": store_entries,
                                "cost": round(
                                    workers * CORE_COST
                                    + store_entries * ENTRY_COST,
                                    6,
                                ),
                                "latency_p50": predicted["latency_p50"],
                                "latency_p95": predicted["latency_p95"],
                                "latency_p99": predicted["latency_p99"],
                                "mean_latency": predicted["mean_latency"],
                                "deferral_rate": predicted["deferral_rate"],
                                "goodput_rps": predicted["goodput_rps"],
                                "offered_rps": predicted["offered_rps"],
                                "hit_rate": (
                                    round(
                                        predicted["hits"]
                                        / predicted["requests"],
                                        6,
                                    )
                                    if predicted["requests"]
                                    else 0.0
                                ),
                                "evictions": predicted["evictions"],
                            }
                        )
        return rows

    def plan(
        self,
        *,
        clients: int,
        rate: float,
        workers_grid,
        store_grid,
        slo: SLO,
        horizon: float = 60.0,
        seed: int = 0,
    ) -> dict:
        """The cheapest (workers, store) meeting the SLO at (clients, λ).

        Returns the decision plus the full candidate table — the
        ``choice`` is None when no grid point meets the SLO, which is an
        answer too ("this traffic needs a bigger grid").
        """
        candidates = self.sweep(
            clients_grid=[clients],
            rate_grid=[rate],
            workers_grid=workers_grid,
            store_grid=store_grid,
            horizon=horizon,
            seed=seed,
        )
        feasible = [row for row in candidates if slo.met_by(row)]
        feasible.sort(key=lambda row: (row["cost"], row["latency_p95"]))
        return {
            "clients": clients,
            "rate_rps": rate,
            "slo": slo.to_json_dict(),
            "choice": feasible[0] if feasible else None,
            "feasible": len(feasible),
            "candidates": candidates,
        }


def calibrate(
    network,
    params,
    pool=None,
    *,
    budget_mb: float = 8.0,
    clients: int = 2,
    requests: int = 2,
    base_seed: int = 0,
    gateway_max_queue: int | None = None,
    held_out: Schedule | None = None,
    store_root: str | None = None,
):
    """End-to-end calibration: measure, fit, validate on a held-out run.

    Runs two small functional workloads against a real gateway — a warm
    one (``prefill=1``, mostly hits) and a cold one (``prefill=0``,
    demand mints on the critical path) — fits
    :func:`fit_service_times` over their reports, then replays a
    held-out Poisson schedule *both* ways and reports the prediction
    error. Returns ``(model, result)`` where ``result`` is a JSON-safe
    dict: calibration run summaries, the held-out schedule (canonical
    JSON), validation errors, and wall-clock accounting.
    """
    import shutil
    import tempfile

    from repro.runtime.pool import PrecomputePool
    from repro.runtime.store import PrecomputeStore
    from repro.workload.drivers import replay_functional
    from repro.workload.generators import uniform_schedule

    own_pool = None
    if pool is None:
        pool = own_pool = PrecomputePool()
    made_root = store_root is None
    root = store_root or tempfile.mkdtemp(prefix="repro-calibrate-")
    budget = int(budget_mb * 1e6) or None
    t0 = time.perf_counter()
    try:
        runs = []
        run_specs = [
            ("calib-warm", 1),  # prefilled buffers: hit path dominates
            ("calib-cold", 0),  # empty buffers: demand mints dominate
        ]
        for name, prefill in run_specs:
            schedule = uniform_schedule(
                clients, requests, period=0.05, name=name
            )
            store = PrecomputeStore(f"{root}/{name}", byte_budget=budget)
            report = replay_functional(
                schedule,
                network,
                params,
                store,
                pool=pool,
                prefill=prefill,
                base_seed=base_seed,
                gateway_max_queue=gateway_max_queue,
            )
            runs.append((schedule, prefill, report))
        model = fit_service_times(
            [report for _, _, report in runs],
            prefills=[prefill for _, prefill, _ in runs],
        )
        if held_out is None:
            held_out = poisson_schedule(
                clients,
                [2.0 / clients] * clients,
                horizon=float(requests),
                seed=base_seed + 7,
                name="calib-heldout",
                max_per_client=requests,
            )
        store = PrecomputeStore(f"{root}/held-out", byte_budget=budget)
        held_report = replay_functional(
            held_out,
            network,
            params,
            store,
            pool=pool,
            prefill=1,
            base_seed=base_seed,
            gateway_max_queue=gateway_max_queue,
        )
        validation = model.validate(
            held_out,
            held_report,
            workers=pool.workers,
            prefill=1,
            max_queue=(
                DEFAULT_MAX_QUEUE
                if gateway_max_queue is None
                else gateway_max_queue
            ),
        )
        result = {
            "model": model.to_json_dict(),
            "calibration_runs": [
                {
                    "schedule": schedule.name,
                    "prefill": prefill,
                    "summary": report.summary(),
                }
                for schedule, prefill, report in runs
            ],
            "held_out_schedule": held_out.to_json(),
            "held_out_summary": held_report.summary(),
            "validation": validation,
            "calibration_seconds": round(time.perf_counter() - t0, 3),
        }
        return model, result
    finally:
        if own_pool is not None:
            own_pool.close()
        if made_root:
            shutil.rmtree(root, ignore_errors=True)
