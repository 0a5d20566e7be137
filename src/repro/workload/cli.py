"""`python -m repro --workload ...` and `--plan`: the workload entry points.

Thin, printable wrappers over the engine: build a named schedule from
CLI knobs, replay it functionally against a real gateway (checking every
logit against the plaintext oracle), and emit a JSON artifact carrying
the canonical schedule plus the measured summary — or run the
calibrate → validate → sweep → plan pipeline and emit the planner
artifact. :func:`demo_workload` is the one functional serving run:
``--workload closed --workload-think 0`` serves N clients R requests
each with zero think time, the run CI's serving, saturation and
telemetry smokes drive.
"""

from __future__ import annotations

import json

from repro.workload.generators import (
    BurstEnvelope,
    Schedule,
    closed_schedule,
    poisson_schedule,
    zipf_rates,
)

WORKLOAD_KINDS = ("poisson", "closed", "burst", "skewed")


def build_schedule(
    kind: str,
    *,
    clients: int,
    rate: float,
    horizon: float,
    requests: int,
    skew: float,
    think: float,
    seed: int,
) -> Schedule:
    """One named schedule per CLI workload kind.

    ``poisson`` is uniform open-loop; ``skewed`` gives client 0 the
    Zipf hot spot; ``burst`` layers a global on/off envelope over the
    skewed rates (the saturation special); ``closed`` issues ``requests``
    per client separated by exponential think time.
    """
    if kind == "closed":
        return closed_schedule(clients, requests, think, seed=seed,
                               name="closed")
    if kind == "poisson":
        rates: float | list[float] = rate / clients
    else:
        rates = zipf_rates(clients, rate, skew)
    burst = None
    if kind == "burst":
        burst = BurstEnvelope(
            on_seconds=horizon / 3,
            off_seconds=horizon / 3,
            off_factor=0.1,
            seed=seed + 1,
        )
    return poisson_schedule(
        clients,
        rates,
        horizon,
        seed=seed,
        name=kind,
        burst=burst,
        max_per_client=requests,
    )


def demo_workload(
    kind: str,
    *,
    clients: int = 3,
    rate: float = 4.0,
    horizon: float = 2.0,
    requests: int = 3,
    skew: float = 1.2,
    think: float = 0.2,
    seed: int = 0,
    workers: int | None = None,
    budget_mb: float = 8.0,
    gateway_max_queue: int | None = None,
    time_scale: float = 1.0,
    store_dir: str | None = None,
    out_path: str | None = None,
):
    """Generate a schedule, replay it against a live gateway, verify, report.

    Every served logit vector is checked against the plaintext oracle
    (realistic traffic and eviction pressure must never surface a stale
    or corrupted result). ``budget_mb=0`` means unbounded. The store
    lives in ``store_dir``, which is kept; without one a temporary
    directory is made and removed again, whether the run succeeds or
    raises. With ``out_path`` the run writes a JSON artifact holding the
    canonical schedule and the full report summary (with its per-workload
    columns, ``store_dir`` and ``party_bytes``, each party's bytes of the
    first entry the run stored) — the bytes CI asserts on. Returns the
    ServingReport.
    """
    import shutil
    import tempfile

    from repro.core.lowering import lower_network, plaintext_reference
    from repro.core.protocol import party_storage_bytes
    from repro.core.session import ServerSession
    from repro.runtime.pool import PrecomputePool
    from repro.runtime.serving import demo_network_and_params
    from repro.runtime.store import PrecomputeStore
    from repro.workload.drivers import draw_schedule_inputs, replay_functional

    class _SampledStore(PrecomputeStore):
        """Keeps the first entry put in it: the run drains the store, and
        the summary splits one served entry by party."""

        first_entry = None

        def put(self, key, kind, blob, name=None):
            with self._lock:  # the gateway's refill worker puts too
                if self.first_entry is None:
                    self.first_entry = blob
                return super().put(key, kind, blob, name)

    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}")
    network, params = demo_network_and_params()
    schedule = build_schedule(
        kind,
        clients=clients,
        rate=rate,
        horizon=horizon,
        requests=requests,
        skew=skew,
        think=think,
        seed=seed,
    )
    inputs = draw_schedule_inputs(schedule, network, params)
    garbler = "client"
    root = store_dir or tempfile.mkdtemp(prefix="repro-workload-")
    try:
        store = _SampledStore(root, byte_budget=int(budget_mb * 1e6) or None)
        with PrecomputePool(workers=workers) as pool:
            print(
                f"workload {schedule.name!r}: {schedule.total_requests} "
                f"request(s) over {clients} client(s) "
                f"(counts {schedule.request_counts()}, {pool.workers} "
                f"worker(s), budget {budget_mb:g} MB, "
                f"time scale {time_scale:g}x)"
            )
            report = replay_functional(
                schedule,
                network,
                params,
                store,
                pool=pool,
                garbler=garbler,
                time_scale=time_scale,
                gateway_max_queue=gateway_max_queue,
                inputs=inputs,
            )
    finally:
        if root != store_dir:  # the run made it
            shutil.rmtree(root, ignore_errors=True)
    lowered = lower_network(network, params.t)
    for request in report.requests:
        c = int(request.client[len("client"):])
        assert request.logits == plaintext_reference(
            lowered, inputs[c][request.index]
        ), f"{request.client} request {request.index} diverged from oracle"
    columns = report.workloads[schedule.name]
    print(f"all {len(report.requests)} results match the plaintext reference")
    print(
        f"  latency p50/p95/p99 {columns['latency_p50']:.3f}/"
        f"{columns['latency_p95']:.3f}/{columns['latency_p99']:.3f}s, "
        f"goodput {columns['goodput_rps']:.2f} rps "
        f"(offered {columns['offered_rps']:.2f})"
    )
    print(
        f"  hit rate {report.hit_rate:.2f}, demand mints "
        f"{report.demand_mints}, evictions {report.evictions}, max queue "
        f"depth {report.max_queue_depth}, peak {report.peak_live_sessions} "
        f"live session(s), {report.dropped_sessions} dropped"
    )
    print(
        f"  admission: {report.requests_issued} issued = "
        f"{report.requests_admitted} admitted + "
        f"{report.requests_deferred} deferred + "
        f"{report.requests_rejected} rejected "
        f"(deferral rate {columns['deferral_rate']:.2f}, "
        f"client backoff {columns['retry_sleep_seconds']:.2f}s)"
    )
    if out_path:
        artifact = {
            "schedule": json.loads(schedule.to_json()),
            "summary": {
                **report.summary(),
                "store_dir": root,
                "party_bytes": {
                    "garbler": garbler,
                    **party_storage_bytes(
                        store.first_entry,
                        lowered,
                        ServerSession(
                            network, params, garbler, seed=0, lowered=lowered
                        ).relu_circuit(),
                        garbler,
                    ),
                },
            },
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
        print(f"  workload artifact written to {out_path}")
    return report


def demo_plan(
    *,
    clients: int = 8,
    rate: float = 3.0,
    workers: int | None = None,
    budget_mb: float = 8.0,
    slo_p95: float = 2.0,
    slo_deferral: float = 0.2,
    workers_grid=(1, 2, 4),
    store_grid=(4, 8, 16),
    horizon: float = 30.0,
    seed: int = 0,
    out_path: str | None = None,
):
    """Calibrate against measured runs, then plan capacity for (N, λ).

    Runs the full pipeline: small functional calibration runs → least
    squares fit → held-out validation (prediction error printed and
    recorded) → analytic sweep over (workers, store entries) →
    cheapest configuration meeting the SLO. Returns the JSON-safe
    planner artifact (also written to ``out_path`` when given).
    """
    from repro.runtime.pool import PrecomputePool
    from repro.runtime.serving import demo_network_and_params
    from repro.workload.planner import SLO, CapacityPlanner, calibrate

    network, params = demo_network_and_params()
    with PrecomputePool(workers=workers) as pool:
        print(
            f"calibrating service model ({pool.workers} worker(s), "
            f"budget {budget_mb:g} MB)..."
        )
        model, calibration = calibrate(
            network, params, pool=pool, budget_mb=budget_mb
        )
    validation = calibration["validation"]
    print(
        f"  fitted: online {model.online_seconds * 1e3:.0f} ms, demand mint "
        f"{model.demand_mint_seconds * 1e3:.0f} ms, refill mint "
        f"{model.refill_mint_seconds * 1e3:.0f} ms "
        f"({model.fit['method']})"
    )
    print(
        f"  held-out validation: throughput error "
        f"{validation['throughput_error']:.1%}, latency error "
        f"{validation['latency_error']:.1%}"
    )
    slo = SLO(p95_latency_seconds=slo_p95, max_deferral_rate=slo_deferral)
    planner = CapacityPlanner(model)
    plan = planner.plan(
        clients=clients,
        rate=rate,
        workers_grid=list(workers_grid),
        store_grid=list(store_grid),
        slo=slo,
        horizon=horizon,
        seed=seed,
    )
    choice = plan["choice"]
    if choice is None:
        print(
            f"  no grid configuration meets the SLO for {clients} client(s) "
            f"at {rate:g} rps — widen the grid or relax the SLO"
        )
    else:
        print(
            f"  plan for {clients} client(s) at {rate:g} rps: "
            f"{choice['workers']} worker(s), {choice['store_entries']} store "
            f"entries (cost {choice['cost']:g}) — predicted p95 "
            f"{choice['latency_p95']:.2f}s, goodput "
            f"{choice['goodput_rps']:.2f} rps, deferral rate "
            f"{choice['deferral_rate']:.2f}"
        )
    artifact = {"calibration": calibration, "plan": plan}
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
        print(f"  planner artifact written to {out_path}")
    return artifact
