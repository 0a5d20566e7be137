"""Replay one schedule two ways: live gateway or discrete-event model.

The workload engine's core contract is *one schedule, two executions*:

* :func:`replay_functional` drives a real
  :class:`~repro.runtime.gateway.ServingGateway` over loopback TCP — one
  thread per client holding a single keep-alive
  :class:`~repro.runtime.client.GatewayClient`, sleeping to the
  schedule's arrival times (open-loop) or think gaps (closed-loop) and
  honoring BUSY/GOAWAY — and returns a measured
  :class:`~repro.runtime.serving.ServingReport`.
* :func:`replay_analytic` pushes the byte-identical
  :class:`~repro.workload.generators.Schedule` through the
  :mod:`repro.simulation` engine under a :class:`ServiceModel` — the
  calibrated service-time/mint-rate parameters — and predicts the same
  columns in simulated time.

Both report per-workload latency quantiles (p50/p95/p99 via the
telemetry :class:`~repro.telemetry.metrics.Histogram`), deferral rate,
and goodput, keyed by workload name, so the planner can compare
prediction against measurement number for number. Neither decides
admission or refill: both run each request through the one
:class:`~repro.runtime.connection.ConnectionMachine` over a
:class:`~repro.runtime.policy.RefillLedger`; the analytic side keeps
only simulated time and its store model.

Latency convention: open-loop latency is measured from the *scheduled*
arrival (lateness under overload counts as queueing — the standard
open-loop convention, immune to coordinated omission); closed-loop
latency is measured from issue, since a closed loop cannot fall behind
its own schedule.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.runtime.connection import BUSY, DONE, OFFER, START_ONLINE, ConnectionMachine
from repro.runtime.policy import DEFAULT_MAX_QUEUE, RefillLedger
from repro.runtime.serving import client_id as client_name, draw_inputs
from repro.runtime.state import derive_worker_seed
from repro.simulation.engine import Environment, Event, Resource, Timeout
from repro.telemetry.metrics import Histogram
from repro.workload.generators import MODE_OPEN, Schedule

__all__ = [
    "ServiceModel",
    "draw_schedule_inputs",
    "replay_functional",
    "replay_analytic",
]


def draw_schedule_inputs(schedule: Schedule, network, params,
                         input_seed: int = 1) -> list[list[list[int]]]:
    """Deterministic per-client input vectors for a schedule's requests.

    :func:`~repro.runtime.serving.draw_inputs` over the schedule's
    per-client request counts, so a serialized
    :class:`~repro.runtime.serving.ServingLoop` reference run (and the
    plaintext oracle) sees the same vectors the workload replay served.
    """
    return draw_inputs(network, params, schedule.request_counts(), input_seed)


def _workload_columns(
    schedule: Schedule,
    latencies: list[float],
    *,
    admission: dict,
    makespan: float,
    time_scale: float = 1.0,
) -> dict:
    """The per-workload report columns both executions share;
    ``admission`` is the ledger's :meth:`~RefillLedger.admission`."""
    hist = Histogram()
    for latency in latencies:
        hist.observe(latency)
    completed = len(latencies)
    return {
        "mode": schedule.mode,
        "requests": completed,
        "latency_p50": round(hist.quantile(0.50), 6),
        "latency_p95": round(hist.quantile(0.95), 6),
        "latency_p99": round(hist.quantile(0.99), 6),
        "mean_latency": round(hist.sum / hist.count, 6) if hist.count else 0.0,
        "deferral_rate": round(
            admission["deferred"] / max(1, admission["issued"]), 6
        ),
        "rejected": admission["rejected"],
        "goodput_rps": round(completed / makespan, 6) if makespan > 0 else 0.0,
        "offered_rps": round(schedule.offered_rate() / time_scale, 6)
        if time_scale > 0
        else 0.0,
        "makespan_seconds": round(makespan, 6),
        "time_scale": time_scale,
    }


# -- functional execution ---------------------------------------------------------


def replay_functional(
    schedule: Schedule,
    network,
    params,
    store,
    pool=None,
    *,
    garbler: str = "client",
    prefill: int = 1,
    base_seed: int = 0,
    input_seed: int = 1,
    time_scale: float = 1.0,
    gateway_max_queue: int | None = None,
    max_request_deferrals: int | None = None,
    model_id: str = "serving",
    timeout: float = 600.0,
    inputs: list[list[list[int]]] | None = None,
):
    """Replay a schedule against a live gateway; returns a ServingReport.

    One driver thread per client opens a single keep-alive connection
    and issues that client's requests at (scaled) schedule times; BUSY
    deferrals are honored inside :meth:`GatewayClient.request` with the
    server's adaptive retry hint plus decorrelated jitter. The gateway's
    refill caps follow the schedule's per-client request counts, so a
    skewed schedule earns skewed buffers. The returned report carries
    merged client-side logits and a ``workloads[schedule.name]`` column
    block (latency quantiles, deferral rate, goodput).

    ``time_scale`` stretches (>1) or compresses (<1) the schedule's
    clock — a saturation schedule generated at 10 rps can replay at
    0.25x to hammer a slow CI host, without changing the schedule bytes.
    """
    from repro.core.lowering import lower_network
    from repro.runtime.client import GatewayClient
    from repro.runtime.gateway import ServingGateway

    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    if inputs is None:
        inputs = draw_schedule_inputs(schedule, network, params, input_seed)
    counts = schedule.request_counts()
    total = schedule.total_requests
    gateway = ServingGateway(
        network,
        params,
        schedule.num_clients,
        store,
        pool=pool,
        garbler=garbler,
        prefill=prefill,
        base_seed=base_seed,
        model_id=model_id,
        expected_per_client=counts,
        max_queue=gateway_max_queue,
        max_request_deferrals=max_request_deferrals,
    )
    client_lowered = lower_network(
        network, params.t, backend=params.backend, shape_only=True
    )
    lanes = schedule.per_client()
    results: dict[tuple[str, int], list[int]] = {}
    rows: list[tuple[int, int, float, float]] = []  # (c, j, scheduled, done)
    rows_lock = threading.Lock()
    errors: list[BaseException] = []
    clients_ready = threading.Barrier(schedule.num_clients + 1)
    start_evt = threading.Event()
    origin = [0.0]
    backoff = {"busy_retries": 0, "retry_sleep_seconds": 0.0}

    def drive(c: int) -> None:
        cid = gateway.client_id(c)
        try:
            client = GatewayClient(
                gateway.host,
                gateway.port,
                network,
                params,
                garbler=garbler,
                client_id=cid,
                seed=derive_worker_seed(base_seed + 0xC11E, c),
                lowered=client_lowered,
            )
            try:
                clients_ready.wait(timeout=60.0)
                start_evt.wait(timeout=60.0)
                t0 = origin[0]
                for a in lanes[c]:
                    if schedule.mode == MODE_OPEN:
                        # Sleep to the scheduled instant; if we are late
                        # (service or backoff overran), issue immediately
                        # — open-loop lateness is queueing, not a skipped
                        # arrival.
                        scheduled = t0 + a.at * time_scale
                        delay = scheduled - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                    else:
                        if a.think > 0:
                            time.sleep(a.think * time_scale)
                        scheduled = time.perf_counter()
                    logits = client.request(
                        inputs[c][a.index], request_index=a.index
                    )
                    done = time.perf_counter()
                    with rows_lock:
                        results[(cid, a.index)] = logits
                        rows.append((c, a.index, scheduled, done))
            finally:
                local = client.local_stats()
                with rows_lock:
                    for key in backoff:
                        backoff[key] += local[key]
                client.close()
        except threading.BrokenBarrierError:
            pass  # another driver failed during setup; it holds the error
        except BaseException as exc:  # surfaced after the serve loop
            errors.append(exc)
            clients_ready.abort()

    gateway.start()
    try:
        threads = [
            threading.Thread(target=drive, args=(c,), daemon=True)
            for c in range(schedule.num_clients)
        ]
        for t in threads:
            t.start()
        try:
            clients_ready.wait(timeout=60.0)
        except threading.BrokenBarrierError:
            pass
        origin[0] = time.perf_counter()
        start_evt.set()
        gateway.serve(total, timeout=timeout, abort=lambda: bool(errors))
        for t in threads:
            t.join(timeout=60.0)
        gateway.check_refills()
    finally:
        gateway.stop()
    if errors:
        raise RuntimeError(
            f"{len(errors)} workload driver(s) failed replaying "
            f"{schedule.name!r}"
        ) from errors[0]
    report = gateway.report()
    for request in report.requests:
        request.logits = results.get((request.client, request.index), [])
    latencies = [done - scheduled for _, _, scheduled, done in rows]
    makespan = (
        max(done for _, _, _, done in rows) - origin[0] if rows else 0.0
    )
    columns = _workload_columns(
        schedule,
        latencies,
        admission=gateway.ledger.admission(),
        makespan=makespan,
        time_scale=time_scale,
    )
    columns["busy_retries"] = backoff["busy_retries"]
    columns["retry_sleep_seconds"] = round(backoff["retry_sleep_seconds"], 6)
    report.workloads[schedule.name] = columns
    return report


# -- analytic execution -----------------------------------------------------------


@dataclass(frozen=True)
class ServiceModel:
    """What a second costs: the calibrated parameters the simulator runs on.

    ``online_seconds`` is one online phase on the (serialized) serving
    thread; ``demand_mint_seconds`` one miss-path offline phase;
    ``refill_mint_seconds`` one background refill mint on a pool worker.
    ``workers`` bounds concurrent mints, ``store_entries`` the store's
    capacity in precompute entries (None = unbounded), ``max_queue``
    the gateway's admission threshold.
    """

    online_seconds: float
    demand_mint_seconds: float
    refill_mint_seconds: float
    workers: int = 1
    store_entries: int | None = None
    prefill: int = 1
    max_queue: int = DEFAULT_MAX_QUEUE


def replay_analytic(schedule: Schedule, model: ServiceModel) -> dict:
    """Replay a schedule through the discrete-event engine; returns columns.

    Each client's requests run through the gateway's own
    :class:`~repro.runtime.connection.ConnectionMachine` on the simulated
    clock, over one :class:`~repro.runtime.policy.RefillLedger`. Around it
    the model keeps what the gateway's timing rests on: a capacity-1
    serving resource (the selector thread serializes online phases), a
    ``workers``-wide mint resource, per-client buffers refilled by a
    background worker, and FIFO cross-client eviction under
    ``store_entries``. Every wait ends at its event: a hold when the
    client's mint lands, the refill worker's idle wait at the next
    completion. Returns the functional replay's column block plus
    hit/demand/eviction counters and the admission tallies.
    """
    env = Environment()
    C = schedule.num_clients
    total = schedule.total_requests
    serving = Resource(env, 1)
    mint_slots = Resource(env, max(1, model.workers))
    ledger = RefillLedger(
        C,
        caps=schedule.request_counts(),
        max_queue=model.max_queue,
        mint_parallelism=model.workers,
    )
    buffered = [0] * C
    admit_order: list[int] = []  # admission-ordered entries (FIFO eviction)
    latencies: list[float] = []
    served: list = []
    tally = {"evictions": 0, "last_completion": 0.0}

    def admit(c: int) -> None:
        if model.store_entries is not None:
            if model.store_entries < 1:
                return  # budget admits no entry: every request misses
            while sum(buffered) >= model.store_entries:
                buffered[admit_order.pop(0)] -= 1
                tally["evictions"] += 1
        buffered[c] += 1
        admit_order.append(c)

    def take(c: int):
        """The machine's store look: consume client c's oldest entry, or
        None when it has none."""
        if buffered[c]:
            buffered[c] -= 1
            admit_order.remove(c)  # oldest entry of this client
            return True

    # Re-armed one-shot events: landed[c] fires when a refill mint for
    # client c lands; kicked at every completion, which is when the
    # gateway kicks its refill driver (a credit may have been posted).
    landed = [Event(env) for _ in range(C)]
    kicked = Event(env)

    # Prefill: round-robin, instantaneous and untimed at t=0 (the
    # functional run brackets prefill outside the serve window too).
    for _ in range(model.prefill):
        for c in range(C):
            ledger.reserve(c)
            ledger.landed(c)
            admit(c)

    def mint_proc(c: int):
        grant = mint_slots.request()
        yield grant
        yield Timeout(env, model.refill_mint_seconds)
        mint_slots.release()
        ledger.landed(c, model.refill_mint_seconds)
        admit(c)
        fired, landed[c] = landed[c], Event(env)
        fired.succeed()

    def refill_proc():
        while len(served) < total:
            claimed = ledger.claim(buffered, env.now)
            if claimed is None:
                yield kicked
                continue
            env.process(mint_proc(claimed[0]))
            yield Timeout(env, 0.0)

    # The phases a request runs: a demand mint (a miss's OFFER) on a mint
    # slot, the online phase on the serving thread.
    phases = {
        OFFER: (mint_slots, model.demand_mint_seconds),
        START_ONLINE: (serving, model.online_seconds),
    }

    def client_proc(c: int, lane):
        nonlocal kicked
        machine = ConnectionMachine(
            ledger, lambda _: take(c), lambda: env.now, nullcontext()
        )
        machine.hello(client_name(c), c)
        for a in lane:
            if schedule.mode == MODE_OPEN:
                delay = a.at - env.now
                if delay > 0:
                    yield Timeout(env, delay)
                scheduled = a.at
            else:
                if a.think > 0:
                    yield Timeout(env, a.think)
                scheduled = env.now
            # One request at a time per client and no deferral cap: the
            # machine answers BUSY or admits, never queues or says GOAWAY.
            actions = machine.request(a.index)
            while not actions or actions[0][0] != DONE:
                if not actions:  # look in the store; held: when it lands
                    if machine.state == machine.WAIT_STORE:
                        yield landed[c]
                    actions = machine.retry()
                    continue
                action, value = actions.pop(0)
                if action == BUSY:
                    yield Timeout(env, value)
                    actions = machine.request(a.index)
                elif action in phases and value is None:  # not a hit's OFFER
                    resource, seconds = phases[action]
                    yield resource.request()
                    machine.started()
                    yield Timeout(env, seconds)
                    resource.release()
                    actions = machine.phase_done()
            served.append(actions[0][1])
            fired, kicked = kicked, Event(env)
            fired.succeed()
            tally["last_completion"] = env.now
            latencies.append(env.now - scheduled)

    lanes = schedule.per_client()
    for c in range(C):
        if lanes[c]:
            env.process(client_proc(c, lanes[c]))
    env.process(refill_proc())
    env.run()

    admission = ledger.admission()
    columns = _workload_columns(
        schedule,
        latencies,
        admission=admission,
        makespan=tally["last_completion"],
    )
    hits = sum(r.hit for r in served)
    columns.update(
        {
            "hits": hits,
            "demand_mints": len(served) - hits,
            "evictions": tally["evictions"],
            "minted": sum(ledger.minted),
            **admission,
        }
    )
    return columns
