"""One schedule, two executions — and the saturation acceptance case.

Pins the workload engine's core contract: the functional gateway replay
and the analytic discrete-event replay consume byte-identical schedule
JSON and report the same column block; a skewed + bursty schedule under
a starved store and zero admission queue drives real deferrals with a
balanced admission ledger while every served logit still matches the
plaintext oracle.
"""

import shutil
import tempfile

import pytest

from repro.core.lowering import lower_network, plaintext_reference
from repro.runtime.pool import PrecomputePool
from repro.runtime.serving import demo_network_and_params
from repro.runtime.store import PrecomputeStore
from repro.workload.drivers import (
    ServiceModel,
    draw_schedule_inputs,
    replay_analytic,
    replay_functional,
)
from repro.workload.generators import (
    BurstEnvelope,
    Schedule,
    closed_schedule,
    poisson_schedule,
    uniform_schedule,
    zipf_rates,
)

NETWORK, PARAMS = demo_network_and_params()


def _functional(schedule, *, budget_mb=8.0, workers=2, **kwargs):
    root = tempfile.mkdtemp(prefix="repro-workload-test-")
    try:
        store = PrecomputeStore(root, byte_budget=int(budget_mb * 1e6))
        with PrecomputePool(workers=workers) as pool:
            return replay_functional(
                schedule, NETWORK, PARAMS, store, pool=pool, **kwargs
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# Replays the saturation schedule 50x faster than drawn: client 0's three
# arrivals fall within 4 ms, so each of its later requests is issued at
# the DONE of the one before, while the refill that DONE earned is owed or
# in flight — a mint takes tens of ms — and is deferred whatever a request
# costs. At the drawn pace (10 req/s) its gaps are ~0.1 s, and whether a
# refill was still owed at an arrival depended on how long requests took.
SATURATION_TIME_SCALE = 0.02


def _saturation_schedule():
    return poisson_schedule(
        3,
        zipf_rates(3, 10.0, 1.5),
        horizon=1.5,
        seed=11,
        name="burst-skewed",
        burst=BurstEnvelope(on_seconds=0.6, off_seconds=0.5, off_factor=0.1,
                            seed=3),
        max_per_client=3,
    )


def test_one_schedule_two_executions():
    """Both drivers consume the same bytes and report the same columns."""
    schedule = uniform_schedule(2, 2, 0.3, name="pair")
    blob = schedule.to_json()
    # The analytic run consumes a schedule reconstructed from the very
    # bytes the functional run serializes — the canonical-JSON contract.
    reloaded = Schedule.from_json(blob)
    assert reloaded.to_json() == blob

    report = _functional(schedule)
    measured = report.workloads["pair"]

    predicted = replay_analytic(
        reloaded,
        ServiceModel(
            online_seconds=0.2,
            demand_mint_seconds=0.2,
            refill_mint_seconds=0.35,
            workers=2,
        ),
    )
    shared = {
        "mode", "requests", "latency_p50", "latency_p95", "latency_p99",
        "mean_latency", "deferral_rate", "rejected", "goodput_rps",
        "offered_rps", "makespan_seconds",
    }
    assert shared <= set(measured) and shared <= set(predicted)
    assert measured["mode"] == predicted["mode"] == "open"
    assert measured["requests"] == predicted["requests"] == 4
    assert measured["offered_rps"] == predicted["offered_rps"]
    assert predicted["goodput_rps"] > 0
    assert measured["goodput_rps"] > 0
    # All four completions measured; gateway ledger balances.
    assert report.requests_issued == (
        report.requests_admitted
        + report.requests_deferred
        + report.requests_rejected
    )


def test_saturation_deferrals_ledger_and_oracle():
    """The acceptance case: skewed + bursty traffic on a starved gateway
    defers (BUSY) yet never corrupts a result."""
    schedule = _saturation_schedule()
    assert schedule.request_counts()[0] >= schedule.request_counts()[-1]
    inputs = draw_schedule_inputs(schedule, NETWORK, PARAMS)
    report = _functional(
        schedule, budget_mb=0.2, gateway_max_queue=0, inputs=inputs,
        time_scale=SATURATION_TIME_SCALE,
    )
    assert report.requests_deferred > 0
    assert report.requests_issued == (
        report.requests_admitted
        + report.requests_deferred
        + report.requests_rejected
    )
    assert report.requests_admitted == schedule.total_requests
    columns = report.workloads["burst-skewed"]
    assert columns["busy_retries"] == report.requests_deferred
    assert columns["retry_sleep_seconds"] > 0.0
    assert columns["deferral_rate"] > 0.0
    # Byte-identical logits versus the plaintext oracle for EVERY request.
    lowered = lower_network(NETWORK, PARAMS.t)
    assert len(report.requests) == schedule.total_requests
    for request in report.requests:
        c = int(request.client[len("client"):])
        assert request.logits == plaintext_reference(
            lowered, inputs[c][request.index]
        )


def test_closed_loop_functional():
    schedule = closed_schedule(2, 2, 0.05, seed=4, name="closed-pair")
    report = _functional(schedule)
    columns = report.workloads["closed-pair"]
    assert columns["mode"] == "closed"
    assert columns["requests"] == 4
    assert columns["latency_p95"] > 0


def test_draw_schedule_inputs_deterministic():
    schedule = uniform_schedule(2, 3, 0.1)
    a = draw_schedule_inputs(schedule, NETWORK, PARAMS)
    b = draw_schedule_inputs(schedule, NETWORK, PARAMS)
    assert a == b
    assert len(a) == 2 and all(len(lane) == 3 for lane in a)
    size = NETWORK.input_shape.elements
    assert all(len(vec) == size for lane in a for vec in lane)
    assert draw_schedule_inputs(schedule, NETWORK, PARAMS, input_seed=2) != a


def test_time_scale_validation():
    schedule = uniform_schedule(1, 1, 0.1)
    with pytest.raises(ValueError, match="time_scale"):
        replay_functional(schedule, NETWORK, PARAMS, None, time_scale=0.0)


# ----------------------------------------------------------- analytic replay


def test_analytic_replay_deterministic():
    schedule = _saturation_schedule()
    model = ServiceModel(
        online_seconds=0.2,
        demand_mint_seconds=0.2,
        refill_mint_seconds=0.35,
        workers=2,
        store_entries=2,
        max_queue=0,
    )
    assert replay_analytic(schedule, model) == replay_analytic(schedule, model)


# The full result dicts of three (schedule, model) pairs from this file —
# open, closed, store-starved — recorded before ``replay_analytic`` moved
# onto ``RefillLedger``: the swap is bit-neutral for the model. "open" was
# re-recorded when model holds began ending at landings (see CHANGES.md).
_PINNED = {
    "open": {
        "mode": "open", "requests": 4, "latency_p50": 0.25,
        "latency_p95": 0.475, "latency_p99": 0.495, "mean_latency": 0.35,
        "deferral_rate": 0.0, "rejected": 0, "goodput_rps": 4.210526,
        "offered_rps": 6.666667, "makespan_seconds": 0.95, "time_scale": 1.0,
        "hits": 4, "demand_mints": 0, "evictions": 0, "minted": 4,
        "issued": 4, "admitted": 4, "deferred": 0,
    },
    "closed": {
        "mode": "closed", "requests": 3, "latency_p50": 0.09375,
        "latency_p95": 0.121875, "latency_p99": 0.124375, "mean_latency": 0.1,
        "deferral_rate": 0.0, "rejected": 0, "goodput_rps": 3.333333,
        "offered_rps": 5.0, "makespan_seconds": 0.9, "time_scale": 1.0,
        "hits": 3, "demand_mints": 0, "evictions": 0, "minted": 3,
        "issued": 3, "admitted": 3, "deferred": 0,
    },
    # The retry hint follows the gateway's events: refill landings and
    # demand mints are timed, prefill is not, so the first deferrals get
    # the BUSY_RETRY_FLOOR hint.
    "starved": {
        "mode": "open", "requests": 8, "latency_p50": 1.0,
        "latency_p95": 1.9, "latency_p99": 1.98, "mean_latency": 1.044308,
        "deferral_rate": 0.692308, "rejected": 0, "goodput_rps": 3.112773,
        "offered_rps": 5.333333, "makespan_seconds": 2.570056,
        "time_scale": 1.0, "hits": 5, "demand_mints": 3, "evictions": 3,
        "minted": 8, "issued": 26, "admitted": 8, "deferred": 18,
    },
}


def test_analytic_replay_matches_recorded_results():
    cases = {
        "open": (
            uniform_schedule(2, 2, 0.3, name="pair"),
            ServiceModel(online_seconds=0.2, demand_mint_seconds=0.2,
                         refill_mint_seconds=0.35, workers=2),
        ),
        "closed": (
            closed_schedule(1, 3, 0.2, seed=1, distribution="fixed"),
            ServiceModel(online_seconds=0.1, demand_mint_seconds=0.1,
                         refill_mint_seconds=0.1, workers=1),
        ),
        "starved": (
            _saturation_schedule(),
            ServiceModel(online_seconds=0.2, demand_mint_seconds=0.2,
                         refill_mint_seconds=0.35, workers=2, store_entries=2,
                         max_queue=0),
        ),
    }
    for name, (schedule, model) in cases.items():
        assert replay_analytic(schedule, model) == _PINNED[name], name


def test_same_brain_mints_the_schedule_once():
    """A capped, ample-budget uniform schedule: the model and the live
    gateway — one ``RefillLedger`` class behind both — mint exactly one
    precompute per scheduled request."""
    schedule = uniform_schedule(2, 3, 0.05, name="same-brain")
    predicted = replay_analytic(
        schedule,
        ServiceModel(online_seconds=0.1, demand_mint_seconds=0.2,
                     refill_mint_seconds=0.1, workers=2),
    )
    report = _functional(schedule)
    assert predicted["minted"] == report.minted == schedule.total_requests


def test_analytic_counters_balance():
    schedule = _saturation_schedule()
    out = replay_analytic(
        schedule,
        ServiceModel(
            online_seconds=0.2,
            demand_mint_seconds=0.2,
            refill_mint_seconds=0.35,
            workers=2,
            store_entries=2,
            max_queue=0,
        ),
    )
    total = schedule.total_requests
    assert out["requests"] == total
    assert out["hits"] + out["demand_mints"] == total
    assert out["admitted"] == total
    assert out["issued"] == out["admitted"] + out["deferred"]
    assert out["deferred"] > 0  # max_queue=0 must defer under a burst
    assert out["evictions"] > 0  # 2-entry store, 3 clients prefilled


def test_analytic_store_pressure_monotone():
    """More store entries → no more demand mints (hits can only improve)."""
    schedule = poisson_schedule(3, 3.0, horizon=2.0, seed=5,
                                max_per_client=3)
    base = dict(online_seconds=0.1, demand_mint_seconds=0.3,
                refill_mint_seconds=0.3, workers=2)
    starved = replay_analytic(schedule, ServiceModel(**base, store_entries=1))
    roomy = replay_analytic(schedule, ServiceModel(**base, store_entries=None))
    assert starved["demand_mints"] >= roomy["demand_mints"]
    assert roomy["evictions"] == 0


def test_analytic_zero_entry_store_all_demand():
    schedule = uniform_schedule(2, 2, 0.5)
    out = replay_analytic(
        schedule,
        ServiceModel(online_seconds=0.1, demand_mint_seconds=0.2,
                     refill_mint_seconds=0.2, workers=1, store_entries=0,
                     prefill=0),
    )
    assert out["hits"] == 0
    assert out["demand_mints"] == schedule.total_requests


def test_analytic_closed_mode_uses_think_gaps():
    schedule = closed_schedule(1, 3, 0.2, seed=1, distribution="fixed")
    out = replay_analytic(
        schedule,
        ServiceModel(online_seconds=0.1, demand_mint_seconds=0.1,
                     refill_mint_seconds=0.1, workers=1),
    )
    # 3 requests × (0.2 think + 0.1 online), no queueing: makespan ≈ 0.9.
    assert out["requests"] == 3
    assert out["makespan_seconds"] == pytest.approx(0.9, rel=0.2)
