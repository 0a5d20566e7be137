"""Telemetry spine: tracing, metrics registry, phase accounting, stats.

The spine's contract is observational transparency: with telemetry off,
every call site pays one attribute check and returns shared no-op
singletons (no allocation, no timestamps, no lock traffic); with it on,
logits and wire transcripts are byte-identical to the off run — the
instrumentation only *reads* the clock, never the RNG or the wire.

These tests pin down:

* disabled-path identity (shared null singletons) and a generous
  overhead guard on the disabled hot path;
* on/off logit parity for a full protocol run, with zero events off and
  a validating, phase-covering trace on;
* the Chrome-trace-event schema contract (ts/dur/pid/tid on every
  event, proper nesting per lane) in both directions;
* metrics basics, quantile estimation, exact Prometheus round-trip,
  and order-independent (commutative/associative) snapshot merges;
* cross-process merge through ``PrecomputePool.apply_async`` — worker
  events and counters land in the parent registry exactly once;
* exclusive-time phase accounting summing to the window wall-clock;
* per-frame transport counters keyed by direction and decoded format;
* the concurrent gateway end to end: live GWS1 stats with latency
  quantiles, a phase decomposition that sums to the serve window, and
  an exportable, validating trace — plus the CLI wiring for all of it.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

from repro import HybridProtocol, tiny_dataset, tiny_mlp, telemetry
from repro.he.params import fast_params
from repro.network.serialize import frame_format_name
from repro.network.transport import InMemoryTransport
from repro.runtime import PrecomputePool, PrecomputeStore
from repro.runtime.serving import mint_seed
from repro.telemetry import (
    HISTOGRAM_BOUNDS,
    METRICS,
    PHASE_NAMES,
    PHASES,
    TRACER,
    MetricsRegistry,
    PhaseClock,
    prometheus_to_snapshot,
    read_trace_events,
    snapshot_to_prometheus,
    validate_trace_events,
)
from repro.telemetry.metrics import _NULL_INSTRUMENT, series_key
from repro.telemetry.trace import _NULL_SPAN
from repro.workload import closed_schedule, draw_schedule_inputs, replay_functional

PARAMS = fast_params(n=256)


def _network(hidden=8):
    network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=hidden)
    network.randomize_weights(PARAMS.t, np.random.default_rng(0))
    return network


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with the global spine off and empty."""
    telemetry.configure(False)
    TRACER.reset()
    METRICS.reset()
    yield
    telemetry.configure(False)
    TRACER.reset()
    METRICS.reset()


# -- disabled path: identity and overhead -----------------------------------------


def test_disabled_apis_return_shared_noop_singletons():
    assert TRACER.span("a") is TRACER.span("b") is _NULL_SPAN
    assert telemetry.section("gc", "x") is _NULL_SPAN
    assert METRICS.counter("c") is _NULL_INSTRUMENT
    assert METRICS.gauge("g") is METRICS.histogram("h") is _NULL_INSTRUMENT
    # No-op instruments swallow everything without recording.
    METRICS.counter("c").inc(5)
    METRICS.histogram("h").observe(1.0)
    with TRACER.span("a"):
        pass
    telemetry.record_frame("send", b"\x01rest")
    assert TRACER.events() == []
    assert METRICS.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_disabled_hot_path_overhead_is_bounded():
    """100k disabled spans + counters must stay far under a second.

    The bound is deliberately loose (CI machines vary wildly); what it
    guards against is the disabled path regressing from 'one attribute
    check' to per-call allocation or locking.
    """
    n = 100_000
    start = time.perf_counter()
    for _ in range(n):
        with TRACER.span("hot"):
            pass
        METRICS.counter("hot").inc()
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"disabled-path overhead {elapsed:.3f}s for {n} calls"


# -- on/off parity over a full protocol run ---------------------------------------


def test_protocol_logits_identical_with_telemetry_on_and_off():
    network = _network()
    x = list(range(16))

    def run_once():
        protocol = HybridProtocol(network, PARAMS, garbler="client", seed=7)
        protocol.run_offline()
        return protocol.run_online(x)

    logits_off = run_once()
    assert TRACER.events() == []  # off means *zero* events, not few

    telemetry.configure(True)
    logits_on = run_once()
    assert logits_on == logits_off

    events = TRACER.events()
    assert events, "enabled run recorded no trace events"
    validate_trace_events(events)
    names = {e["name"] for e in events}
    # The session instrumentation covers HE, GC, and OT work plus the
    # resumable phase windows on both roles.
    assert any(n.startswith("he.") for n in names)
    assert any(n.startswith("gc.") for n in names)
    assert any(n.startswith("ot.") for n in names)
    assert any(n.startswith("session.client.") for n in names)
    assert any(n.startswith("session.server.") for n in names)


# -- trace schema validation -------------------------------------------------------


def _event(name, ts, dur, pid=1, tid=1, ph="X"):
    return {"name": name, "ph": ph, "ts": ts, "dur": dur, "pid": pid, "tid": tid}


def test_validate_trace_events_accepts_proper_nesting():
    events = [
        _event("parent", 0, 100),
        _event("child", 10, 30),
        _event("grandchild", 15, 5),
        _event("sibling", 50, 40),
        _event("other-lane", 20, 200, tid=2),
        _event("touching", 100, 10),  # starts exactly where parent ends
        _event("meta", 0, 0, ph="M"),
        _event("instant", 42, 0, ph="i"),
    ]
    assert validate_trace_events(events) == len(events)


def test_validate_trace_events_rejects_schema_violations():
    with pytest.raises(ValueError, match="missing 'dur'"):
        validate_trace_events(
            [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]
        )
    with pytest.raises(ValueError, match="not an int"):
        validate_trace_events([_event("x", 0.5, 1)])
    with pytest.raises(ValueError, match="negative"):
        validate_trace_events([_event("x", -1, 1)])
    with pytest.raises(ValueError, match="overlaps"):
        validate_trace_events([_event("a", 0, 100), _event("b", 50, 100)])


def test_export_jsonl_round_trips_and_validates(tmp_path):
    telemetry.configure(True)
    with TRACER.span("outer", kind="test"):
        with TRACER.span("inner"):
            pass
    TRACER.instant("marker", detail=1)
    path = tmp_path / "trace.jsonl"
    count = TRACER.export_jsonl(path)
    events = read_trace_events(path)
    assert len(events) == count == 3
    assert validate_trace_events(events) == 3
    by_name = {e["name"]: e for e in events}
    outer, inner = by_name["outer"], by_name["inner"]
    assert outer["args"] == {"kind": "test"}
    assert outer["pid"] == inner["pid"] == os.getpid()
    # inner nests inside outer on the same (real) thread lane
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]


def test_read_trace_events_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "ok"}\nnot json\n')
    with pytest.raises(ValueError, match="not valid JSON"):
        read_trace_events(path)
    path.write_text('[1, 2, 3]\n')
    with pytest.raises(ValueError, match="not an object"):
        read_trace_events(path)


def test_virtual_tracks_never_collide_with_thread_ids():
    telemetry.configure(True)
    track = TRACER.new_track("lane")
    assert track >= (1 << 24)
    import threading

    assert threading.get_native_id() < (1 << 24)
    # The allocation named the Perfetto lane via a metadata event.
    metas = [e for e in TRACER.events() if e["ph"] == "M"]
    assert metas and metas[0]["tid"] == track
    assert metas[0]["args"]["name"].startswith("lane#")


# -- metrics registry --------------------------------------------------------------


def test_metrics_basics_and_series_identity():
    registry = MetricsRegistry(enabled=True)
    registry.counter("reqs", client="c0").inc()
    registry.counter("reqs", client="c0").inc(2)
    registry.gauge("depth").set(3)
    registry.gauge("depth").set(1)  # set overwrites (max only on merge)
    snap = registry.snapshot()
    assert snap["counters"] == {series_key("reqs", {"client": "c0"}): 3}
    assert snap["gauges"] == {"depth": 1.0}
    # Label order never forks a series.
    assert series_key("m", {"b": 1, "a": 2}) == series_key("m", {"a": 2, "b": 1})


def test_histogram_quantiles_bracket_observations():
    registry = MetricsRegistry(enabled=True)
    hist = registry.histogram("lat")
    for value in (0.001, 0.002, 0.004, 0.1, 0.5, 1.0, 2.0, 8.0):
        hist.observe(value)
    assert hist.count == 8
    assert hist.sum == pytest.approx(11.607)
    # Log-bucket estimates: correct to within one power-of-two bucket.
    assert 0.001 <= hist.quantile(0.5) <= 0.5
    assert 1.0 <= hist.quantile(0.99) <= 16.0
    assert registry.histogram("empty").quantile(0.5) == 0.0
    # Overflow lands in +Inf, not out of range.
    hist.observe(1e9)
    assert hist.buckets[-1] == 1


def test_prometheus_round_trip_is_exact():
    registry = MetricsRegistry(enabled=True)
    registry.counter("frames", dir="send", format="field_vector").inc(12)
    registry.counter("frames", dir="recv", format="field_vector").inc(11)
    registry.gauge("occupancy_bytes").set(12345.5)
    registry.gauge("entries", store="s0").set(7)
    hist = registry.histogram("request_seconds", client='we"ird\\name')
    for value in (0.01, 0.2, 3.0):
        hist.observe(value)
    text = registry.to_prometheus()
    snap = prometheus_to_snapshot(text)
    assert snap == registry.snapshot()
    assert snapshot_to_prometheus(snap) == text
    # The exposition is self-describing: every family carries a TYPE.
    assert "# TYPE frames counter" in text
    assert "# TYPE request_seconds histogram" in text
    assert 'le="+Inf"' in text


def test_metric_merge_is_order_independent():
    def make(seed):
        registry = MetricsRegistry(enabled=True)
        registry.counter("jobs", worker=str(seed)).inc(seed)
        registry.counter("shared").inc(seed * 10)
        registry.gauge("peak").set(seed * 1.5)
        # Binary-exact values: float addition is only order-independent
        # when no rounding occurs, and that exactness is what keeps the
        # merged exposition byte-identical across snapshot orders.
        registry.histogram("lat").observe(0.25 * seed)
        return registry.snapshot()

    snaps = [make(s) for s in (1, 2, 3)]
    merged = []
    for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
        registry = MetricsRegistry(enabled=True)
        for i in order:
            registry.merge(snaps[i])
        merged.append(registry.to_prometheus())
    assert merged[0] == merged[1] == merged[2]
    snap = prometheus_to_snapshot(merged[0])
    assert snap["counters"]["shared"] == 60  # counters add
    assert snap["gauges"]["peak"] == 4.5  # gauges take the max
    assert snap["histograms"]["lat"]["count"] == 3  # buckets add


# -- cross-process merge through the pool -----------------------------------------


def _worker_job(n):
    """Pool job recording worker-side telemetry (enabled by the wrapper)."""
    with telemetry.TRACER.span("test.worker_job", n=n):
        telemetry.METRICS.counter("test_worker_jobs").inc()
        telemetry.METRICS.histogram("test_worker_values").observe(float(n))
    return n * 2


def test_worker_telemetry_merges_into_parent_exactly_once():
    telemetry.configure(True)
    with PrecomputePool(workers=2) as pool:
        jobs = [pool.apply_async(_worker_job, n) for n in (1, 2, 3)]
        values = [job.get(timeout=120) for job in jobs]
        # get() is idempotent: a second join must not double-merge.
        assert [job.get(timeout=120) for job in jobs] == values
    assert values == [2, 4, 6]

    snap = METRICS.snapshot()
    assert snap["counters"]["test_worker_jobs"] == 3
    assert snap["histograms"]["test_worker_values"]["count"] == 3
    events = TRACER.events()
    worker_events = [e for e in events if e["name"] == "test.worker_job"]
    assert sorted(e["args"]["n"] for e in worker_events) == [1, 2, 3]
    # Worker events carry the *worker's* pid on the shared monotonic
    # timeline, so Perfetto shows them as separate processes.
    assert all(e["pid"] != os.getpid() for e in worker_events)
    assert any(e["name"] == "pool.job" for e in events)
    validate_trace_events(events)


def test_single_worker_pool_skips_tracing_wrapper():
    """workers<=1 runs inline: same process, no payload plumbing."""
    telemetry.configure(True)
    with PrecomputePool(workers=1) as pool:
        assert pool.apply_async(_worker_job, 5).get() == 10
    events = [e for e in TRACER.events() if e["name"] == "test.worker_job"]
    assert len(events) == 1 and events[0]["pid"] == os.getpid()
    assert METRICS.snapshot()["counters"]["test_worker_jobs"] == 1


# -- phase accounting --------------------------------------------------------------


def test_phase_clock_exclusive_times_sum_to_window():
    clock = PhaseClock()
    handle = clock.open_window(root="wire")
    start = time.perf_counter()
    with clock.phase("gc"):
        time.sleep(0.02)
        with clock.phase("ot"):  # nested: excluded from gc's total
            time.sleep(0.02)
        time.sleep(0.01)
    time.sleep(0.01)  # unattributed time lands on the root
    wall = time.perf_counter() - start
    totals = handle.close()
    assert set(totals) <= set(PHASE_NAMES)
    # Exclusive attribution: sleeps land in their own phase only.
    assert totals["gc"] == pytest.approx(0.03, abs=0.02)
    assert totals["ot"] == pytest.approx(0.02, abs=0.02)
    assert totals["wire"] >= 0.01 - 0.002
    # The invariant the 5% CI criterion rests on: the buckets decompose
    # the window wall-clock exactly (accrual covers every instant once).
    assert sum(totals.values()) == pytest.approx(wall, abs=0.005)


def test_phase_clock_requires_and_rejects_windows():
    clock = PhaseClock()
    # No window open: charging is a silent no-op, not an error.
    with clock.phase("gc"):
        pass
    handle = clock.open_window(root="wire")
    with pytest.raises(RuntimeError):
        clock.open_window(root="wire")
    handle.close()
    clock.open_window(root="wire").close()  # reusable after close


def test_section_charges_phase_and_records_span():
    telemetry.configure(True)
    handle = PHASES.open_window(root="wire")
    with telemetry.section("gc", "gc.test_block", width=4):
        time.sleep(0.005)
    totals = handle.close()
    assert totals["gc"] >= 0.004
    spans = [e for e in TRACER.events() if e["name"] == "gc.test_block"]
    assert len(spans) == 1 and spans[0]["args"] == {"width": 4}


# -- transport frame counters ------------------------------------------------------


def test_transport_frames_counted_by_direction_and_format():
    telemetry.configure(True)
    a, b = InMemoryTransport.pair()
    from repro.network.frames import encode_hello

    frame = encode_hello("client0")
    assert frame_format_name(frame) == "gateway_hello"
    a.send(frame)
    assert b.recv(wait=True) == frame
    a.send(b"\xffgarbage")  # not a protocol frame: counted as "unknown"
    b.recv(wait=True)
    a.send(b"PI\x01\xee")  # wire magic with an unregistered format code
    b.recv(wait=True)
    counters = METRICS.snapshot()["counters"]
    hello_send = series_key(
        "transport_frames_total", {"dir": "send", "format": "gateway_hello"}
    )
    hello_recv = series_key(
        "transport_frames_total", {"dir": "recv", "format": "gateway_hello"}
    )
    assert counters[hello_send] == 1
    assert counters[hello_recv] == 1
    bytes_key = series_key(
        "transport_bytes_total", {"dir": "send", "format": "gateway_hello"}
    )
    assert counters[bytes_key] == len(frame)
    unknown = series_key(
        "transport_frames_total", {"dir": "send", "format": "unknown"}
    )
    assert counters[unknown] == 1
    unregistered = series_key(
        "transport_frames_total", {"dir": "send", "format": "fmt_0xee"}
    )
    assert counters[unregistered] == 1


# -- the concurrent gateway, end to end -------------------------------------------


def test_concurrent_gateway_stats_phases_and_trace(tmp_path):
    """2 clients through the gateway with the spine on: the stats
    snapshot, a phase decomposition summing to the serve window, and a
    validating exported trace — while logits still match the sequential
    reference."""
    telemetry.configure(True)
    network = _network()
    store = PrecomputeStore(tmp_path)
    schedule = closed_schedule(2, 1, 0.0)
    inputs = draw_schedule_inputs(schedule, network, PARAMS)
    with PrecomputePool(workers=1) as pool:
        report = replay_functional(
            schedule, network, PARAMS, store, pool=pool, inputs=inputs
        )

    assert len(report.requests) == 2 and report.hit_rate == 1.0
    for request in report.requests:
        c = int(request.client[len("client"):])
        reference = HybridProtocol(
            network, PARAMS, garbler="client",
            seed=mint_seed(0, c, request.index),
        )
        reference.run_offline()
        assert request.logits == reference.run_online(inputs[c][request.index])

    # The report carries the gateway's stats snapshot (the GWS1 wire op
    # serving the same dict is test_stats_probe_leaves_no_transcript_trace).
    stats = report.gateway_stats
    assert stats["served"] == 2
    assert stats["hit_rate"] == 1.0
    assert stats["dropped_sessions"] == 0
    assert stats["store"]["entries"] >= 0
    assert stats["admission"]["issued"] == 2
    assert stats["admission"]["admitted"] == 2
    assert stats["admission"]["connections_accepted"] == 2
    for c in range(2):
        client = stats["clients"][f"client{c}"]
        assert client["requests"] == 1
        assert client["latency_p50"] > 0
        assert client["latency_p95"] >= client["latency_p50"]
        assert client["latency_p99"] >= client["latency_p95"]
    json.dumps(stats)  # the snapshot must stay JSON-serializable

    # Exclusive phase decomposition of the serve window.
    phases = report.phase_seconds
    assert phases and set(phases) <= set(PHASE_NAMES)
    total = sum(phases.values())
    assert total == pytest.approx(report.serve_seconds, rel=0.15, abs=0.05)
    assert phases.get("queue", 0.0) > 0.0  # selector waits are charged

    summary = report.summary()
    assert summary["phase_seconds"] == {
        k: round(v, 6) for k, v in phases.items()
    }
    assert summary["gateway_stats"]["served"] == 2
    json.dumps(summary)

    # The whole run exports as Perfetto-loadable JSONL.
    path = tmp_path / "trace.jsonl"
    count = TRACER.export_jsonl(path)
    events = read_trace_events(path)
    assert validate_trace_events(events) == count > 0
    names = {e["name"] for e in events}
    for expected in ("gateway.prefill", "gateway.step", "gateway.request",
                     "gateway.connection", "gateway.take_precompute",
                     "session.client.online"):
        assert expected in names, f"missing span {expected!r}"
    # The connection span must enclose its requests' spans: one keep-alive
    # connection per client, each carrying its completed-request count.
    conn_events = [e for e in events if e["name"] == "gateway.connection"]
    assert len(conn_events) == 2
    assert {e["args"]["client"] for e in conn_events} == {
        "client0", "client1"
    }
    assert all(e["args"]["requests"] == 1 for e in conn_events)

    # Admission outcomes land on gateway_requests_total{client, outcome},
    # served results on gateway_served_total{client, result}.
    counters = METRICS.snapshot()["counters"]
    for c in range(2):
        admitted = series_key(
            "gateway_requests_total",
            {"client": f"client{c}", "outcome": "admitted"},
        )
        assert counters[admitted] == 1
        hits = series_key(
            "gateway_served_total", {"client": f"client{c}", "result": "hit"}
        )
        assert counters[hits] == 1


def test_stats_probe_leaves_no_transcript_trace(tmp_path):
    """A GWS1 probe must not mint a session, burn a seed, or count as a
    drop — transcripts stay byte-identical with and without probing."""
    from repro.runtime import ServingGateway, request_stats

    network = _network()
    store = PrecomputeStore(tmp_path)
    with PrecomputePool(workers=1) as pool:
        gateway = ServingGateway(
            network, PARAMS, 1, store, pool=pool, garbler="client",
            expected_per_client=1,
        )
        gateway.start()
        try:
            import threading

            box = {}

            def probe():
                box["stats"] = request_stats(
                    "127.0.0.1", gateway.port, retries=5
                )

            thread = threading.Thread(target=probe, daemon=True)
            thread.start()
            deadline = time.monotonic() + 30
            while thread.is_alive() and time.monotonic() < deadline:
                gateway.poll(0.05)
            thread.join(timeout=5)
        finally:
            gateway.stop()
    stats = box["stats"]
    assert stats["served"] == 0
    assert stats["live_sessions"] == 0
    assert stats["clients"]["client0"]["requests"] == 0
    assert stats["clients"]["client0"]["expected_time_to_miss"] is None
    assert gateway.dropped_sessions == 0  # a clean probe is not a drop
    assert gateway._session_counter == 0  # no session, no seed burned


# -- CLI wiring --------------------------------------------------------------------


def test_cli_serve_with_telemetry_artifacts(tmp_path):
    from repro.__main__ import main

    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.prom"
    summary = tmp_path / "summary.json"
    argv = [
        "--workload", "closed", "--workload-think", "0",
        "--workload-clients", "2", "--workload-requests", "1",
        "--workers", "1",
        "--workload-out", str(summary),
        "--telemetry", "--trace-out", str(trace),
        "--metrics-out", str(metrics), "--stats",
    ]
    assert main(argv) == 0

    data = json.loads(summary.read_text())["summary"]
    for key in ("refill_overlap_seconds", "peak_live_sessions",
                "dropped_sessions", "phase_seconds", "gateway_stats"):
        assert key in data
    assert data["connections_accepted"] == 2
    assert data["gateway_stats"]["served"] == 2
    phases = data["phase_seconds"]
    assert phases and set(phases) <= set(PHASE_NAMES)
    assert sum(phases.values()) == pytest.approx(
        data["serve_seconds"], rel=0.15, abs=0.05
    )

    events = read_trace_events(trace)
    assert validate_trace_events(events) > 0

    text = metrics.read_text()
    snap = prometheus_to_snapshot(text)
    assert snapshot_to_prometheus(snap) == text
    frame_counters = [
        k for k in snap["counters"] if k.startswith("transport_frames_total")
    ]
    assert frame_counters, "transport frame counters missing from exposition"


def test_cli_workload_exports_telemetry_after_the_run(tmp_path, capsys):
    """``--trace-out``, ``--metrics-out`` and ``--stats`` are handled once,
    after whichever mode ran: an open-loop ``--workload`` run without an
    artifact still writes a schema-valid trace and an exposition that
    round-trips, and prints the gateway's stats snapshot."""
    from repro.__main__ import main

    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.prom"
    argv = [
        "--workload", "poisson", "--workload-clients", "2",
        "--workload-rate", "4", "--workload-horizon", "0.5",
        "--workload-requests", "1", "--workers", "1",
        "--telemetry", "--trace-out", str(trace),
        "--metrics-out", str(metrics), "--stats",
    ]
    assert main(argv) == 0

    assert validate_trace_events(read_trace_events(trace)) > 0
    text = metrics.read_text()
    assert snapshot_to_prometheus(prometheus_to_snapshot(text)) == text
    out = capsys.readouterr().out
    assert "gateway stats:" in out
    assert f"to {trace}" in out and f"to {metrics}" in out
