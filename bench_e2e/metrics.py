"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is generated from this module
(``python -m bench_e2e.metrics > BENCHMARK.json``) and a test keeps the
two equal, so the contract file never drifts from what the code emits.
"""

from __future__ import annotations

import json

RUN_SECONDS = 27

WORKLOADS = (
    ("infer_cg_delphi",
     "one caller, Client-Garbler, delphi params, 16-8-3 MLP, in-memory: HE "
     "and key material do nearly all the offline work, OT the online work"),
    ("infer_sg_wide",
     "one caller, Server-Garbler, fast params, 16-128-3 MLP, loopback "
     "socket: GC and OT dominate and run the other way round; client storage"),
    ("serve_warm",
     "gateway + one keep-alive client, every request a store hit, pool idle "
     "while requests run: isolates the online path through gateway/store/wire"),
    ("serve_refill",
     "gateway + two zero-think clients, refill on: pre-processing lands on "
     "the request path and three processes share two cores"),
)

# (name, unit, better, bound). Timings are calibrated seconds (see
# calibrate.py). Byte counts are deterministic; their bound is only there
# so that any change at all is flagged.
END_TO_END = (
    ("offline_s", "s", "lower", 0.25),
    ("online_s", "s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.20),
    ("latency_p90_s", "s", "lower", 0.25),
    ("goodput_rps", "1/s", "higher", 0.20),
    ("offline_bytes", "B", "lower", 0.001),
    ("online_bytes", "B", "lower", 0.001),
    ("precompute_bytes", "B", "lower", 0.001),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# Layers whose exclusive self time the traced run reports per operation.
TIMED_LAYERS = (
    "he.keygen", "he.encdec", "he.matvec", "gc.garble", "gc.evaluate",
    "ot.iknp", "network.serialize", "network.send", "store.io",
    "store.codec", "core.linear", "core.session",
)
# offline/online: inside that phase of an infer_* inference; request:
# per request on serve_*.
PHASES = ("offline", "online", "request")


def _per_layer():
    rows = []
    for layer in TIMED_LAYERS:
        rows += [(f"{layer}.{phase}_s", "s", "lower") for phase in PHASES]
        rows.append((f"{layer}.calls", "count", "lower"))
    rows += [
        ("he.rotations", "count", "lower"),
        ("he.plain_mults", "count", "lower"),
        ("gc.circuits_garbled", "count", "lower"),
        ("gc.circuits_evaluated", "count", "lower"),
        ("ot.count", "count", "lower"),
        ("network.frames", "count", "lower"),
        ("network.frame_bytes", "B", "lower"),
        ("network.recv_wait_s", "s", "lower"),
        ("store.evictions", "count", "lower"),
        ("pool.jobs", "count", "lower"),
        ("pool.wait_s", "s", "lower"),
        ("pool.mint_rps", "1/s", "higher"),
        ("pool.peak_rss_mb", "MB", "lower"),
        ("gateway.hit_share", "share", "higher"),
        ("gateway.demand_mints", "count", "lower"),
        ("gateway.deferred_share", "share", "lower"),
        ("gateway.refill_overlap_s", "s", "higher"),
        ("core.lowering.setup_s", "s", "lower"),
        ("host.cal_s", "s", "lower"),
        ("host.cal_spread", "share", "lower"),
        ("raw.offline_s", "s", "lower"),
        ("raw.online_s", "s", "lower"),
        ("raw.latency_p50_s", "s", "lower"),
        ("raw.goodput_rps", "1/s", "higher"),
        ("raw.setup_s", "s", "lower"),
        ("latency.samples", "count", "higher"),
        ("fail_share", "share", "lower"),
        ("trace.coverage_share", "share", "higher"),
        ("trace.overhead_share", "share", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": ["python3", "-m", "bench_e2e"],
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
