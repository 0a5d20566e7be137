"""The one command: run workloads, print every metric, gate correctness.

``python -m bench_e2e --seed S [--workload W] [--seconds N] [--trace 1]``

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). Without it each workload runs in a process of
its own, so ``peak_rss_mb`` and ``setup_s`` of one workload never include
another's, and the last line merges them as ``<workload>/<metric>``.
The exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from bench_e2e.metrics import END_TO_END, PER_LAYER, PHASES, RUN_SECONDS, TIMED_LAYERS
from bench_e2e.metrics import WORKLOADS as WORKLOAD_ROWS

ROOT = Path(__file__).resolve().parent.parent
# A run's precompute stores live in a directory of its own beside the
# sources (the driver lets a run write only inside its checkout).
TMP_PREFIX = ".bench_tmp-"
WORKLOAD_NAMES = [name for name, _ in WORKLOAD_ROWS]
SETUPS = 3  # set-ups per run, the run's own last; setup_s is their median
MIN_COVERAGE = 0.90  # infer_*: share of an operation inside a specific layer
MAX_OVERHEAD = 0.05  # every workload: cost of recording the spans
# Environment that would change what the program under test does.
PINNED_ENV = (
    "REPRO_BACKEND", "REPRO_REPRESENTATION", "REPRO_WORKERS", "REPRO_TRANSPORT",
    "REPRO_TELEMETRY", "REPRO_GATEWAY_WAIT_S", "REPRO_GATEWAY_MAX_QUEUE",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="python -m bench_e2e", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the rounds of one workload measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="with --trace: write the recorded spans here")
    parser.add_argument("--out", metavar="PATH", help="also write the result here")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of each infer_* workload, one set-up")
    return parser.parse_args(argv)


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench_e2e", *args], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- one workload, in this process ---------------------------------------------


def forked_setup(build) -> float:
    """Raw seconds of one whole set-up in a forked child, which then exits.

    The parent has not imported ``repro`` yet, so the child pays for the
    imports and fills every cache from nothing, as the run's own set-up does.
    """
    sys.stdout.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            start = time.perf_counter()
            workload = build()
            try:
                workload.setup()
                seconds = time.perf_counter() - start
            finally:
                workload.close()
            os.write(write_end, repr(seconds).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError("a set-up in a forked child failed")
    return float(text)


def run_workload(args) -> dict:
    """Set up, run rounds for ``args.seconds``, check, summarize."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    from bench_e2e import calibrate
    from bench_e2e.trace import Tracer

    tracer = Tracer()  # records nothing until installed and enabled
    tmp = tempfile.mkdtemp(prefix=TMP_PREFIX, dir=ROOT)

    def build():
        from bench_e2e.workloads import WORKLOADS  # imports repro: set-up work

        return WORKLOADS[args.workload](args.seed, tracer, tmp)

    rounds: list[calibrate.Round] = []
    results = []
    setups = []  # calibrated seconds
    workload = None
    try:
        cal = calibrate.time_kernel()
        # The traced run reports no setup_s, and --smoke has time for one.
        for _ in range(0 if args.trace or args.smoke else SETUPS - 1):
            raw_setup = forked_setup(build)
            before, cal = cal, calibrate.time_kernel()
            setups.append(raw_setup * calibrate.CAL_REF_S / ((before + cal) / 2.0))
        start = time.perf_counter()
        if args.trace:
            tracer.install()
            tracer.enabled = True  # set-up is traced too: core.lowering.setup_s
        workload = build()
        mark = tracer.mark()
        workload.setup()
        raw_setup = time.perf_counter() - start
        setup_layers = workload.totals(mark)
        before, cal = cal, calibrate.time_kernel()
        setups.append(raw_setup * calibrate.CAL_REF_S / ((before + cal) / 2.0))
        deadline = time.perf_counter() + args.seconds
        longest = 0.0
        while True:
            start = time.perf_counter()
            result = workload.round(len(rounds) + 1)
            before, cal = cal, calibrate.time_kernel()
            results.append(result)
            rounds.append(calibrate.Round(
                before, cal, result.wall_s, result.attempted - result.failed,
                result.samples,
            ))
            longest = max(longest, time.perf_counter() - start)
            if time.perf_counter() + longest > deadline:
                break  # another round would not fit
        tracer.enabled = False
        finish = workload.finish()
    finally:
        if workload is not None:
            workload.close()
        if args.trace_out:
            tracer.write(args.trace_out)
        tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    breaches = workload.breaches
    gate_messages = []
    for line in workload.messages:
        print(f"FAIL {args.workload}: {line}")
    if not any(r.ops for r in rounds):
        raise SystemExit(f"{args.workload}: no operation succeeded, nothing to report")
    if args.trace:
        metrics = per_layer(workload, rounds, results, finish, setup_layers,
                            raw_setup)
        if (args.workload.startswith("infer_")
                and metrics["trace.coverage_share"] < MIN_COVERAGE):
            breaches += 1
            gate_messages.append(
                f"trace attributes only {metrics['trace.coverage_share']:.3f} "
                f"of an operation to a layer (< {MIN_COVERAGE})"
            )
        if metrics["trace.overhead_share"] > MAX_OVERHEAD:
            breaches += 1
            gate_messages.append(
                f"recording spans costs {metrics['trace.overhead_share']:.3f} "
                f"of an operation (> {MAX_OVERHEAD})"
            )
    else:
        metrics = end_to_end(workload, rounds)
        metrics["setup_s"] = statistics.median(setups)
    for line in gate_messages:
        print(f"FAIL {args.workload}: {line}")
    attempted = sum(r.attempted for r in results)
    failed = min(attempted, sum(r.failed for r in results) + breaches)
    metrics["fail_share"] = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance(workload, rounds),
    }


def end_to_end(workload, rounds) -> dict[str, float]:
    from bench_e2e import calibrate as cal

    latency = cal.pooled(rounds, "latency")
    p50 = statistics.median(latency)
    return {
        "offline_s": statistics.median(cal.pooled(rounds, "offline")),
        "online_s": statistics.median(cal.pooled(rounds, "online")),
        "latency_p50_s": p50,
        # infer_* has one latency per round, far too few for a tail: there
        # the highest percentile the samples support is the median itself.
        "latency_p90_s": (
            cal.percentile(latency, 0.90) if workload.many_requests else p50
        ),
        "goodput_rps": cal.goodput(rounds),
        "offline_bytes": workload.facts["offline_bytes"],
        "online_bytes": workload.facts["online_bytes"],
        "precompute_bytes": workload.facts["precompute_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, rounds, results, finish, setup_layers, raw_setup):
    """Per-operation layer numbers, medians over the rounds of the traced run."""
    from bench_e2e import calibrate as cal
    from bench_e2e.trace import span_cost
    from bench_e2e.workloads import UNTRACED

    def med(values):
        return statistics.median(values) if values else 0.0

    # layer -> one calibrated value per round, per operation
    seconds: dict[tuple[str, str], list[float]] = {}
    counts: dict[str, list[float]] = {}
    spans_per_op, attributed, total = [], 0.0, 0.0
    for i in range(len(rounds)):
        ops = max(1, results[i].attempted)
        layers = results[i].layers
        for phase, totals in layers.items():
            for layer, row in totals.items():
                seconds.setdefault((layer, phase), []).append(
                    row["self_s"] * rounds[i].scale / ops
                )
        once = layers["round"]
        for layer, row in once.items():
            counts.setdefault(layer, []).append(row["calls"] / ops)
            total += row["self_s"]
            if layer not in (UNTRACED, "core.session"):
                attributed += row["self_s"]
        sends = once.get("network.send", {"weighted": 0, "weight": 0})
        counts.setdefault("network.frames", []).append(sends["weighted"] / ops)
        counts.setdefault("network.frame_bytes", []).append(sends["weight"] / ops)
        spans_per_op.append(sum(row["calls"] for row in once.values()) / ops)

    facts = workload.facts
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        for phase in PHASES:
            out[f"{layer}.{phase}_s"] = med(seconds.get((layer, phase), []))
        out[f"{layer}.calls"] = med(counts.get(layer, []))
    out["he.rotations"] = facts["he_rotations"]
    out["he.plain_mults"] = facts["he_plain_mults"]
    out["gc.circuits_garbled"] = facts["gc_circuits_garbled"]
    out["gc.circuits_evaluated"] = facts["gc_circuits_evaluated"]
    out["ot.count"] = facts["ots_performed"]
    out["network.frames"] = med(counts["network.frames"])
    out["network.frame_bytes"] = med(counts["network.frame_bytes"])
    out["network.recv_wait_s"] = sum(
        med(seconds.get(("network.recv_wait", phase), [])) for phase in PHASES
    )
    out["pool.jobs"] = med(counts.get("pool.submit", []))
    out["pool.wait_s"] = med(seconds.get(("pool.wait", "round"), []))
    mint = cal.pooled(rounds, "mint")
    out["pool.mint_rps"] = 1.0 / statistics.median(mint) if mint else 0.0
    for name in ("store.evictions", "pool.peak_rss_mb", "gateway.hit_share",
                 "gateway.demand_mints", "gateway.deferred_share",
                 "gateway.refill_overlap_s"):
        out[name] = finish.get(name, 0.0)
    out["core.lowering.setup_s"] = setup_layers.get(
        "core.lowering", {"self_s": 0.0}
    )["self_s"]
    out["host.cal_s"], out["host.cal_spread"] = cal.host_stats(rounds)
    for name in ("offline", "online"):
        out[f"raw.{name}_s"] = statistics.median(
            cal.pooled(rounds, name, calibrated=False)
        )
    latency = cal.pooled(rounds, "latency", calibrated=False)
    out["raw.latency_p50_s"] = statistics.median(latency)
    out["raw.goodput_rps"] = cal.goodput(rounds, calibrated=False)
    out["raw.setup_s"] = raw_setup
    out["latency.samples"] = len(latency)
    out["trace.coverage_share"] = attributed / total if total else 0.0

    # Modelled, not an A/B of two runs: the host's noise is larger than the
    # 5 % the gate has to resolve. Spans per operation x cost of one span.
    raw_op_wall = med([r.wall_s / max(1, x.attempted) for r, x in zip(rounds, results)])
    out["trace.overhead_share"] = med(spans_per_op) * span_cost() / raw_op_wall
    return out


def provenance(workload, rounds) -> dict:
    import numpy

    from bench_e2e.calibrate import CAL_REF_S, host_stats, pooled

    return {
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "backend": workload.backend, "cal_ref_s": CAL_REF_S,
        "host.cal_s": host_stats(rounds)[0], "rounds": len(rounds),
        "latency_samples": len(pooled(rounds, "latency")),
    }


# -- presentation ------------------------------------------------------------------


def emit(result: dict, trace: int, out_path: str | None) -> None:
    """Every metric by name with its unit, then the result as the last line."""
    unit = {row[0]: row[1] for row in (PER_LAYER if trace else END_TO_END)}
    provenance = result.pop("provenance")
    print(f"# {json.dumps(provenance)}")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit[name]}
        for name in unit
    }
    for name, cell in result["metrics"].items():
        count = (f"  (n={provenance['latency_samples']})"
                 if name.startswith("latency_p") else "")
        print(f"{name:32s} {cell['value']:>16.6f} {cell['unit']}{count}")
    line = json.dumps(result)
    if out_path:
        Path(out_path).write_text(line + "\n")
    print(line)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # the round loop always runs one round
    if args.workload:
        result = run_workload(args)
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        emit(result, args.trace, args.out)
        return 0 if result["correct"] else 1

    names = [n for n in WORKLOAD_NAMES if n.startswith("infer_") or not args.smoke]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child_args = ["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            child_args.append("--smoke")
        if args.trace_out:
            child_args += ["--trace-out", f"{args.trace_out}.{name}"]
        child = run_child(child_args)
        sys.stdout.write(child.stdout)
        if child.returncode not in (0, 1):
            return child.returncode
        result = last_json(child.stdout)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, cell in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = cell
    line = json.dumps(merged)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0 if merged["correct"] else 1
