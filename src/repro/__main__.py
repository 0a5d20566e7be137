"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro --list
    python -m repro fig3 fig9 table1
    python -m repro all          # everything (~9 s, 8 of them fig7/10/12/13)
    python -m repro --workload closed --workload-think 0   # serve clients
"""

from __future__ import annotations

import argparse
import sys

from repro.backend import available_backends, set_backend
from repro.experiments import ALL_EXPERIMENTS

FAST = ("fig3", "fig4", "fig5", "table1", "fig8", "fig9", "fig11", "fig14")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from 'Characterizing and "
        "Optimizing End-to-End Systems for Private Inference' (ASPLOS'23).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (fig3..fig14, table1), 'fast', or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--backend",
        choices=("auto",) + available_backends(),
        default=None,
        help="compute backend for the functional crypto substrate "
        "(overrides the REPRO_BACKEND environment variable; 'auto' picks "
        "numpy when available, falling back to exact python per modulus)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="whole-mint worker processes for --workload and --plan "
        "(overrides the REPRO_WORKERS environment variable; default all "
        "cores)",
    )
    parser.add_argument(
        "--gateway-max-queue",
        type=int,
        default=None,
        metavar="N",
        help="with --workload: the gateway's admission "
        "backlog threshold — requests arriving while waiters + credits "
        "+ in-flight mints exceed N are answered with BUSY (default 8)",
    )
    parser.add_argument(
        "--workload",
        choices=("poisson", "closed", "burst", "skewed"),
        default=None,
        help="instead of experiments, replay a generated arrival schedule "
        "against the concurrent gateway (poisson: uniform open-loop; "
        "skewed: Zipf hot-client rates; burst: skewed + on/off envelope; "
        "closed: think-time loop, with --workload-think 0 the one "
        "functional serving run) and verify every logit against the "
        "plaintext oracle",
    )
    parser.add_argument(
        "--workload-clients",
        type=int,
        default=3,
        metavar="N",
        help="with --workload: number of clients (default 3)",
    )
    parser.add_argument(
        "--workload-rate",
        type=float,
        default=4.0,
        metavar="RPS",
        help="with --workload (open-loop kinds): aggregate offered rate "
        "in requests/second (default 4.0)",
    )
    parser.add_argument(
        "--workload-horizon",
        type=float,
        default=2.0,
        metavar="S",
        help="with --workload (open-loop kinds): schedule horizon in "
        "seconds (default 2.0)",
    )
    parser.add_argument(
        "--workload-requests",
        type=int,
        default=3,
        metavar="R",
        help="with --workload: per-client request cap (open-loop) or "
        "request count (closed-loop) (default 3)",
    )
    parser.add_argument(
        "--workload-skew",
        type=float,
        default=1.2,
        metavar="S",
        help="with --workload skewed/burst: Zipf skew exponent — client "
        "0 is the hot client (default 1.2)",
    )
    parser.add_argument(
        "--workload-think",
        type=float,
        default=0.2,
        metavar="S",
        help="with --workload closed: mean exponential think time in "
        "seconds (default 0.2)",
    )
    parser.add_argument(
        "--workload-seed",
        type=int,
        default=0,
        metavar="N",
        help="with --workload: schedule generator seed (default 0)",
    )
    parser.add_argument(
        "--workload-budget-mb",
        type=float,
        default=8.0,
        metavar="MB",
        help="with --workload: global precompute store byte budget "
        "(0 = unbounded; default 8.0)",
    )
    parser.add_argument(
        "--workload-time-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="with --workload: stretch (>1) or compress (<1) the "
        "schedule's clock at replay time without changing its bytes",
    )
    parser.add_argument(
        "--workload-out",
        default=None,
        metavar="PATH",
        help="with --workload: write the JSON artifact (canonical "
        "schedule + measured summary) here",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="instead of experiments, run the capacity planner: calibrate "
        "the analytic service model against measured gateway runs, "
        "validate on a held-out schedule, and sweep (workers, store) "
        "grids for the cheapest configuration meeting the SLO",
    )
    parser.add_argument(
        "--plan-clients",
        type=int,
        default=8,
        metavar="N",
        help="with --plan: clients to plan for (default 8)",
    )
    parser.add_argument(
        "--plan-rate",
        type=float,
        default=3.0,
        metavar="RPS",
        help="with --plan: aggregate offered rate to plan for "
        "(default 3.0)",
    )
    parser.add_argument(
        "--plan-slo-p95",
        type=float,
        default=2.0,
        metavar="S",
        help="with --plan: SLO ceiling on predicted p95 latency "
        "(default 2.0 seconds)",
    )
    parser.add_argument(
        "--plan-out",
        default=None,
        metavar="PATH",
        help="with --plan: write the planner artifact JSON (calibration "
        "runs, validation errors, sweep table, chosen config) here",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="enable the telemetry spine (structured tracing + metrics "
        "registry) for this run; equivalent to REPRO_TELEMETRY=1. "
        "Transcripts and logits are byte-identical either way",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="with --telemetry: export the collected trace as Chrome "
        "trace-event JSONL (load at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="with --telemetry: write the metrics registry as Prometheus "
        "text exposition",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="with --workload: print the gateway's stats snapshot "
        "(per-client latency quantiles, queue depth, store occupancy, "
        "expected time-to-miss) after the run",
    )
    args = parser.parse_args(argv)
    if args.backend is not None:
        set_backend(args.backend)
    if args.telemetry:
        from repro import telemetry

        telemetry.configure(enabled=True)

    report = None
    if args.workload is not None:
        from repro.workload.cli import demo_workload

        report = demo_workload(
            args.workload,
            clients=max(1, args.workload_clients),
            rate=args.workload_rate,
            horizon=args.workload_horizon,
            requests=max(1, args.workload_requests),
            skew=args.workload_skew,
            think=args.workload_think,
            seed=args.workload_seed,
            workers=args.workers,
            budget_mb=args.workload_budget_mb,
            gateway_max_queue=args.gateway_max_queue,
            time_scale=args.workload_time_scale,
            out_path=args.workload_out,
        )
    elif args.plan:
        from repro.workload.cli import demo_plan

        demo_plan(
            clients=max(1, args.plan_clients),
            rate=args.plan_rate,
            workers=args.workers,
            budget_mb=args.workload_budget_mb,
            slo_p95=args.plan_slo_p95,
            out_path=args.plan_out,
        )
    elif args.list or not args.experiments:
        for key, module in ALL_EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{key:8s} {doc}")
        return 0
    else:
        selected: list[str] = []
        for item in args.experiments:
            if item == "all":
                selected.extend(ALL_EXPERIMENTS)
            elif item == "fast":
                selected.extend(FAST)
            elif item in ALL_EXPERIMENTS:
                selected.append(item)
            else:
                print(f"unknown experiment {item!r}; try --list",
                      file=sys.stderr)
                return 2
        for key in selected:
            ALL_EXPERIMENTS[key].main()

    if args.stats and report is not None and report.gateway_stats:
        import json

        print("gateway stats:")
        print(json.dumps(report.gateway_stats, indent=2, sort_keys=True))
    if args.telemetry:
        from repro.telemetry import METRICS, TRACER

        if args.trace_out:
            count = TRACER.export_jsonl(args.trace_out)
            print(f"wrote {count} trace events to {args.trace_out}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(METRICS.to_prometheus())
            print(f"wrote metrics to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
