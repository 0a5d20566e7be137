"""A/A check: the same checkout measured twice must agree within bounds.

``python -m bench_e2e.aa --sets 2 --runs 3 [--seed S]`` runs every
workload ``runs`` times per set (run k of every set uses seed S+k),
prints per (workload, metric) each set's median and spread, the signed
share by which the later set reads worse than the first, and the bound
from ``BENCHMARK.json``. Two sets that differ by more than the bound in
either direction are a breach, and the exit code is non-zero on any.
Byte counts must repeat exactly. With ``--sets 1`` it reports spreads only.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from bench_e2e.calibrate import spread
from bench_e2e.metrics import END_TO_END, WORKLOADS
from bench_e2e.run import last_json, run_child


def worse_by(first: float, later: float, better: str) -> float:
    """Share of ``first`` by which ``later`` is worse (negative: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench_e2e.aa", description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = [name for name, _ in WORKLOADS]

    # values[set][workload][metric] -> one value per run
    values = [{name: {} for name in names} for _ in range(args.sets)]
    wrong = 0
    for s in range(args.sets):
        for k in range(args.runs):
            for name in names:
                start = time.perf_counter()
                child = run_child(["--workload", name, "--seed", str(args.seed + k)])
                wall = time.perf_counter() - start
                if child.returncode != 0:
                    sys.stdout.write(child.stdout)
                    wrong += 1
                    continue
                for metric, cell in last_json(child.stdout)["metrics"].items():
                    values[s][name].setdefault(metric, []).append(cell["value"])
                print(f"# set {s + 1} run {k + 1} {name}: {wall:.1f} s", flush=True)

    breaches = wrong
    header = f"{'workload':16s} {'metric':17s}"
    for s in range(args.sets):
        header += f" {'median' + str(s + 1):>14s} {'spread' + str(s + 1):>8s}"
    print(header + f" {'worse_by':>9s} {'bound':>6s}")
    for name in names:
        for metric, unit, better, bound in END_TO_END:
            cells = [values[s][name].get(metric, []) for s in range(args.sets)]
            if not all(cells):
                continue
            medians = [statistics.median(c) for c in cells]
            row = f"{name:16s} {metric:17s}"
            for c, m in zip(cells, medians):
                row += f" {m:14.6f} {spread(c):8.4f}"
            worst = max(
                (worse_by(medians[0], m, better) for m in medians[1:]),
                key=abs, default=0.0,
            )
            if unit == "B":
                bound = 0.0
            bad = abs(worst) > bound
            breaches += bad
            row += f" {worst:9.4f} {bound:6.3f}"
            print(row + ("  BREACH" if bad else ""))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
