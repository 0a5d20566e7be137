"""Paired parent/change runs of the end-to-end benchmark, and the verdict
rule a perf claim is held to.

A claim rests on alternating pairs: run ``python3 -m bench_e2e`` on the
parent checkout and on the change, swapping which goes first every pair,
and compare each metric pair by pair. :func:`verdict` is the one rule:

* **gain** — the change wins at least nine in ten pairs (ties count for
  neither side) and the medians differ, in the metric's better
  direction, by more than the parent's interquartile spread;
* **regression** — the change's median is worse than the parent's by
  more than the metric's bound (``BENCHMARK.json``);
* **unresolved** — neither, and the parent's own spread is wider than
  the bound, so "level" cannot be told apart from a small loss;
* **level** — otherwise.

Every row also says whether the median difference clears the bound.
``BENCH_e2e.json`` at the repo root keeps one row per (workload, metric)
of each recorded claim; ``tests/test_bench_ledger.py`` re-derives every
stored verdict from its pairs. Record pairs with::

    python benchmarks/paired.py --parent-dir ../parent --parent-rev REV \\
        --title "what the change does" --workload infer_cg_delphi \\
        --seed 1 --pairs 10 --claim offline_s

``--parent-dir`` is a second checkout of the parent commit (``git clone``
or ``git archive``); the change is this checkout. Rows are appended to
``BENCH_e2e.json``; nothing else is written. A run that exits non-zero
is kept as a row of its own (``"verdict": "run_failed"``) and its pair
is left out of the metric rows; the recording carries on, and the script
exits 1 once the rows are written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_e2e.json"
MIN_WIN_SHARE = 0.9
STDERR_TAIL_LINES = 20  # of a failed run, kept in its error


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), by linear interpolation between order
    statistics (``statistics.quantiles``' inclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(pairs: list[list[float]], better: str, bound: float) -> dict:
    """The summary and verdict of ``[parent, change]`` pairs of one
    metric whose ``better`` direction is ``"lower"`` or ``"higher"`` and
    whose regression bound is ``bound`` (a share of the parent's median).
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "lower" else -1
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (p - c) < 0 for p, c in pairs)
    gain_by = sign * (p_median - c_median)  # > 0: the change is better
    spread = p3 - p1
    relative = gain_by / p_median if p_median else 0.0
    clears_spread = gain_by > spread
    clears_bound = abs(relative) > bound
    if wins >= MIN_WIN_SHARE * len(pairs) and clears_spread:
        outcome = "gain"
    elif -relative > bound:
        outcome = "regression"
    elif p_median and spread / abs(p_median) > bound:
        outcome = "unresolved"
    else:
        outcome = "level"
    return {
        "parent_quartiles": [p1, p_median, p3],
        "change_quartiles": [c1, c_median, c3],
        "wins": wins,
        "losses": losses,
        "ties": len(pairs) - wins - losses,
        "median_gain": gain_by,
        "relative_gain": relative,
        "parent_spread": spread,
        "clears_spread": clears_spread,
        "clears_bound": clears_bound,
        "verdict": outcome,
    }


class RunFailed(RuntimeError):
    """One ``bench_e2e`` run that exited non-zero, and what says why."""

    def __init__(self, checkout: Path, workload: str, seed: int,
                 exit_code: int, stderr_tail: str):
        super().__init__(
            f"bench_e2e in {checkout} (workload {workload}, seed {seed}) "
            f"exited {exit_code}; last lines of its stderr:\n{stderr_tail}"
        )
        self.checkout, self.exit_code = str(checkout), exit_code
        self.stderr_tail = stderr_tail


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One ``python3 -m bench_e2e`` run in ``checkout``: its JSON result.

    A run that exits non-zero raises :class:`RunFailed`, naming the
    checkout, the workload, the seed, the exit code and the last lines of
    the run's stderr, so a failed pair says why it failed.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        done = subprocess.run(
            [sys.executable, "-m", "bench_e2e", "--seed", str(seed),
             "--workload", workload, "--out", str(out)],
            cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
            # each checkout runs its own src/, whatever this process imports
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        if done.returncode:
            tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL_LINES:])
            raise RunFailed(checkout, workload, seed, done.returncode, tail)
        return json.loads(out.read_text())


def record(args) -> list[dict]:
    """Run the pairs and build one ledger row per end-to-end metric, over
    the pairs whose two runs both finished, and one row per failed run.

    A failed run does not stop the recording: its row (``verdict``
    ``"run_failed"``) keeps the pair, the side, the checkout, the exit
    code and the stderr tail, and the metric rows list its pair as
    ``dropped``.
    """
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": Path(args.parent_dir).resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    orders, failures = [], []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        orders.append(order[0])
        for side in order:
            try:
                runs[side].append(run_bench(sides[side], args.workload, args.seed))
            except RunFailed as failed:
                runs[side].append(None)
                failures.append({"pair": i, "side": side, "checkout": failed.checkout,
                                 "exit_code": failed.exit_code,
                                 "stderr_tail": failed.stderr_tail})
                print(failed, file=sys.stderr)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    host = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    common = {
        "title": args.title,
        "parent": args.parent_rev,
        "workload": args.workload,
        "seed": args.seed,
        "command": f"python3 -m bench_e2e --seed {args.seed} "
                   f"--workload {args.workload}",
    }
    rows = [{**common, "verdict": "run_failed", **f, "host": host} for f in failures]
    dropped = sorted({f["pair"] for f in failures})
    kept = [i for i in range(args.pairs) if i not in dropped]
    done = [(runs["parent"][i], runs["change"][i]) for i in kept]
    if len(done) < 2:
        return rows  # too few pairs left for a verdict
    for metric in contract["end_to_end"]:
        name = metric["name"]
        if not all(name in r["metrics"] for pair in done for r in pair):
            continue  # the workload does not report this metric
        pairs = [[p["metrics"][name]["value"], c["metrics"][name]["value"]]
                 for p, c in done]
        rows.append({
            **common,
            "metric": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "claimed": name in args.claim,
            "first": [orders[i] for i in kept],
            "dropped": dropped,
            "failed": [[p["failed"], c["failed"]] for p, c in done],
            "pairs": pairs,
            "host": host,
            **verdict(pairs, metric["better"], metric["bound"]),
        })
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-dir", required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--parent-rev", required=True, help="its commit id")
    parser.add_argument("--title", required=True, help="what the change does")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", action="append", default=[],
                        help="a metric the change claims to improve")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("a verdict needs at least two pairs")
    rows = record(args)
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {"rows": []}
    ledger["rows"].extend(rows)
    # One row a line: a new claim's rows show up as added lines.
    lines = ",\n".join(json.dumps(row) for row in ledger["rows"])
    LEDGER.write_text(f'{{"rows": [\n{lines}\n]}}\n')
    for row in rows:
        if row["verdict"] == "run_failed":
            print(f"{row['workload']}: pair {row['pair'] + 1}'s {row['side']} "
                  f"run exited {row['exit_code']}")
            continue
        print(f"{row['workload']}/{row['metric']}: {row['verdict']} "
              f"({row['wins']}/{len(row['pairs'])} wins, medians "
              f"{row['parent_quartiles'][1]:.6g} -> "
              f"{row['change_quartiles'][1]:.6g})")
    if any(row["verdict"] == "run_failed" for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
