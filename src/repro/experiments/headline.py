"""The paper's headline claims: 1.8x total PI speedup, 2.24x arrival rate.

Aggregates the per-pair improvements of the proposed stack (Client-Garbler
+ LPHE + WSA) over the baseline Server-Garbler protocol:

* single-inference total latency ratio (estimator, all six pairs);
* maximum sustainable arrival-rate ratio (analytic service floors,
  cross-checked by simulation in the test suite).
"""

from __future__ import annotations

from repro.core.analytic import max_sustainable_rate_per_minute
from repro.core.estimator import estimate
from repro.core.system import OfflineParallelism, SystemConfig
from repro.experiments.common import EVAL_PAIRS, print_rows, profile
from repro.profiling.model_costs import Protocol


def _configs(p):
    baseline = SystemConfig(
        profile=p,
        protocol=Protocol.SERVER_GARBLER,
        client_storage_bytes=16e9,
        wsa=False,
        parallelism=OfflineParallelism.SEQUENTIAL,
    )
    proposed = SystemConfig(
        profile=p,
        protocol=Protocol.CLIENT_GARBLER,
        client_storage_bytes=16e9,
        wsa=True,
        parallelism=OfflineParallelism.LPHE,
    )
    return baseline, proposed


def run() -> list[dict]:
    rows = []
    for model, dataset in EVAL_PAIRS:
        baseline, proposed = _configs(profile(model, dataset))
        base_est, prop_est = estimate(baseline), estimate(proposed)
        rows.append(
            {
                "model": model,
                "dataset": dataset,
                "total_speedup": base_est.total_seconds / prop_est.total_seconds,
                "baseline_rate_per_min": max_sustainable_rate_per_minute(baseline),
                "proposed_rate_per_min": max_sustainable_rate_per_minute(proposed),
                "rate_improvement": max_sustainable_rate_per_minute(proposed)
                / max_sustainable_rate_per_minute(baseline),
            }
        )
    return rows


def mean_total_speedup() -> float:
    rows = run()
    return sum(r["total_speedup"] for r in rows) / len(rows)


def mean_rate_improvement() -> float:
    rows = run()
    return sum(r["rate_improvement"] for r in rows) / len(rows)


def main() -> None:
    print_rows("Headline: proposed vs baseline", run())
    print(f"mean total PI speedup:       {mean_total_speedup():.2f}x (paper: 1.8x)")
    print(f"mean sustainable-rate gain:  {mean_rate_improvement():.2f}x (paper: 2.24x)")


if __name__ == "__main__":
    main()
