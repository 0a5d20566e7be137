"""Figure 12: baseline vs proposed protocol across all network/dataset pairs.

The baseline Server-Garbler (sequential HE, even split) runs with 16, 32,
and 64 GB of client storage; the proposed protocol (Client-Garbler + LPHE
+ WSA) runs with only 16 GB. The proposed stack shows lower mean latency
everywhere and sustains markedly higher arrival rates — 2.24x in the
paper's headline.
"""

from __future__ import annotations

from repro.core.system import OfflineParallelism, SystemConfig, simulate_mean_latency
from repro.experiments.common import EVAL_PAIRS, print_rows, profile
from repro.profiling.model_costs import Protocol

# Arrival sweeps (minutes between requests) per dataset/network, following
# the paper's per-panel x-axes.
ARRIVAL_SWEEPS = {
    ("ResNet-32", "CIFAR-100"): (9, 5.5, 4, 3, 2.5, 2),
    ("VGG-16", "CIFAR-100"): (9.6, 6, 4.3, 3.4, 2.8, 2.4),
    ("ResNet-18", "CIFAR-100"): (12, 9, 7, 6, 5, 4.5),
    ("ResNet-32", "TinyImageNet"): (53, 27, 17, 13, 10.6, 8.9),
    ("VGG-16", "TinyImageNet"): (55, 28, 18, 14, 11, 9),
    ("ResNet-18", "TinyImageNet"): (100, 54, 36, 28, 22, 18),
}

BASELINE_STORAGE_GB = (16, 32, 64)


def configs_for(model: str, dataset: str) -> list[tuple[str, SystemConfig]]:
    p = profile(model, dataset)
    configs = [
        (
            f"SG-{gb}GB",
            SystemConfig(
                profile=p,
                protocol=Protocol.SERVER_GARBLER,
                client_storage_bytes=gb * 1e9,
                wsa=False,
                parallelism=OfflineParallelism.SEQUENTIAL,
            ),
        )
        for gb in BASELINE_STORAGE_GB
    ]
    configs.append(
        (
            "Proposed-16GB",
            SystemConfig(
                profile=p,
                protocol=Protocol.CLIENT_GARBLER,
                client_storage_bytes=16e9,
                wsa=True,
                parallelism=OfflineParallelism.LPHE,
            ),
        )
    )
    return configs


def run(
    model: str,
    dataset: str,
    replications: int = 3,
    horizon_hours: float = 24.0,
) -> list[dict]:
    rows = []
    for label, config in configs_for(model, dataset):
        for minutes in ARRIVAL_SWEEPS[(model, dataset)]:
            stats = simulate_mean_latency(
                config, minutes * 60, horizon=horizon_hours * 3600,
                replications=replications,
            )
            rows.append(
                {
                    "model": model,
                    "dataset": dataset,
                    "system": label,
                    "req_per_min": f"1/{minutes:g}",
                    "mean_latency_min": stats["latency"] / 60,
                }
            )
    return rows


def run_all(replications: int = 2, horizon_hours: float = 24.0) -> list[dict]:
    rows = []
    for model, dataset in EVAL_PAIRS:
        rows.extend(
            run(model, dataset, replications=replications,
                horizon_hours=horizon_hours)
        )
    return rows


def main() -> None:
    for model, dataset in EVAL_PAIRS:
        print_rows(f"Figure 12: {model} on {dataset}", run(model, dataset))


if __name__ == "__main__":
    main()
