"""Figure 10: LPHE vs request-level parallelism (RLP) across storage budgets.

Both strategies run under the proposed protocol (Client-Garbler + WSA) for
ResNet-18 on TinyImageNet. With little storage, LPHE wins — RLP cannot
buffer enough pre-computes to use its cores. With abundant storage
(~140 GB, 17 pre-computes) RLP's higher pre-compute throughput sustains a
higher arrival rate.
"""

from __future__ import annotations

from repro.core.system import OfflineParallelism, SystemConfig, simulate_mean_latency
from repro.experiments.common import print_rows, profile
from repro.profiling.model_costs import Protocol

STORAGE_SWEEPS = {
    8: (104, 54, 37, 28, 22, 19),
    16: (104, 54, 37, 28, 22, 19),
    32: (85, 43, 28, 21, 17, 14),
    64: (85, 43, 28, 21, 17, 14),
    140: (68, 33, 22, 17, 13, 11),
}


def run(
    storage_gb: float = 16.0,
    model: str = "ResNet-18",
    dataset: str = "TinyImageNet",
    replications: int = 3,
    horizon_hours: float = 24.0,
) -> list[dict]:
    rows = []
    arrival_minutes = STORAGE_SWEEPS.get(int(storage_gb), STORAGE_SWEEPS[16])
    for parallelism in (OfflineParallelism.LPHE, OfflineParallelism.RLP):
        config = SystemConfig(
            profile=profile(model, dataset),
            protocol=Protocol.CLIENT_GARBLER,
            client_storage_bytes=storage_gb * 1e9,
            wsa=True,
            parallelism=parallelism,
        )
        for minutes in arrival_minutes:
            stats = simulate_mean_latency(
                config, minutes * 60, horizon=horizon_hours * 3600,
                replications=replications,
            )
            rows.append(
                {
                    "strategy": parallelism.value,
                    "storage_gb": storage_gb,
                    "req_per_min": f"1/{minutes}",
                    "mean_latency_min": stats["latency"] / 60,
                    "offline_min": stats["offline"] / 60,
                    "queue_min": stats["queue"] / 60,
                }
            )
    return rows


def main() -> None:
    for storage in (8, 16, 64, 140):
        print_rows(
            f"Figure 10: LPHE vs RLP at {storage} GB client storage",
            run(storage_gb=storage),
        )


if __name__ == "__main__":
    main()
