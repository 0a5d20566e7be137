"""Table 1: Server-Garbler time breakdown for ResNet-18 on TinyImageNet.

Paper (seconds): offline GC 25.1, HE 1080, comm 704 (total 1809);
online GC 200, SS 0.61, comm 42.5 (total 243); grand total 2052.
"""

from __future__ import annotations

from repro.core.estimator import estimate
from repro.core.system import OfflineParallelism, SystemConfig
from repro.experiments.common import print_rows, profile
from repro.profiling.model_costs import Protocol

PAPER = {
    "offline": {"GC": 25.1, "HE": 1080.0, "SS": 0.0, "Comms": 704.0, "Total": 1809.0},
    "online": {"GC": 200.0, "HE": 0.0, "SS": 0.61, "Comms": 42.5, "Total": 243.0},
    "total": {"GC": 225.0, "HE": 1080.0, "SS": 0.61, "Comms": 747.0, "Total": 2052.0},
}


def run(model: str = "ResNet-18", dataset: str = "TinyImageNet") -> list[dict]:
    est = estimate(
        SystemConfig(
            profile=profile(model, dataset),
            protocol=Protocol.SERVER_GARBLER,
            wsa=False,
            parallelism=OfflineParallelism.SEQUENTIAL,
        )
    )
    rows = []
    for phase, values in est.table_rows().items():
        row = {"phase": phase}
        for key, value in values.items():
            row[key] = value
            row[f"paper_{key}"] = PAPER[phase][key]
        rows.append(row)
    return rows


def main() -> None:
    print_rows("Table 1: Server-Garbler breakdown, ResNet-18/TinyImageNet (s)", run())


if __name__ == "__main__":
    main()
