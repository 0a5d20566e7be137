"""Bench: regenerate Figure 12 (baseline vs proposed, end to end)."""

import pytest

from repro.experiments import fig12_end_to_end
from repro.experiments.common import EVAL_PAIRS, print_rows


@pytest.mark.parametrize(
    "model,dataset",
    [("ResNet-32", "CIFAR-100"), ("ResNet-18", "TinyImageNet")],
)
def test_fig12_panel(once, model, dataset):
    rows = once(fig12_end_to_end.run, model, dataset, replications=2,
                horizon_hours=6.0)
    print_rows(f"Figure 12: {model} on {dataset}", rows)
    by_system = {}
    for row in rows:
        by_system.setdefault(row["system"], []).append(row["mean_latency_min"])
    # Proposed protocol: lower latency at the lowest rate and at saturation.
    assert by_system["Proposed-16GB"][0] <= by_system["SG-16GB"][0] * 1.05
    assert by_system["Proposed-16GB"][-1] < by_system["SG-16GB"][-1]


def test_fig12_full_sweep(once):
    def sweep():
        return [
            row
            for model, dataset in EVAL_PAIRS
            for row in fig12_end_to_end.run(
                model, dataset, replications=1, horizon_hours=4.0
            )
        ]

    rows = once(sweep)
    assert len(rows) == 6 * 4 * 6  # pairs x systems x rates
