"""Ablation benches for modeling choices of the system model.

Not paper figures — these probe the sensitivity of our reproduction to its
own modeling decisions (ARCHITECTURE.md, *System model*):

* LPHE core-count scaling (LPT scheduling vs the all-cores assumption);
* share-field width vs garbled-ReLU cost (why 41 bits costs what it does);
* TDD slot quantization (continuous optimum vs 10-subframe granularity).
"""

import pytest

from repro.core.wsa import comm_seconds, optimal_upload_fraction
from repro.gc.relu import relu_and_gates
from repro.network.bandwidth import TddLink
from repro.nn.datasets import TINY_IMAGENET
from repro.nn.models import resnet18
from repro.profiling.devices import EPYC
from repro.profiling.model_costs import Protocol, profile_network


@pytest.fixture(scope="module")
def r18_tiny():
    return profile_network(resnet18(TINY_IMAGENET))


def test_ablation_lphe_core_scaling(benchmark, r18_tiny):
    """LPHE makespan vs available cores (LPT bin packing)."""

    def sweep():
        return {
            cores: r18_tiny.he_lphe_seconds(EPYC, cores)
            for cores in (1, 2, 4, 8, 17, 18, 32)
        }

    result = benchmark(sweep)
    print("\nLPHE makespan by cores:", {k: round(v, 1) for k, v in result.items()})
    assert result[1] == pytest.approx(r18_tiny.he_sequential_seconds(EPYC))
    assert result[32] == result[18]  # no gain past one core per layer
    values = [result[c] for c in (1, 2, 4, 8, 18)]
    assert values == sorted(values, reverse=True)


def test_ablation_field_width_vs_relu_cost(benchmark):
    """AND gates per ReLU scale linearly in the share width."""

    def sweep():
        return {bits: relu_and_gates(bits) for bits in (8, 16, 24, 32, 41)}

    ands = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nANDs per ReLU by share width:", ands)
    assert 12 <= ands[41] / 41 <= 14  # ~13 ANDs per bit
    ratio = ands[32] / ands[16]
    assert 1.9 <= ratio <= 2.1


def test_ablation_wsa_quantization(benchmark, r18_tiny):
    """10-subframe TDD quantization costs at most a few percent."""
    volumes = r18_tiny.comm(Protocol.CLIENT_GARBLER)

    def compare():
        f_star = optimal_upload_fraction(volumes)
        continuous = comm_seconds(volumes, TddLink(1e9, f_star))
        quantized = comm_seconds(volumes, TddLink(1e9, f_star, quantized=True))
        return continuous, quantized

    continuous, quantized = benchmark(compare)
    print(f"\nWSA latency: continuous {continuous:.1f}s, quantized {quantized:.1f}s")
    assert quantized >= continuous
    assert quantized / continuous < 1.05

