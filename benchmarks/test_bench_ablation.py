"""Ablation benches for design choices DESIGN.md calls out.

Not paper figures — these probe the sensitivity of our reproduction to its
own modeling decisions:

* LPHE core-count scaling (LPT scheduling vs the all-cores assumption);
* half-gates vs classic four-row garbling (ReLU size and hash work);
* share-field width vs garbled-ReLU cost (why 41 bits costs what it does);
* TDD slot quantization (continuous optimum vs 10-subframe granularity);
* precomputed OT vs full IKNP online bytes (the Client-Garbler online OT).
"""

import pytest

from repro.core.wsa import comm_seconds, optimal_upload_fraction
from repro.crypto.rng import SecureRandom
from repro.gc.classic import ClassicGarbler
from repro.gc.garble import Garbler
from repro.gc.relu import ReluCircuitSpec, build_relu_circuit, relu_and_gates
from repro.network.bandwidth import TddLink
from repro.nn.datasets import TINY_IMAGENET
from repro.nn.models import resnet18
from repro.ot.extension import iknp_transcript
from repro.ot.precomputed import online_ot_bytes
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


def test_ablation_half_gates_vs_classic(benchmark):
    """Half-gates halves garbled-ReLU size vs the classic 4-row tables."""
    spec = ReluCircuitSpec(bits=17, modulus=(1 << 17) - 1, mask_owner="evaluator")
    circuit = build_relu_circuit(spec)

    def garble_both():
        half, _ = Garbler(SecureRandom(1)).garble(circuit)
        classic, _ = ClassicGarbler(SecureRandom(2)).garble(circuit)
        return half.size_bytes, classic.size_bytes

    half_bytes, classic_bytes = benchmark(garble_both)
    print(f"\ngarbled ReLU bytes: half-gates {half_bytes}, classic {classic_bytes}")
    assert classic_bytes == pytest.approx(2 * half_bytes, rel=0.02)


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


def test_ablation_precomputed_ot_online_bytes(benchmark):
    """OT precomputation shrinks the Client-Garbler online OT traffic."""

    def sweep():
        n = 41 * 2_228_224  # one choice bit per share bit, R18/Tiny
        # A full batch run online carries its base OTs with it.
        return iknp_transcript(n).total_bytes, online_ot_bytes(n)

    full, precomputed = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nonline OT bytes: full IKNP {full / 1e9:.2f} GB, "
          f"precomputed {precomputed / 1e9:.2f} GB")
    assert precomputed < full
