"""Tests for the streaming-inference system simulator."""

import pytest

from repro.core.system import (
    OfflineParallelism,
    PiSystemSimulator,
    SystemConfig,
    pipeline_times,
    simulate_mean_latency,
)
from repro.nn.datasets import CIFAR100, TINY_IMAGENET
from repro.nn.models import resnet18, resnet32
from repro.profiling.devices import ATOM, EPYC
from repro.profiling.model_costs import Protocol, profile_network
from repro.workload.generators import PoissonWorkload


@pytest.fixture(scope="module")
def r18_tiny():
    return profile_network(resnet18(TINY_IMAGENET))


@pytest.fixture(scope="module")
def r32_cifar():
    return profile_network(resnet32(CIFAR100))


def make_config(profile, **kwargs):
    defaults = dict(
        profile=profile,
        protocol=Protocol.CLIENT_GARBLER,
        client_storage_bytes=16e9,
        wsa=True,
        parallelism=OfflineParallelism.LPHE,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def simulate(profile, mean_interarrival, horizon, seed, **kwargs):
    """One replication of ``make_config(profile, **kwargs)``."""
    return PiSystemSimulator(make_config(profile, **kwargs)).run(
        PoissonWorkload(mean_interarrival, horizon, seed=seed)
    )


class TestConfig:
    def test_buffer_capacity(self, r18_tiny):
        cfg = make_config(r18_tiny, client_storage_bytes=16e9)
        assert cfg.buffer_capacity == 2  # 16 GB / ~7.8 GB

    def test_sg_16gb_cannot_buffer(self, r18_tiny):
        cfg = make_config(
            r18_tiny, protocol=Protocol.SERVER_GARBLER, client_storage_bytes=16e9
        )
        assert cfg.buffer_capacity == 0  # 41 GB footprint

    def test_140gb_holds_17_precomputes(self, r18_tiny):
        """Paper §5.2: at 140 GB the client stores 17 pre-computes."""
        cfg = make_config(r18_tiny, client_storage_bytes=140e9)
        assert 16 <= cfg.buffer_capacity <= 18

    def test_link_uses_wsa(self, r18_tiny):
        assert make_config(r18_tiny, wsa=True).link().upload_fraction != 0.5
        assert make_config(r18_tiny, wsa=False).link().upload_fraction == 0.5


class TestPipelineTimes:
    def test_lphe_faster_than_sequential(self, r18_tiny):
        lphe = pipeline_times(make_config(r18_tiny))
        seq = pipeline_times(
            make_config(r18_tiny, parallelism=OfflineParallelism.SEQUENTIAL)
        )
        assert lphe.server_he < seq.server_he / 5

    def test_rlp_single_core_garble(self, r18_tiny):
        rlp = pipeline_times(make_config(r18_tiny, parallelism=OfflineParallelism.RLP))
        lphe = pipeline_times(make_config(r18_tiny))
        assert rlp.garble == pytest.approx(lphe.garble * ATOM.cores)

    def test_garbler_device_by_protocol(self, r18_tiny):
        cg = pipeline_times(make_config(r18_tiny))
        sg = pipeline_times(make_config(r18_tiny, protocol=Protocol.SERVER_GARBLER))
        assert cg.garble > sg.garble  # Atom garbles slower than EPYC


class TestSimulation:
    def test_low_rate_latency_is_online_only(self, r18_tiny):
        stats = simulate_mean_latency(
            make_config(r18_tiny), mean_interarrival=100 * 60, replications=2
        )
        assert stats["offline"] < 60
        assert stats["queue"] < 60
        assert stats["latency"] < 5 * 60  # paper: 1.88 min at low rate

    def test_high_rate_queues(self, r18_tiny):
        stats = simulate_mean_latency(
            make_config(r18_tiny), mean_interarrival=5 * 60, replications=1
        )
        assert stats["queue"] > 10 * 60  # far past saturation

    def test_no_buffer_pays_offline_inline(self, r18_tiny):
        cfg = make_config(
            r18_tiny, protocol=Protocol.SERVER_GARBLER, client_storage_bytes=16e9,
            parallelism=OfflineParallelism.SEQUENTIAL, wsa=False,
        )
        stats = simulate_mean_latency(cfg, mean_interarrival=200 * 60, replications=2)
        # Full offline (~1900 s) incurred per request: ~30+ minutes each.
        assert stats["offline"] > 20 * 60
        assert stats["hit"] == 0.0

    def test_proposed_beats_baseline_at_low_rate(self, r18_tiny):
        """Headline: proposed stack has lower mean latency (1.8x overall)."""
        baseline = simulate_mean_latency(
            make_config(
                r18_tiny, protocol=Protocol.SERVER_GARBLER,
                client_storage_bytes=16e9, wsa=False,
                parallelism=OfflineParallelism.SEQUENTIAL,
            ),
            mean_interarrival=100 * 60, replications=2,
        )
        proposed = simulate_mean_latency(
            make_config(r18_tiny), mean_interarrival=100 * 60, replications=2
        )
        assert proposed["latency"] < baseline["latency"] / 3

    def test_sustainable_rate_improvement(self, r32_cifar):
        """Proposed sustains a higher arrival rate than baseline (2.24x)."""
        rate = 4 * 60  # 1 request / 4 minutes on ResNet-32/CIFAR-100
        baseline = simulate_mean_latency(
            make_config(
                r32_cifar, protocol=Protocol.SERVER_GARBLER,
                client_storage_bytes=16e9, wsa=False,
                parallelism=OfflineParallelism.SEQUENTIAL,
            ),
            rate, replications=2,
        )
        proposed = simulate_mean_latency(make_config(r32_cifar), rate, replications=2)
        assert proposed["queue"] < baseline["queue"]

    def test_precompute_hit_rate_degrades_with_rate(self, r18_tiny):
        cfg = make_config(r18_tiny, client_storage_bytes=64e9)
        slow = simulate_mean_latency(cfg, 120 * 60, replications=2)
        fast = simulate_mean_latency(cfg, 12 * 60, replications=2)
        assert fast["hit"] <= slow["hit"]

    def test_all_requests_complete(self, r18_tiny):
        sim = PiSystemSimulator(make_config(r18_tiny))
        result = sim.run(PoissonWorkload(30 * 60, 24 * 3600, seed=1))
        assert result.requests
        assert all(r.completion_time is not None for r in result.requests)

    def test_deterministic_given_seed(self, r18_tiny):
        cfg = make_config(r18_tiny)
        a = simulate_mean_latency(cfg, 30 * 60, replications=2, seed=5)
        b = simulate_mean_latency(cfg, 30 * 60, replications=2, seed=5)
        assert a == b

    def test_fifo_order(self, r18_tiny):
        sim = PiSystemSimulator(make_config(r18_tiny))
        result = sim.run(PoissonWorkload(10 * 60, 12 * 3600, seed=2))
        starts = [r.service_start for r in result.completed]
        assert starts == sorted(starts)


class TestLpheVsRlp:
    def test_rlp_wins_with_big_storage(self, r18_tiny):
        """Figure 10c: at 140 GB RLP sustains a higher rate than LPHE."""
        rate = 13 * 60
        lphe = simulate_mean_latency(
            make_config(r18_tiny, client_storage_bytes=140e9), rate, replications=2
        )
        rlp = simulate_mean_latency(
            make_config(
                r18_tiny, client_storage_bytes=140e9,
                parallelism=OfflineParallelism.RLP,
            ),
            rate, replications=2,
        )
        assert rlp["latency"] < lphe["latency"]

    def test_lphe_wins_with_small_storage(self, r18_tiny):
        """Figure 10a: at 16 GB LPHE beats RLP (single-core pre-computes)."""
        rate = 40 * 60
        lphe = simulate_mean_latency(
            make_config(r18_tiny, client_storage_bytes=16e9), rate, replications=2
        )
        rlp = simulate_mean_latency(
            make_config(
                r18_tiny, client_storage_bytes=16e9,
                parallelism=OfflineParallelism.RLP,
            ),
            rate, replications=2,
        )
        assert lphe["latency"] <= rlp["latency"] * 1.05


class TestManyClients:
    """§5.2's closing discussion: N clients, each with its own storage,
    link and request stream, sharing one server."""

    def test_validation(self, r18_tiny):
        with pytest.raises(ValueError):
            make_config(r18_tiny, num_clients=0)

    def test_three_clients_low_rate(self, r18_tiny):
        """§5.2: each client's latency resembles the single-client 16 GB case."""
        result = simulate(r18_tiny, 120 * 60, 12 * 3600, seed=1, num_clients=3)
        single = simulate_mean_latency(
            make_config(r18_tiny), 120 * 60, replications=2
        )
        assert result.completed
        assert result.mean_latency == pytest.approx(single["latency"], rel=0.6)

    def test_server_contention_raises_latency(self, r18_tiny):
        """More clients at the same per-client rate -> more contention."""
        few, many = (
            simulate(r18_tiny, 60 * 60, 12 * 3600, seed=2, num_clients=n)
            for n in (2, 8)
        )
        assert many.mean_latency >= few.mean_latency * 0.8

    def test_per_client_latency_accessor(self, r18_tiny):
        result = simulate(r18_tiny, 90 * 60, 8 * 3600, seed=3, num_clients=2)
        first, second = result.per_client
        assert first and second and result.requests == first + second
        assert [r.arrival_time for r in first] != [r.arrival_time for r in second]
        weighted = sum(
            result.client_mean_latency(c) * len(requests)
            for c, requests in enumerate(result.per_client)
        )
        assert weighted / len(result.requests) == pytest.approx(result.mean_latency)

    def test_client_zero_is_the_single_client_run(self, r18_tiny):
        """Extra clients change client 0's contention, not its arrivals."""
        alone, shared = (
            simulate(r18_tiny, 60 * 60, 12 * 3600, seed=4, num_clients=n)
            for n in (1, 3)
        )
        assert alone.per_client == [alone.requests]
        assert [r.arrival_time for r in shared.per_client[0]] == [
            r.arrival_time for r in alone.requests
        ]

    def test_rlp_not_lphe_scales_to_many_clients(self, r18_tiny):
        """§5.2's multi-client claim. 64 clients x 1 req/h ask for 64 x 113 s
        of all-core server HE per 3,600 s under LPHE — oversubscribed 2x, so
        the fleet mean runs away — while RLP's one core per pre-compute keeps
        every client near its single-client latency."""
        lphe, rlp = OfflineParallelism.LPHE, OfflineParallelism.RLP
        mean = {
            (mode, n): simulate(
                r18_tiny, 3600, 24 * 3600, seed=1, parallelism=mode, num_clients=n
            ).mean_latency
            for mode in (lphe, rlp)
            for n in (1, 64)
        }
        assert mean[lphe, 64] > 10 * mean[lphe, 1]
        assert mean[rlp, 1] / 1.5 < mean[rlp, 64] < 1.5 * mean[rlp, 1]
        assert mean[rlp, 64] < mean[lphe, 64]


class TestWorkload:
    def test_poisson_rate(self):
        workload = PoissonWorkload(60.0, 3600 * 100, seed=3)
        times = workload.arrival_times()
        assert 0.9 * 6000 < len(times) < 1.1 * 6000

    def test_times_sorted_within_horizon(self):
        workload = PoissonWorkload(10.0, 1000.0, seed=4)
        times = workload.arrival_times()
        assert times == sorted(times)
        assert all(0 < t < 1000 for t in times)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonWorkload(0, 100)
        with pytest.raises(ValueError):
            PoissonWorkload(10, 0)

    def test_rate_per_minute(self):
        assert PoissonWorkload(120.0, 100).rate_per_minute == pytest.approx(0.5)
