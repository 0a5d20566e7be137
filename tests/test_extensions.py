"""Tests for the extension modules: energy, PI-friendly transforms,
analytic queueing, and the CLI."""

import pytest

from repro.core.analytic import (
    best_case_latency,
    max_sustainable_rate_per_minute,
    md1_mean_wait,
    offline_service_seconds,
    online_service_seconds,
    worst_case_latency,
)
from repro.core.system import OfflineParallelism, SystemConfig, simulate_mean_latency
from repro.nn.datasets import CIFAR100, TINY_IMAGENET
from repro.nn.models import resnet18, resnet32
from repro.nn.transforms import polynomialize_relus, prune_relus
from repro.profiling.energy import EnergyBudget, client_energy, garbling_energy_ratio
from repro.profiling.model_costs import Protocol, profile_network


@pytest.fixture(scope="module")
def r18_tiny():
    return profile_network(resnet18(TINY_IMAGENET))


@pytest.fixture(scope="module")
def cg_config(r18_tiny):
    return SystemConfig(
        profile=r18_tiny,
        protocol=Protocol.CLIENT_GARBLER,
        client_storage_bytes=16e9,
        wsa=True,
        parallelism=OfflineParallelism.LPHE,
    )


class TestEnergy:
    def test_ratio_matches_paper(self, r18_tiny):
        assert garbling_energy_ratio(r18_tiny) == pytest.approx(2.33 / 1.25)

    def test_budget_components_positive(self, r18_tiny):
        budget = client_energy(r18_tiny, Protocol.CLIENT_GARBLER)
        assert budget.gc_joules > 0
        assert budget.he_joules > 0
        assert budget.radio_joules > 0
        assert budget.total_joules == pytest.approx(
            budget.gc_joules + budget.he_joules + budget.radio_joules
        )

    def test_radio_dominates_on_big_network(self, r18_tiny):
        """Tens of GB over the radio dwarf the GC crypto energy."""
        budget = client_energy(r18_tiny, Protocol.SERVER_GARBLER)
        assert budget.radio_joules > budget.gc_joules

    def test_battery_fraction(self, r18_tiny):
        budget = client_energy(r18_tiny, Protocol.CLIENT_GARBLER)
        fraction = budget.battery_fraction(battery_wh=15.0)
        assert 0 < fraction < 0.1  # one inference: percent-level battery


class TestTransforms:
    def test_prune_reduces_relus(self):
        net = resnet32(CIFAR100)
        pruned = prune_relus(net, keep_fraction=0.5)
        assert pruned.relu_count <= net.relu_count * 0.55
        assert pruned.relu_count > 0

    def test_prune_keeps_linear_layers(self):
        net = resnet32(CIFAR100)
        pruned = prune_relus(net, keep_fraction=0.3)
        assert pruned.linear_layer_count == net.linear_layer_count

    def test_prune_shrinks_cost_profile(self):
        net = resnet18(TINY_IMAGENET)
        pruned = prune_relus(net, keep_fraction=0.1)
        before = profile_network(net).storage(Protocol.SERVER_GARBLER).client_bytes
        after = profile_network(pruned).storage(Protocol.SERVER_GARBLER).client_bytes
        assert after < before * 0.2

    def test_prune_validation(self):
        with pytest.raises(ValueError):
            prune_relus(resnet32(CIFAR100), keep_fraction=0.0)

    def test_prune_full_keep_is_identity(self):
        net = resnet32(CIFAR100)
        assert prune_relus(net, 1.0).relu_count == net.relu_count

    def test_polynomialize_split(self):
        net = resnet32(CIFAR100)
        costs = polynomialize_relus(net, poly_fraction=0.5)
        total = costs.gc_relus + costs.poly_activations
        assert total == net.relu_count
        assert costs.poly_activations >= 0.5 * total
        assert 0 < costs.gc_fraction < 0.5 + 0.2

    def test_polynomialize_extremes(self):
        net = resnet32(CIFAR100)
        none = polynomialize_relus(net, 0.0)
        assert none.poly_activations == 0
        everything = polynomialize_relus(net, 1.0)
        assert everything.gc_relus == 0

    def test_polynomialize_byte_costs(self):
        net = resnet32(CIFAR100)
        costs = polynomialize_relus(net, 1.0)
        assert costs.beaver_triple_bytes() == 3 * 6 * net.relu_count
        assert costs.online_opening_bytes() == 4 * 6 * net.relu_count

    def test_polynomialize_validation(self):
        with pytest.raises(ValueError):
            polynomialize_relus(resnet32(CIFAR100), 1.5)


class TestAnalytic:
    def test_md1_wait_properties(self):
        assert md1_mean_wait(10, 100) < md1_mean_wait(10, 12)
        assert md1_mean_wait(10, 10) == float("inf")
        assert md1_mean_wait(10, 5) == float("inf")

    def test_best_case_matches_simulator_low_rate(self, cg_config):
        analytic = best_case_latency(cg_config, 100 * 60)
        simulated = simulate_mean_latency(cg_config, 100 * 60, replications=3)
        assert simulated["latency"] == pytest.approx(
            analytic.total_seconds, rel=0.30
        )

    def test_worst_case_brackets_no_buffer(self, r18_tiny):
        config = SystemConfig(
            profile=r18_tiny,
            protocol=Protocol.SERVER_GARBLER,
            client_storage_bytes=16e9,  # cannot buffer 41 GB
            wsa=False,
            parallelism=OfflineParallelism.SEQUENTIAL,
        )
        analytic = worst_case_latency(config, 200 * 60)
        simulated = simulate_mean_latency(config, 200 * 60, replications=2)
        assert simulated["latency"] == pytest.approx(
            analytic.total_seconds, rel=0.30
        )

    def test_simulator_between_bounds(self, cg_config):
        rate = 30 * 60
        best = best_case_latency(cg_config, rate).total_seconds
        worst = worst_case_latency(cg_config, rate).total_seconds
        simulated = simulate_mean_latency(cg_config, rate, replications=3)["latency"]
        assert best * 0.7 <= simulated <= worst * 1.3

    def test_sustainable_rate_ordering(self, r18_tiny, cg_config):
        baseline = SystemConfig(
            profile=r18_tiny,
            protocol=Protocol.SERVER_GARBLER,
            client_storage_bytes=16e9,
            wsa=False,
            parallelism=OfflineParallelism.SEQUENTIAL,
        )
        assert max_sustainable_rate_per_minute(
            cg_config
        ) > max_sustainable_rate_per_minute(baseline)

    def test_service_components(self, cg_config):
        assert 0 < online_service_seconds(cg_config) < offline_service_seconds(cg_config)


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table1" in out

    def test_run_fast_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["fig3"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["fig99"]) == 2
