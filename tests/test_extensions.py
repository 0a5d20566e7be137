"""Tests for the analytic queueing model and the CLI."""

import pytest

from repro.core.analytic import (
    best_case_latency,
    max_sustainable_rate_per_minute,
    md1_mean_wait,
    worst_case_latency,
)
from repro.core.system import (
    OfflineParallelism,
    SystemConfig,
    pipeline_times,
    simulate_mean_latency,
)
from repro.experiments import ALL_EXPERIMENTS
from repro.nn.datasets import TINY_IMAGENET
from repro.nn.models import resnet18
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
        times = pipeline_times(cg_config)
        assert 0 < times.online_seconds < times.offline_seconds


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

    @pytest.mark.parametrize("key", list(ALL_EXPERIMENTS))
    def test_every_experiment_prints_its_rows(self, key, capsys):
        """``python -m repro all`` runs each ``main()``; none is reached
        by a ``run()`` test."""
        from repro.__main__ import main

        assert main([key]) == 0
        out = capsys.readouterr().out
        titles = [line for line in out.splitlines() if line.startswith("== ")]
        assert titles, out
        assert "(no rows)" not in out
        # A title, a header and at least one row for every table printed.
        assert len(out.strip().splitlines()) >= 3 * len(titles)

    def test_fast_runs_the_analytic_set(self, capsys):
        from repro.__main__ import FAST, main

        assert main(["fast"]) == 0
        titles = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("== ")
        ]
        assert len(titles) >= len(FAST)
