"""Tests for the protocol estimator, WSA optimizer, and bandwidth model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import SpeedupKnobs, estimate
from repro.core.future import waterfall
from repro.core.system import OfflineParallelism, SystemConfig
from repro.core.wsa import (
    comm_seconds,
    improvement_over_even_split,
    optimal_upload_fraction,
    optimize,
    sweep_allocations,
)
from repro.network.bandwidth import GBPS, MBPS, TddLink
from repro.nn.datasets import TINY_IMAGENET
from repro.nn.models import resnet18
from repro.profiling.model_costs import CommVolumes, Protocol, profile_network


@pytest.fixture(scope="module")
def r18_tiny():
    return profile_network(resnet18(TINY_IMAGENET))


class TestTddLink:
    def test_split(self):
        link = TddLink(1e9, 0.3)
        assert link.upload_bps == pytest.approx(0.3e9)
        assert link.download_bps == pytest.approx(0.7e9)

    def test_transfer_seconds(self):
        link = TddLink(1e9, 0.5)
        assert link.transfer_seconds(625e5, 625e5) == pytest.approx(2.0)

    def test_quantization(self):
        link = TddLink(1e9, 0.34, quantized=True)
        assert link.effective_upload_fraction == pytest.approx(0.3)

    def test_quantization_clamps_extremes(self):
        assert TddLink(1e9, 0.01, quantized=True).effective_upload_fraction == 0.1
        assert TddLink(1e9, 0.99, quantized=True).effective_upload_fraction == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            TddLink(0, 0.5)
        with pytest.raises(ValueError):
            TddLink(1e9, 0.0)
        with pytest.raises(ValueError):
            TddLink(1e9, 1.0)

    def test_units(self):
        assert GBPS == 1000 * MBPS


class TestWsaOptimum:
    @given(
        st.floats(min_value=1e3, max_value=1e12),
        st.floats(min_value=1e3, max_value=1e12),
    )
    @settings(max_examples=40, deadline=None)
    def test_sqrt_rule_beats_neighbors(self, up, down):
        """The closed form is a true minimum of the transfer-time model."""
        volumes = CommVolumes(up, down, 0, 0)
        f_star = optimal_upload_fraction(volumes)
        best = comm_seconds(volumes, TddLink(1e9, f_star))
        for f in (f_star * 0.9, min(0.999, f_star * 1.1)):
            if 0 < f < 1:
                assert best <= comm_seconds(volumes, TddLink(1e9, f)) + 1e-9

    def test_symmetric_volumes_even_split(self):
        volumes = CommVolumes(1e9, 1e9, 0, 0)
        assert optimal_upload_fraction(volumes) == pytest.approx(0.5)

    def test_download_heavy_prefers_download(self):
        volumes = CommVolumes(1e8, 1e10, 0, 0)
        assert optimal_upload_fraction(volumes) < 0.3

    def test_paper_optima(self, r18_tiny):
        """SG ~802 Mbps download, CG ~835 Mbps upload (within ~7%)."""
        sg = optimal_upload_fraction(r18_tiny.comm(Protocol.SERVER_GARBLER))
        cg = optimal_upload_fraction(r18_tiny.comm(Protocol.CLIENT_GARBLER))
        assert 0.72 <= 1 - sg <= 0.86  # download fraction
        assert 0.78 <= cg <= 0.90  # upload fraction

    def test_improvement_bounded_and_positive(self, r18_tiny):
        for protocol in Protocol:
            gain = improvement_over_even_split(r18_tiny.comm(protocol), 1e9)
            assert 0.0 < gain < 0.40  # paper: up to 35%

    def test_sweep_shape(self, r18_tiny):
        points = sweep_allocations(r18_tiny.comm(Protocol.SERVER_GARBLER), 1e9)
        assert len(points) == 9
        # Server-Garbler: latency increases as upload share grows past optimum.
        assert points[-1].latency_seconds > points[2].latency_seconds

    def test_optimize_returns_consistent_link(self, r18_tiny):
        volumes = r18_tiny.comm(Protocol.CLIENT_GARBLER)
        link, latency = optimize(volumes, 1e9)
        assert latency == pytest.approx(comm_seconds(volumes, link))


class TestEstimator:
    def test_table1_regression(self, r18_tiny):
        est = estimate(
            SystemConfig(
                r18_tiny, Protocol.SERVER_GARBLER,
                wsa=False, parallelism=OfflineParallelism.SEQUENTIAL,
            )
        )
        rows = est.table_rows()
        assert rows["offline"]["HE"] == pytest.approx(1113.8, rel=0.05)
        assert rows["offline"]["GC"] == pytest.approx(25.1, rel=0.1)
        assert rows["offline"]["Comms"] == pytest.approx(704, rel=0.12)
        assert rows["online"]["GC"] == pytest.approx(200, rel=0.1)
        assert rows["online"]["SS"] == pytest.approx(0.61, rel=0.01)
        assert rows["online"]["Comms"] == pytest.approx(42.5, rel=0.15)
        assert rows["total"]["Total"] == pytest.approx(2052, rel=0.08)

    def test_lphe_and_wsa_cut_54_percent(self, r18_tiny):
        """Paper §6.1: LPHE + WSA reduce Server-Garbler latency by 54.6%."""
        base = estimate(
            SystemConfig(
                r18_tiny, Protocol.SERVER_GARBLER,
                wsa=False, parallelism=OfflineParallelism.SEQUENTIAL,
            )
        )
        opt = estimate(SystemConfig(r18_tiny, Protocol.SERVER_GARBLER))
        reduction = 1 - opt.total_seconds / base.total_seconds
        assert 0.45 <= reduction <= 0.62

    def test_client_garbler_online_speedup(self, r18_tiny):
        """Paper §5.1: Client-Garbler gives ~2x online speedup."""
        sg = estimate(SystemConfig(r18_tiny, Protocol.SERVER_GARBLER))
        cg = estimate(SystemConfig(r18_tiny, Protocol.CLIENT_GARBLER))
        speedup = sg.online.total / cg.online.total
        assert 1.5 <= speedup <= 2.6

    def test_single_inference_sg_beats_cg(self, r18_tiny):
        """Paper §6.1: for one inference SG* is ~13% faster than CG."""
        sg = estimate(SystemConfig(r18_tiny, Protocol.SERVER_GARBLER))
        cg = estimate(SystemConfig(r18_tiny, Protocol.CLIENT_GARBLER))
        assert sg.total_seconds < cg.total_seconds
        assert cg.total_seconds / sg.total_seconds < 1.25

    def test_knobs_monotone(self, r18_tiny):
        base = estimate(SystemConfig(r18_tiny, Protocol.CLIENT_GARBLER))
        faster = estimate(
            SystemConfig(r18_tiny, Protocol.CLIENT_GARBLER),
            knobs=SpeedupKnobs(gc=10, he=10),
        )
        assert faster.total_seconds < base.total_seconds

    def test_relu_reduction_shrinks_storage(self, r18_tiny):
        base = estimate(SystemConfig(r18_tiny, Protocol.CLIENT_GARBLER))
        fewer = estimate(
            SystemConfig(r18_tiny, Protocol.CLIENT_GARBLER),
            knobs=SpeedupKnobs(relu_reduction=10),
        )
        assert fewer.client_storage_bytes < base.client_storage_bytes / 5

    def test_offline_fraction_dominates(self, r18_tiny):
        est = estimate(
            SystemConfig(
                r18_tiny, Protocol.SERVER_GARBLER,
                wsa=False, parallelism=OfflineParallelism.SEQUENTIAL,
            )
        )
        assert 0.8 < est.offline_fraction < 0.95  # paper: 88%


class TestFigure14:
    def test_waterfall_values(self, r18_tiny):
        paper = {
            "Server Garbler*": 930,
            "Client Garbler": 1052,
            "GC FASE 19x": 662,
            "GC 100x": 645,
            "HE 1000x": 492,
            "BW 10x": 54,
            "Fewer ReLUs": 6,
        }
        for step in waterfall(r18_tiny):
            expected = paper[step.label]
            assert 0.7 * expected <= step.total_seconds <= 1.35 * expected, step.label

    def test_waterfall_monotone_after_cg(self, r18_tiny):
        steps = waterfall(r18_tiny)
        totals = [s.total_seconds for s in steps[1:]]  # from Client Garbler on
        assert totals == sorted(totals, reverse=True)

    def test_offline_fraction_stays_majority(self, r18_tiny):
        for step in waterfall(r18_tiny):
            assert step.offline_percent > 60
