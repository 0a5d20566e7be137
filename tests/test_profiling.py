"""Tests for device profiles, calibration anchors, and cost synthesis.

These encode the paper's measured numbers as regression bounds: if the
model drifts away from the testbed anchors, these tests fail.
"""

import pytest

from repro.nn.datasets import CIFAR100, TINY_IMAGENET
from repro.nn.models import resnet18, resnet32, vgg16
from repro.profiling import calibration as cal
from repro.profiling.devices import ATOM, EPYC, EPYC_4X, I5, I5_2X
from repro.profiling.model_costs import Protocol, profile_network


@pytest.fixture(scope="module")
def r18_tiny():
    return profile_network(resnet18(TINY_IMAGENET))


def within(value, target, tolerance):
    return target * (1 - tolerance) <= value <= target * (1 + tolerance)


class TestDevices:
    def test_scaled_device(self):
        fast = EPYC.scaled(4.0)
        assert fast.gc_hash_seconds == EPYC.gc_hash_seconds / 4
        assert fast.he_scale == 4.0

    def test_garble_eval_ratio_is_two(self):
        """Half-gates: garbling hashes twice as much as evaluating."""
        assert EPYC.garble_seconds(1000) == 2 * EPYC.evaluate_seconds(1000)

    def test_device_ordering(self):
        assert ATOM.gc_hash_seconds > I5.gc_hash_seconds > I5_2X.gc_hash_seconds
        assert I5_2X.gc_hash_seconds > EPYC.gc_hash_seconds


class TestGcAnchors:
    def test_atom_garble(self, r18_tiny):
        assert within(r18_tiny.garble_seconds(ATOM), cal.PAPER_ATOM_GARBLE_SECONDS, 0.10)

    def test_atom_eval(self, r18_tiny):
        assert within(r18_tiny.gc_eval_seconds(ATOM), cal.PAPER_ATOM_EVAL_SECONDS, 0.10)

    def test_epyc_garble(self, r18_tiny):
        assert within(r18_tiny.garble_seconds(EPYC), cal.PAPER_EPYC_GARBLE_SECONDS, 0.10)

    def test_epyc_eval(self, r18_tiny):
        assert within(r18_tiny.gc_eval_seconds(EPYC), cal.PAPER_EPYC_EVAL_SECONDS, 0.10)

    def test_i5_garble_matches_section_5_5(self, r18_tiny):
        assert within(r18_tiny.garble_seconds(I5), 107.2, 0.10)
        assert within(r18_tiny.garble_seconds(I5_2X), 53.8, 0.10)

    def test_faster_server_scales(self, r18_tiny):
        assert within(
            r18_tiny.garble_seconds(EPYC_4X),
            r18_tiny.garble_seconds(EPYC) / 4,
            0.01,
        )


class TestHeAnchors:
    def test_sequential_anchor_exact(self, r18_tiny):
        """The fit is anchored exactly at the Table 1 HE time."""
        assert within(r18_tiny.he_sequential_seconds(EPYC), 1080.0, 0.001)

    def test_lphe_in_paper_regime(self, r18_tiny):
        lphe = r18_tiny.he_lphe_seconds(EPYC)
        # Paper: 141 s. Our op-count model lands within ~25%.
        assert 90 <= lphe <= 175

    def test_lphe_speedup_regime(self):
        """Paper: 9.7x mean speedup across all pairs."""
        speedups = []
        for net in (
            resnet18(TINY_IMAGENET), vgg16(TINY_IMAGENET), resnet32(TINY_IMAGENET),
            resnet18(CIFAR100), vgg16(CIFAR100), resnet32(CIFAR100),
        ):
            p = profile_network(net)
            speedups.append(p.he_sequential_seconds(EPYC) / p.he_lphe_seconds(EPYC))
        mean = sum(speedups) / len(speedups)
        assert 7 <= mean <= 16
        assert all(s > 5 for s in speedups)

    def test_lphe_bounded_by_longest_layer(self, r18_tiny):
        longest = max(r18_tiny.he_layer_seconds)
        assert r18_tiny.he_lphe_seconds(EPYC) == pytest.approx(longest)

    def test_lphe_with_fewer_cores(self, r18_tiny):
        one_core = r18_tiny.he_lphe_seconds(EPYC, cores=1)
        assert one_core == pytest.approx(r18_tiny.he_sequential_seconds(EPYC))
        four = r18_tiny.he_lphe_seconds(EPYC, cores=4)
        assert r18_tiny.he_lphe_seconds(EPYC) < four < one_core

    def test_ss_anchor(self, r18_tiny):
        assert within(r18_tiny.ss_online_seconds(EPYC), 0.61, 0.001)


class TestStorage:
    def test_sg_client_storage_41gb(self, r18_tiny):
        gb = r18_tiny.storage(Protocol.SERVER_GARBLER).client_bytes / 1e9
        assert within(gb, 41.0, 0.05)

    def test_cg_client_storage_8gb(self, r18_tiny):
        gb = r18_tiny.storage(Protocol.CLIENT_GARBLER).client_bytes / 1e9
        assert within(gb, 8.0, 0.05)

    def test_role_reversal_swaps_footprints(self, r18_tiny):
        sg = r18_tiny.storage(Protocol.SERVER_GARBLER)
        cg = r18_tiny.storage(Protocol.CLIENT_GARBLER)
        assert sg.client_bytes == cg.server_bytes
        assert sg.server_bytes == cg.client_bytes

    def test_five_x_reduction(self, r18_tiny):
        sg = r18_tiny.storage(Protocol.SERVER_GARBLER).client_bytes
        cg = r18_tiny.storage(Protocol.CLIENT_GARBLER).client_bytes
        assert 4.5 < sg / cg < 5.5


class TestCommunication:
    def test_sg_download_dominates(self, r18_tiny):
        v = r18_tiny.comm(Protocol.SERVER_GARBLER)
        assert v.download / v.total > 0.75  # paper: 81.5%

    def test_cg_upload_dominates(self, r18_tiny):
        v = r18_tiny.comm(Protocol.CLIENT_GARBLER)
        assert v.upload / v.total > 0.75

    def test_sg_offline_comm_at_even_split(self, r18_tiny):
        """Paper Table 1: 704 s at 1 Gbps even split."""
        v = r18_tiny.comm(Protocol.SERVER_GARBLER)
        bw = 500e6 / 8
        seconds = v.offline_up / bw + v.offline_down / bw
        assert within(seconds, 704.0, 0.12)

    def test_sg_online_comm_at_even_split(self, r18_tiny):
        v = r18_tiny.comm(Protocol.SERVER_GARBLER)
        bw = 500e6 / 8
        seconds = v.online_up / bw + v.online_down / bw
        assert within(seconds, 42.5, 0.15)

    def test_cg_online_costs_more_than_sg_online(self, r18_tiny):
        """Client-Garbler moves OT online (27.1 -> 101 s in the paper)."""
        sg = r18_tiny.comm(Protocol.SERVER_GARBLER)
        cg = r18_tiny.comm(Protocol.CLIENT_GARBLER)
        assert cg.online_up + cg.online_down > sg.online_up + sg.online_down

    def test_comm_scales_with_relus(self):
        tiny = profile_network(resnet18(CIFAR100))
        big = profile_network(resnet18(TINY_IMAGENET))
        ratio = (
            big.comm(Protocol.SERVER_GARBLER).total
            / tiny.comm(Protocol.SERVER_GARBLER).total
        )
        assert 3.3 < ratio < 4.3  # ReLUs scale 4x


class TestEnergy:
    def test_garbling_costs_more_energy(self, r18_tiny):
        sg = r18_tiny.client_energy_joules(Protocol.SERVER_GARBLER)
        cg = r18_tiny.client_energy_joules(Protocol.CLIENT_GARBLER)
        assert within(cg / sg, 2.33 / 1.25, 0.01)  # paper: 1.8x

    def test_absolute_energy(self, r18_tiny):
        cg = r18_tiny.client_energy_joules(Protocol.CLIENT_GARBLER)
        assert within(cg, 2.33e-4 * r18_tiny.relu_count, 0.001)


class TestCalibrationInternals:
    def test_ands_per_relu(self):
        assert 450 <= cal.ANDS_PER_RELU <= 620

    def test_gc_wire_bytes_close_to_measured(self):
        assert 0.85 <= cal.GC_WIRE_BYTES_PER_RELU / cal.GC_CLIENT_BYTES_PER_RELU <= 1.1

    def test_ot_byte_formulas(self):
        assert cal.ot_pair_bytes(41) == 2 * 16 * 41
        assert cal.ot_column_bytes(41) == 16 * 41

    def test_unit_costs_cached_and_positive(self):
        costs = cal.fitted_he_unit_costs()
        assert costs.plain_mult > 0
        assert costs.rotation == pytest.approx(3 * costs.plain_mult)
        assert cal.fitted_he_unit_costs() is costs  # lru cached

    def test_ss_cost_is_one_per_mac_rate_for_every_model(self):
        """The 0.61 s anchor fixes a per-MAC rate that prices every model."""
        per_mac = cal.fitted_ss_seconds_per_mac()
        assert cal.fitted_ss_seconds_per_mac() == per_mac
        for build in (resnet32, vgg16):
            p = profile_network(build(CIFAR100))
            assert p.ss_online_seconds(EPYC) == pytest.approx(p.mac_count * per_mac)
            assert p.ss_online_seconds(EPYC_4X) == pytest.approx(
                p.ss_online_seconds(EPYC) / 4
            )
