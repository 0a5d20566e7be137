"""Tests for the per-figure experiment runners and their paper claims."""

import pytest

from repro.experiments import (
    fig03_storage,
    fig04_compute,
    fig05_comm,
    fig08_client_garbler,
    fig09_lphe,
    fig11_wsa,
    fig14_future,
    table1,
)
from repro.experiments.common import EVAL_PAIRS, STORAGE_PAIRS, build, profile


class TestCommon:
    def test_pairs_cover_paper_evaluation(self):
        assert len(EVAL_PAIRS) == 6
        assert len(STORAGE_PAIRS) == 9

    def test_build_cached(self):
        assert build("ResNet-18", "CIFAR-100") is build("ResNet-18", "CIFAR-100")

    def test_profile_cached(self):
        assert profile("VGG-16", "CIFAR-100") is profile("VGG-16", "CIFAR-100")


class TestFig3:
    def test_all_nine_points_within_5_percent(self):
        for row in fig03_storage.run():
            assert row["client_storage_gb"] == pytest.approx(
                row["paper_gb"], rel=0.10
            ), (row["model"], row["dataset"])

    def test_imagenet_impractical(self):
        """Paper: ImageNet needs hundreds of GB -> not studied in PI."""
        rows = [r for r in fig03_storage.run() if r["dataset"] == "ImageNet"]
        assert all(r["client_storage_gb"] > 200 for r in rows)


class TestFig4:
    def test_he_dominates_compute(self):
        for row in fig04_compute.run():
            assert row["he_eval_min"] > row["gc_eval_min"] > row["gc_garble_min"]

    def test_r18_tiny_anchor(self):
        row = [
            r for r in fig04_compute.run()
            if r["model"] == "ResNet-18" and r["dataset"] == "TinyImageNet"
        ][0]
        assert row["he_eval_min"] == pytest.approx(18.0, rel=0.02)
        assert row["gc_eval_min"] == pytest.approx(3.3, rel=0.1)


class TestFig5:
    def test_monotone_in_bandwidth(self):
        rows = fig05_comm.run()
        totals = [r["total_min"] for r in rows]
        assert totals == sorted(totals, reverse=True)

    def test_download_dominates(self):
        for row in fig05_comm.run():
            assert row["download_min"] > 5 * row["upload_min"]

    def test_gigabit_latency_near_paper(self):
        """Paper: ~11 minutes total at 1 Gbps."""
        row = fig05_comm.run()[-1]
        assert 10 <= row["total_min"] <= 15

    def test_download_share(self):
        assert 0.80 <= fig05_comm.download_share() <= 0.95


class TestTable1:
    def test_every_cell_close_to_paper(self):
        for row in table1.run():
            for key in ("GC", "HE", "SS", "Comms"):
                ours, paper = row[key], row[f"paper_{key}"]
                if paper < 1.0:
                    assert abs(ours - paper) < 1.0
                else:
                    assert ours == pytest.approx(paper, rel=0.16), (row["phase"], key)


class TestFig8:
    def test_reduction_about_5x(self):
        assert 4.5 <= fig08_client_garbler.mean_reduction() <= 5.5

    def test_41_to_8_gb(self):
        row = [
            r for r in fig08_client_garbler.run()
            if r["model"] == "ResNet-18" and r["dataset"] == "TinyImageNet"
        ][0]
        assert row["server_garbler_gb"] == pytest.approx(41, rel=0.05)
        assert row["client_garbler_gb"] == pytest.approx(8, rel=0.05)


class TestFig9:
    def test_speedups_all_significant(self):
        for row in fig09_lphe.run():
            assert row["speedup"] > 5

    def test_mean_speedup_near_paper(self):
        assert 7 <= fig09_lphe.mean_speedup() <= 16


class TestFig11:
    def test_optima_directions(self):
        stats = fig11_wsa.optima()
        assert stats["server-garbler"]["optimal_download_mbps"] > 700
        assert stats["client-garbler"]["optimal_upload_mbps"] > 750

    def test_improvement_up_to_35_percent(self):
        stats = fig11_wsa.optima()
        for protocol in stats.values():
            assert 0 < protocol["improvement_vs_even"] <= 0.40

    def test_sweep_convex_around_optimum(self):
        rows = [
            r for r in fig11_wsa.run() if r["protocol"] == "client-garbler"
        ]
        latencies = [r["latency_min"] for r in rows]
        best = min(range(len(latencies)), key=latencies.__getitem__)
        assert latencies[: best + 1] == sorted(latencies[: best + 1], reverse=True)
        assert latencies[best:] == sorted(latencies[best:])


class TestFig14:
    def test_within_35_percent_of_paper(self):
        for row in fig14_future.run():
            assert row["total_s"] == pytest.approx(row["paper_s"], rel=0.35), row["step"]

    def test_first_bars_within_10_percent(self):
        rows = {r["step"]: r for r in fig14_future.run()}
        for step in ("Client Garbler", "GC FASE 19x", "GC 100x", "BW 10x"):
            assert rows[step]["total_s"] == pytest.approx(
                rows[step]["paper_s"], rel=0.10
            ), step

    def test_components_sum_to_100(self):
        for row in fig14_future.components():
            total = sum(v for k, v in row.items() if k != "step")
            assert total == pytest.approx(100, abs=0.5)


# -- pinned rows -----------------------------------------------------------------
#
# The analytic figures as literal rows, so a change that claims "same
# figures" is held to every number ``python -m repro fast`` prints, not
# only to the paper-claim bounds above. The system-model figures are
# pinned in test_experiments_streaming.py.

PINNED_RUNS = {
    "fig03": fig03_storage.run,
    "fig04": fig04_compute.run,
    "fig05": fig05_comm.run,
    "fig08": fig08_client_garbler.run,
    "fig09": fig09_lphe.run,
    "fig11": fig11_wsa.run,
    "fig14": fig14_future.run,
    "table1": table1.run,
}

# fmt: off
PINNED_ROWS = {
    'fig03': (
        ('model', 'dataset', 'relus', 'client_storage_gb', 'paper_gb'),
        [
            ('ResNet-32', 'CIFAR-100', 303104, 5.520124888, 6),
            ('VGG-16', 'CIFAR-100', 276480, 5.034710616, 5),
            ('ResNet-18', 'CIFAR-100', 557056, 10.145076824, 10),
            ('ResNet-32', 'TinyImageNet', 1212416, 22.0804972, 22),
            ('VGG-16', 'TinyImageNet', 1105920, 20.138841264, 20),
            ('ResNet-18', 'TinyImageNet', 2228224, 40.58029688, 41),
            ('ResNet-32', 'ImageNet', 14852096, 270.48607768, 271),
            ('VGG-16', 'ImageNet', 13555712, 246.849989488, 247),
            ('ResNet-18', 'ImageNet', 27295744, 497.10859352, 498),
        ],
    ),
    'fig04': (
        ('model', 'dataset', 'he_eval_min', 'gc_eval_min', 'gc_garble_min'),
        [
            ('ResNet-32', 'CIFAR-100', 0.6698416613216928, 0.4424105984000001, 0.053952512),
            ('VGG-16', 'CIFAR-100', 2.6248496844798415, 0.4035502080000001, 0.049213440000000004),
            ('ResNet-18', 'CIFAR-100', 4.5338047545409905, 0.8130789376, 0.09915596800000001),
            ('ResNet-32', 'TinyImageNet', 2.0678888066498646, 1.7696423936000003, 0.215810048),
            ('VGG-16', 'TinyImageNet', 7.844936421187821, 1.6142008320000003, 0.19685376000000002),
            ('ResNet-18', 'TinyImageNet', 17.999999999999996, 3.2523157504, 0.39662387200000004),
        ],
    ),
    'fig05': (
        ('bandwidth_mbps', 'upload_min', 'download_min', 'total_min'),
        [
            (150, 8.013048945777777, 80.89015486577777, 88.90320381155556),
            (250, 4.807829367466667, 48.534092919466666, 53.34192228693334),
            (350, 3.434163833904762, 34.66720922819047, 38.101373062095234),
            (450, 2.6710163152592594, 26.963384955259258, 29.63440127051852),
            (550, 2.1853769852121214, 22.060951327030303, 24.246328312242426),
            (650, 1.8491651413333334, 18.666958815179488, 20.51612395651282),
            (750, 1.6026097891555555, 16.178030973155554, 17.780640762311112),
            (850, 1.414067461019608, 14.274733211607844, 15.688800672627451),
            (950, 1.2652182545964912, 12.772129715649124, 14.037347970245614),
            (1000, 1.2019573418666667, 12.133523229866666, 13.335480571733335),
        ],
    ),
    'fig08': (
        ('model', 'dataset', 'server_garbler_gb', 'client_garbler_gb', 'reduction'),
        [
            ('ResNet-32', 'CIFAR-100', 5.520124888, 1.064496088, 5.185669492098687),
            ('VGG-16', 'CIFAR-100', 5.034710616, 0.970454616, 5.187991826708978),
            ('ResNet-18', 'CIFAR-100', 10.145076824, 1.956353624, 5.185707072352887),
            ('ResNet-32', 'TinyImageNet', 22.0804972, 4.257982, 5.185671804155113),
            ('VGG-16', 'TinyImageNet', 20.138841264, 3.881817264, 5.187993121357811),
            ('ResNet-18', 'TinyImageNet', 40.58029688, 7.82540408, 5.185712643736092),
        ],
    ),
    'fig09': (
        ('model', 'dataset', 'linear_layers', 'sequential_s', 'lphe_s', 'speedup'),
        [
            ('ResNet-32', 'CIFAR-100', 32, 40.19049967930157, 1.89681284252251, 21.18843713956171),
            ('VGG-16', 'CIFAR-100', 14, 157.4909810687905, 14.58379977884089, 10.799036153615361),
            ('ResNet-18', 'CIFAR-100', 18, 272.0282852724594, 28.412812440415035, 9.57414144914145),
            ('ResNet-32', 'TinyImageNet', 32, 124.07332839899189, 7.5544345389045295, 16.423906747755577),
            ('VGG-16', 'TinyImageNet', 14, 470.69618527126926, 57.81012981639539, 8.14210566151983),
            ('ResNet-18', 'TinyImageNet', 18, 1079.9999999999998, 113.38871511217606, 9.524757370533303),
        ],
    ),
    'fig11': (
        ('protocol', 'upload_fraction', 'latency_min'),
        [
            ('server-garbler', 0.1, 12.750632948148146),
            ('server-garbler', 0.2, 10.588345373333334),
            ('server-garbler', 0.3, 10.670064543492062),
            ('server-garbler', 0.4, 11.613716035555557),
            ('server-garbler', 0.5, 13.335480571733335),
            ('server-garbler', 0.6, 16.168535155555556),
            ('server-garbler', 0.7, 21.081079674920634),
            ('server-garbler', 0.8, 31.08503141333334),
            ('server-garbler', 0.9, 61.33537022814816),
            ('client-garbler', 0.1, 58.97621267674074),
            ('client-garbler', 0.2, 29.63297590133333),
            ('client-garbler', 0.3, 19.87949117866667),
            ('client-garbler', 0.4, 15.03379229511111),
            ('client-garbler', 0.5, 12.166108616533334),
            ('client-garbler', 0.6, 10.312267322666667),
            ('client-garbler', 0.7, 9.087434098793652),
            ('client-garbler', 0.8, 8.386113525333334),
            ('client-garbler', 0.9, 8.613279637333333),
        ],
    ),
    'fig14': (
        ('step', 'total_s', 'paper_s', 'offline_pct'),
        [
            ('Server Garbler*', 995.9031986509115, 930, 73.89575659368798),
            ('Client Garbler', 1047.770112062099, 1052, 89.11484648476072),
            ('GC FASE 19x', 666.76069565452, 662, 84.58533655124808),
            ('GC 100x', 649.6152719161789, 645, 84.25658068587552),
            ('HE 1000x', 502.60387014187404, 492, 79.65163774853445),
            ('BW 10x', 54.56141917436059, 54, 80.05320567396524),
            ('Fewer ReLUs', 6.66801303874871, 6, 77.11981502508904),
        ],
    ),
    'table1': (
        ('phase', 'GC', 'paper_GC', 'HE', 'paper_HE', 'SS', 'paper_SS', 'Comms', 'paper_Comms', 'Total', 'paper_Total'),
        [
            ('offline', 23.797432320000002, 25.1, 1113.7698452224633, 1080.0, 0.0, 0.0, 753.352757248, 704.0, 1890.9200347904634, 1809.0),
            ('online', 195.138945024, 200.0, 0.0, 0.0, 0.61, 0.61, 46.776077056, 42.5, 242.52502208, 243.0),
            ('total', 218.93637734400002, 225.0, 1113.7698452224633, 1080.0, 0.61, 0.61, 800.128834304, 747.0, 2133.4450568704633, 2052.0),
        ],
    ),
}
# fmt: on


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_analytic_figure_rows_are_pinned(case):
    keys, expected = PINNED_ROWS[case]
    rows = PINNED_RUNS[case]()
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert tuple(row) == keys
        for key, value in zip(keys, want):
            if isinstance(value, float):
                assert row[key] == pytest.approx(value, rel=1e-9), (key, want)
            else:
                assert row[key] == value, (key, want)
