"""Tests for the simulation-backed experiments (Figures 7, 10, 12, 13).

These use reduced replication counts and shortened sweeps so the suite
stays fast while still checking the qualitative claims of each figure.
"""

import pytest

from repro.core.analytic import worst_case_latency
from repro.core.estimator import estimate
from repro.core.system import OfflineParallelism, SystemConfig, pipeline_times
from repro.experiments import (
    fig07_streaming,
    fig10_lphe_vs_rlp,
    fig12_end_to_end,
    fig13_sensitivity,
    headline,
)
from repro.experiments.common import EVAL_PAIRS, profile
from repro.profiling.model_costs import Protocol


class TestFig7:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig07_streaming.run(replications=2)

    def test_low_rate_is_online_only(self, rows):
        first = rows[0]
        assert first["offline_min"] < 1.0
        assert first["queue_min"] < 1.0
        assert 3 <= first["online_min"] <= 7  # paper: ~4 minutes

    def test_latency_grows_with_rate(self, rows):
        assert rows[-1]["mean_latency_min"] > 3 * rows[0]["mean_latency_min"]

    def test_queue_dominates_at_saturation(self, rows):
        last = rows[-1]
        assert last["queue_min"] > last["online_min"]

    def test_hit_rate_declines(self, rows):
        assert rows[-1]["precompute_hit"] < rows[0]["precompute_hit"]


class TestFig10:
    def test_lphe_beats_rlp_at_16gb(self):
        rows = fig10_lphe_vs_rlp.run(storage_gb=16, replications=2)
        lphe = [r for r in rows if r["strategy"] == "lphe"]
        rlp = [r for r in rows if r["strategy"] == "rlp"]
        # Compare at the lowest arrival rate.
        assert lphe[0]["mean_latency_min"] <= rlp[0]["mean_latency_min"] * 1.05

    def test_rlp_capacity_at_140gb(self):
        rows = fig10_lphe_vs_rlp.run(storage_gb=140, replications=2)
        lphe = [r for r in rows if r["strategy"] == "lphe"]
        rlp = [r for r in rows if r["strategy"] == "rlp"]
        # At the highest swept rate, RLP has lower latency than LPHE.
        assert rlp[-1]["mean_latency_min"] < lphe[-1]["mean_latency_min"]


class TestFig12:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig12_end_to_end.run("ResNet-32", "CIFAR-100", replications=2)

    def test_proposed_lowest_latency_at_low_rate(self, rows):
        by_system = {}
        for row in rows:
            by_system.setdefault(row["system"], []).append(row["mean_latency_min"])
        for label, latencies in by_system.items():
            if label != "Proposed-16GB":
                assert by_system["Proposed-16GB"][0] <= latencies[0] * 1.05, label

    def test_baseline_saturates_earlier(self, rows):
        by_system = {}
        for row in rows:
            by_system.setdefault(row["system"], []).append(row["mean_latency_min"])
        assert by_system["Proposed-16GB"][-1] < by_system["SG-16GB"][-1]

    def test_more_storage_helps_baseline(self, rows):
        by_system = {}
        for row in rows:
            by_system.setdefault(row["system"], []).append(row["mean_latency_min"])
        assert by_system["SG-64GB"][-1] <= by_system["SG-16GB"][-1] * 1.3


class TestFig13:
    def test_garble_latencies_match_paper(self):
        lat = fig13_sensitivity.garble_latencies()
        assert lat["Atom"] == pytest.approx(382.6, rel=0.1)
        assert lat["i5"] == pytest.approx(107.2, rel=0.1)
        assert lat["i5 (2x)"] == pytest.approx(53.8, rel=0.1)

    def test_faster_client_helps_cg_not_sg(self):
        rows = fig13_sensitivity.run(server_scale=1, replications=1)
        def lat(system, idx=-1):
            matching = [r for r in rows if r["system"] == system]
            return matching[idx]["mean_latency_min"]
        # CG benefits from a faster client at high rates (garbling bound).
        assert lat("CG - i5 (2x)") <= lat("CG - Atom") * 1.1
        # SG at 16 GB cannot buffer: stays slow regardless of client.
        assert lat("SG - Atom", 0) > lat("CG - Atom", 0)


# -- pinned rows -----------------------------------------------------------------
#
# Every figure the system model feeds, at reduced replication counts, as
# literal rows recorded before the simulators were collapsed into one.
# A refactor of core/system.py or core/analytic.py that claims "same
# numbers" has to keep these; rel=1e-9 rather than a digest because
# math.log may differ in the last bit across libms.

PINNED_RUNS = {
    "fig07": lambda: fig07_streaming.run(replications=2),
    "fig10_16": lambda: fig10_lphe_vs_rlp.run(16, replications=2),
    "fig10_140": lambda: fig10_lphe_vs_rlp.run(140, replications=2),
    "fig12": lambda: fig12_end_to_end.run("ResNet-32", "CIFAR-100", replications=2),
    "fig13": lambda: fig13_sensitivity.run(replications=1),
    "headline": headline.run,
}

# fmt: off
PINNED_ROWS = {
    "fig07": (
        ('req_per_min', 'mean_latency_min', 'queue_min', 'offline_min', 'online_min', 'precompute_hit'),
        [
            ('1/180', 4.042083701333301, 0.0, 0.0, 4.042083701333301, 1.0),
            ('1/120', 4.198524113847052, 0.15644041251373328, 0.0, 4.042083701333318, 1.0),
            ('1/95', 5.616545284545191, 0.15152835351793828, 0.0, 5.465016931027252, 1.0),
            ('1/80', 5.645044037792913, 0.15597065280959146, 0.0, 5.48907338498332, 1.0),
            ('1/65', 4.929330605493941, 0.2838635177929587, 0.0, 4.6454670877009825, 1.0),
            ('1/50', 13.038491036154435, 4.856752907521845, 3.3414412714329718, 4.840296857199617, 0.875),
            ('1/40', 22.118444585938146, 12.387751992114453, 4.529066977943717, 5.201625615879978, 0.8170731707317074),
            ('1/35', 27.1652239876179, 15.31652874952002, 6.172179627480947, 5.676515610616938, 0.7230014025245441),
            ('1/30', 54.878521754766595, 38.663423542013376, 11.60558730244424, 4.609510910308968, 0.5150829562594268),
        ],
    ),
    "fig10_16": (
        ('strategy', 'storage_gb', 'req_per_min', 'mean_latency_min', 'offline_min', 'queue_min'),
        [
            ('lphe', 16, '1/104', 2.0744845429440963, 0.12416942017089419, 0.04945870302730256),
            ('lphe', 16, '1/54', 2.798705890372389, 0.3975463951281649, 0.051512483413360385),
            ('lphe', 16, '1/37', 3.6097889723088183, 1.0545862961844008, 0.2219457532284926),
            ('lphe', 16, '1/28', 6.511539902723295, 2.104837719071855, 2.172716318749664),
            ('lphe', 16, '1/22', 8.803182100435443, 2.4073180035728634, 4.0473094936899),
            ('lphe', 16, '1/19', 11.806376153627504, 3.9518979685296496, 5.6068332301300945),
            ('rlp', 16, '1/104', 3.122251677763621, 1.1719365549904195, 0.04945870302730256),
            ('rlp', 16, '1/54', 10.066911546182954, 4.933718007937973, 2.7804411524963055),
            ('rlp', 16, '1/37', 27.691043511570925, 10.77619965866946, 14.635139603045578),
            ('rlp', 16, '1/28', 63.05090733063922, 16.845444044159535, 43.153247029763854),
            ('rlp', 16, '1/22', 151.4316320100309, 21.324386578255297, 128.2063890120297),
            ('rlp', 16, '1/19', 259.0888343710006, 23.703914782698558, 233.48406316855622),
        ],
    ),
    "fig10_140": (
        ('strategy', 'storage_gb', 'req_per_min', 'mean_latency_min', 'offline_min', 'queue_min'),
        [
            ('lphe', 140, '1/68', 1.9441663332137602, 0.0, 0.043309913467849334),
            ('lphe', 140, '1/33', 2.546360142391248, 0.0, 0.09431960108428931),
            ('lphe', 140, '1/22', 3.173665689566037, 0.0, 0.31317416202533604),
            ('lphe', 140, '1/17', 3.7842161109321446, 0.0, 0.38694883129318947),
            ('lphe', 140, '1/13', 7.471547092371882, 1.437793719040282, 3.074338692900011),
            ('lphe', 140, '1/11', 84.39719368812762, 6.420693835693461, 75.44613845903991),
            ('rlp', 140, '1/68', 2.58031694994129, 0.0, 0.043309913467849334),
            ('rlp', 140, '1/33', 3.22167358625545, 0.0, 0.22195480916480828),
            ('rlp', 140, '1/22', 3.137240328853097, 0.0, 0.3168162438639156),
            ('rlp', 140, '1/17', 3.617744444088624, 0.0, 0.38572145936423713),
            ('rlp', 140, '1/13', 5.097277080485045, 0.0, 1.0952495425854398),
            ('rlp', 140, '1/11', 7.196123939379576, 0.0, 2.740703418735628),
        ],
    ),
    "fig12": (
        ('model', 'dataset', 'system', 'req_per_min', 'mean_latency_min'),
        [
            ('ResNet-32', 'CIFAR-100', 'SG-16GB', '1/9', 0.7509498889312419),
            ('ResNet-32', 'CIFAR-100', 'SG-16GB', '1/5.5', 1.0760548117006024),
            ('ResNet-32', 'CIFAR-100', 'SG-16GB', '1/4', 2.1079424380534273),
            ('ResNet-32', 'CIFAR-100', 'SG-16GB', '1/3', 5.262247746799001),
            ('ResNet-32', 'CIFAR-100', 'SG-16GB', '1/2.5', 20.031394649497347),
            ('ResNet-32', 'CIFAR-100', 'SG-16GB', '1/2', 180.8114707315941),
            ('ResNet-32', 'CIFAR-100', 'SG-32GB', '1/9', 0.6996576344957965),
            ('ResNet-32', 'CIFAR-100', 'SG-32GB', '1/5.5', 0.8540480902088738),
            ('ResNet-32', 'CIFAR-100', 'SG-32GB', '1/4', 1.1633654071876514),
            ('ResNet-32', 'CIFAR-100', 'SG-32GB', '1/3', 2.581323906978347),
            ('ResNet-32', 'CIFAR-100', 'SG-32GB', '1/2.5', 13.372311780553297),
            ('ResNet-32', 'CIFAR-100', 'SG-32GB', '1/2', 173.42578271702823),
            ('ResNet-32', 'CIFAR-100', 'SG-64GB', '1/9', 0.6996576344957965),
            ('ResNet-32', 'CIFAR-100', 'SG-64GB', '1/5.5', 0.8540480902088738),
            ('ResNet-32', 'CIFAR-100', 'SG-64GB', '1/4', 1.0560718214251092),
            ('ResNet-32', 'CIFAR-100', 'SG-64GB', '1/3', 1.3779415488551932),
            ('ResNet-32', 'CIFAR-100', 'SG-64GB', '1/2.5', 4.539500222663379),
            ('ResNet-32', 'CIFAR-100', 'SG-64GB', '1/2', 159.32620373969723),
            ('ResNet-32', 'CIFAR-100', 'Proposed-16GB', '1/9', 0.2883231287571364),
            ('ResNet-32', 'CIFAR-100', 'Proposed-16GB', '1/5.5', 0.3460904892175326),
            ('ResNet-32', 'CIFAR-100', 'Proposed-16GB', '1/4', 0.38018923228836726),
            ('ResNet-32', 'CIFAR-100', 'Proposed-16GB', '1/3', 0.41566471518446213),
            ('ResNet-32', 'CIFAR-100', 'Proposed-16GB', '1/2.5', 0.4616825547377452),
            ('ResNet-32', 'CIFAR-100', 'Proposed-16GB', '1/2', 1.2511529086141027),
        ],
    ),
    "fig13": (
        ('system', 'server_scale', 'req_per_min', 'mean_latency_min'),
        [
            ('SG - Atom', '1x', '1/65', 16.59838664418188),
            ('SG - Atom', '1x', '1/31', 18.899234630626335),
            ('SG - Atom', '1x', '1/20', 25.368018639092444),
            ('SG - Atom', '1x', '1/15', 58.08312225067708),
            ('SG - Atom', '1x', '1/12', 158.86601509492837),
            ('SG - Atom', '1x', '1/10', 335.36785180087924),
            ('SG - i5', '1x', '1/65', 13.830422309343748),
            ('SG - i5', '1x', '1/31', 15.227065448715909),
            ('SG - i5', '1x', '1/20', 18.74419540979939),
            ('SG - i5', '1x', '1/15', 26.41251452938946),
            ('SG - i5', '1x', '1/12', 55.93959244319551),
            ('SG - i5', '1x', '1/10', 159.95516140014402),
            ('SG - i5 (2x)', '1x', '1/65', 13.306831224708919),
            ('SG - i5 (2x)', '1x', '1/31', 14.56568723654566),
            ('SG - i5 (2x)', '1x', '1/20', 17.69701324052978),
            ('SG - i5 (2x)', '1x', '1/15', 23.62510040486865),
            ('SG - i5 (2x)', '1x', '1/12', 44.37936461784557),
            ('SG - i5 (2x)', '1x', '1/10', 127.22656312566909),
            ('CG - Atom', '1x', '1/65', 1.900856419745915),
            ('CG - Atom', '1x', '1/31', 2.536493500858805),
            ('CG - Atom', '1x', '1/20', 4.008108999707401),
            ('CG - Atom', '1x', '1/15', 16.72648990456994),
            ('CG - Atom', '1x', '1/12', 81.9593648642676),
            ('CG - Atom', '1x', '1/10', 244.2534092766608),
            ('CG - i5', '1x', '1/65', 1.900856419745915),
            ('CG - i5', '1x', '1/31', 2.3254008615821116),
            ('CG - i5', '1x', '1/20', 2.8633802122857324),
            ('CG - i5', '1x', '1/15', 3.88881177294381),
            ('CG - i5', '1x', '1/12', 6.387938412075264),
            ('CG - i5', '1x', '1/10', 16.053190165578577),
            ('CG - i5 (2x)', '1x', '1/65', 1.900856419745915),
            ('CG - i5 (2x)', '1x', '1/31', 2.1325950347123213),
            ('CG - i5 (2x)', '1x', '1/20', 2.8450737545612528),
            ('CG - i5 (2x)', '1x', '1/15', 3.3303173972229447),
            ('CG - i5 (2x)', '1x', '1/12', 4.83724616491111),
            ('CG - i5 (2x)', '1x', '1/10', 10.025090613605064),
        ],
    ),
    "headline": (
        ('model', 'dataset', 'total_speedup', 'baseline_rate_per_min', 'proposed_rate_per_min', 'rate_improvement'),
        [
            ('ResNet-32', 'CIFAR-100', 1.4195933708296415, 0.395778962387635, 0.5237311966414502, 1.3232921565156257),
            ('VGG-16', 'CIFAR-100', 2.2104179687867305, 0.23260297006845138, 0.5165043013925594, 2.2205404395333406),
            ('ResNet-18', 'CIFAR-100', 2.0425760968050373, 0.12627723700105076, 0.2566444997616121, 2.032389256026219),
            ('ResNet-32', 'TinyImageNet', 1.3515012937469935, 0.08604355011700315, 0.1321134807757896, 1.5354257302975058),
            ('VGG-16', 'TinyImageNet', 1.9109613488184687, 0.06060617591125009, 0.1300338790590621, 2.1455549224798465),
            ('ResNet-18', 'TinyImageNet', 2.03617666920434, 0.028123527159407427, 0.06425918027868976, 2.2848905087353106),
        ],
    ),
}
# fmt: on


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_figure_rows_are_pinned(case):
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


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("model,dataset", EVAL_PAIRS)
def test_bounds_and_simulator_read_one_set_of_stage_times(model, dataset, protocol):
    """The M/D/1 service times and Table 1's estimate are the simulator's
    stage durations, summed."""
    p = profile(model, dataset)
    for parallelism, wsa in (
        (OfflineParallelism.LPHE, True),
        (OfflineParallelism.SEQUENTIAL, False),
    ):
        config = SystemConfig(
            profile=p, protocol=protocol, wsa=wsa, parallelism=parallelism
        )
        times = pipeline_times(config)
        assert worst_case_latency(config, 1.0).service_seconds == (
            times.online_seconds + times.offline_seconds
        )
        est = estimate(config)
        assert est.offline.total == pytest.approx(times.offline_seconds, rel=1e-12)
        assert est.online.total == pytest.approx(times.online_seconds, rel=1e-12)
