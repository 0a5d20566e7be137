"""BENCH_e2e.json: every stored verdict follows from its own pairs.

The paired-run ledger at the repo root records each claimed perf gain
as the parent/change pairs it rests on. The verdict rule lives in one
function (``benchmarks/paired.py::verdict``); these tests hold it to the
rule and re-derive every committed row from its pairs, so a row whose
summary or verdict was typed rather than computed fails here.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = json.loads((ROOT / "BENCH_e2e.json").read_text())
CONTRACT = {
    row["name"]: row
    for row in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def _paired():
    spec = importlib.util.spec_from_file_location(
        "paired_under_test", ROOT / "benchmarks" / "paired.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = _paired().verdict


def _pairs(parent, change):
    return [[p, c] for p, c in zip(parent, change)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


class TestRule:
    def test_nine_wins_beyond_the_spread_is_a_gain(self):
        change = [0.80] * 9 + [1.10]
        row = verdict(_pairs(PARENT, change), "lower", 0.25)
        assert (row["wins"], row["losses"], row["ties"]) == (9, 1, 0)
        assert row["clears_spread"] and not row["clears_bound"]
        assert row["verdict"] == "gain"

    def test_eight_wins_is_not(self):
        change = [0.80] * 8 + [1.10, 1.10]
        assert verdict(_pairs(PARENT, change), "lower", 0.25)["verdict"] == "level"

    def test_ties_count_for_neither_side(self):
        tied = [0.80] * 9 + [PARENT[9]]
        row = verdict(_pairs(PARENT, tied), "lower", 0.25)
        assert (row["wins"], row["ties"], row["verdict"]) == (9, 1, "gain")
        tied = [0.80] * 8 + PARENT[8:]
        row = verdict(_pairs(PARENT, tied), "lower", 0.25)
        assert (row["wins"], row["ties"], row["verdict"]) == (8, 2, "level")

    def test_every_win_inside_the_parents_spread_is_not_a_gain(self):
        change = [p - 0.001 for p in PARENT]
        row = verdict(_pairs(PARENT, change), "lower", 0.25)
        assert row["wins"] == 10 and not row["clears_spread"]
        assert row["verdict"] == "level"

    def test_higher_is_better(self):
        change = [p * 1.3 for p in PARENT]
        row = verdict(_pairs(PARENT, change), "higher", 0.2)
        assert row["verdict"] == "gain" and row["clears_bound"]
        assert row["relative_gain"] == pytest.approx(0.3)
        assert verdict(_pairs(change, PARENT), "higher", 0.2)["verdict"] == "regression"

    def test_worse_beyond_the_bound_is_a_regression(self):
        change = [p * 1.3 for p in PARENT]
        row = verdict(_pairs(PARENT, change), "lower", 0.25)
        assert row["losses"] == 10 and row["clears_bound"]
        assert row["verdict"] == "regression"

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 2.0] * 5
        row = verdict(_pairs(parent, parent[::-1]), "lower", 0.25)
        assert row["verdict"] == "unresolved"

    def test_exact_metrics_are_level(self):
        row = verdict([[192592, 192592]] * 10, "lower", 0.001)
        assert (row["ties"], row["verdict"]) == (10, "level")

    def test_direction_is_checked(self):
        with pytest.raises(ValueError, match="better"):
            verdict(_pairs(PARENT, PARENT), "smaller", 0.25)


def test_a_failed_run_names_its_checkout_workload_seed_exit_code_and_stderr(tmp_path):
    """A checkout whose ``bench_e2e`` exits non-zero: the error keeps what
    a refused pair needs to be diagnosed, and only the tail of stderr."""
    fake = tmp_path / "bench_e2e"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text(
        "import sys\n"
        "for i in range(40):\n"
        "    print(f'progress line {i}', file=sys.stderr)\n"
        "print('ImportError: libcrypto lacks BN_no_such_symbol', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    paired = _paired()
    with pytest.raises(paired.RunFailed) as failed:
        paired.run_bench(tmp_path, "infer_cg_delphi", 7)
    assert (failed.value.exit_code, failed.value.checkout) == (3, str(tmp_path))
    assert failed.value.stderr_tail.splitlines()[0] == "progress line 21"
    message = str(failed.value)
    for part in (str(tmp_path), "infer_cg_delphi", "seed 7", "exited 3",
                 "progress line 39", "BN_no_such_symbol"):
        assert part in message
    assert "progress line 0\n" not in message


def test_a_failed_run_is_a_row_and_the_recording_carries_on(tmp_path, monkeypatch):
    """Pair 2's parent run fails: the other pairs are still run and
    recorded, the failure is a row of its own with its checkout, workload,
    seed, exit code and stderr tail, the metric rows leave its pair out,
    and the script exits 1 once the ledger is written."""
    paired = _paired()
    calls = []

    def run_bench(checkout, workload, seed):
        calls.append(checkout)
        if len(calls) == 4:  # pair 2 runs the change first, then the parent
            raise paired.RunFailed(checkout, workload, seed, 3, "Traceback\nboom")
        value = 1.0 if checkout != paired.ROOT else 0.5
        return {"failed": 0, "metrics": {"offline_s": {"value": value}}}

    ledger = tmp_path / "BENCH_e2e.json"
    monkeypatch.setattr(paired, "run_bench", run_bench)
    monkeypatch.setattr(paired, "LEDGER", ledger)
    with pytest.raises(SystemExit) as exited:
        paired.main(["--parent-dir", str(tmp_path), "--parent-rev", "abc",
                     "--title", "t", "--workload", "infer_sg_wide", "--seed", "4",
                     "--pairs", "4", "--claim", "offline_s"])
    assert exited.value.code == 1
    assert len(calls) == 8
    failure, metric = json.loads(ledger.read_text())["rows"]
    assert {k: failure[k] for k in ("verdict", "workload", "seed", "pair", "side",
                                    "checkout", "exit_code", "stderr_tail")} == {
        "verdict": "run_failed", "workload": "infer_sg_wide", "seed": 4, "pair": 1,
        "side": "parent", "checkout": str(tmp_path.resolve()), "exit_code": 3,
        "stderr_tail": "Traceback\nboom",
    }
    assert metric["metric"] == "offline_s" and metric["dropped"] == [1]
    assert metric["pairs"] == [[1.0, 0.5]] * 3
    assert metric["first"] == ["parent", "parent", "change"]
    test_every_stored_verdict_follows_from_its_pairs(metric)


ROWS = LEDGER["rows"]
METRIC_ROWS = [r for r in ROWS if r["verdict"] != "run_failed"]


def test_the_ledger_has_rows():
    assert ROWS


@pytest.mark.parametrize(
    "row", METRIC_ROWS,
    ids=[f"{r['workload']}-{r['metric']}-seed{r['seed']}" for r in METRIC_ROWS],
)
def test_every_stored_verdict_follows_from_its_pairs(row):
    metric = CONTRACT[row["metric"]]
    assert (row["better"], row["bound"], row["unit"]) == (
        metric["better"], metric["bound"], metric["unit"]
    )
    assert len(row["pairs"]) == len(row["first"]) == len(row["failed"]) >= 2
    # Alternating pairs: each side goes first in turn, counting the pairs
    # a failed run dropped.
    dropped = row.get("dropped", [])
    kept = [i for i in range(len(row["first"]) + len(dropped)) if i not in dropped]
    assert row["first"] == [("parent", "change")[i % 2] for i in kept]
    derived = verdict(row["pairs"], row["better"], row["bound"])
    assert {key: row[key] for key in derived} == derived
