"""BENCH_primitives.json is written only when a run asks for it."""

import importlib.util
import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.backend import get_backend

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def finished_session(rootpath):
    """A session that ran one primitive bench, as the hook sees it."""
    bench = SimpleNamespace(
        fullname="benchmarks/test_bench_primitives.py::test_bench_probe",
        name="test_bench_probe",
        stats=SimpleNamespace(mean=0.002, min=0.001, rounds=3),
        extra_info={},
    )
    config = SimpleNamespace(
        _benchmarksession=SimpleNamespace(benchmarks=[bench]), rootpath=rootpath
    )
    return SimpleNamespace(config=config)


def committed_copy(tmp_path):
    target = tmp_path / "BENCH_primitives.json"
    target.write_bytes((ROOT / "BENCH_primitives.json").read_bytes())
    return target


def test_plain_run_leaves_the_file_untouched(bench_conftest, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    target = committed_copy(tmp_path)
    before = target.read_bytes()
    bench_conftest.pytest_sessionfinish(finished_session(tmp_path), 0)
    assert target.read_bytes() == before


def test_record_flag_merges_the_rows(bench_conftest, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    target = committed_copy(tmp_path)
    bench_conftest.pytest_sessionfinish(finished_session(tmp_path), 0)
    column = json.loads(target.read_text())["backends"][get_backend().name]
    row = column["results"]["test_bench_probe"]
    assert row["min_s"] == 0.001
    # Every recorded row says where it came from.
    assert row["backend"] == get_backend().name
    assert row["nproc"] >= 1 and row["python"] and "numpy" in row
