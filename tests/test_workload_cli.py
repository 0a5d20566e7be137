"""CLI workload entry points: schedule building and the demo pipeline."""

import json

import pytest

from repro.workload.cli import WORKLOAD_KINDS, build_schedule, demo_workload


def _build(kind, **overrides):
    knobs = dict(clients=3, rate=4.0, horizon=2.0, requests=3, skew=1.2,
                 think=0.2, seed=0)
    knobs.update(overrides)
    return build_schedule(kind, **knobs)


def test_build_schedule_kinds():
    poisson = _build("poisson")
    assert poisson.mode == "open"
    assert poisson.meta["burst"] is None
    # Uniform split: every client shares the same rate.
    assert len(set(poisson.meta["rates"])) == 1

    skewed = _build("skewed")
    rates = skewed.meta["rates"]
    assert rates == sorted(rates, reverse=True) and rates[0] > rates[-1]

    burst = _build("burst")
    assert burst.meta["burst"] is not None
    assert burst.meta["rates"][0] > burst.meta["rates"][-1]

    closed = _build("closed")
    assert closed.mode == "closed"
    assert closed.request_counts() == [3, 3, 3]

    assert set(WORKLOAD_KINDS) == {"poisson", "closed", "burst", "skewed"}


def test_build_schedule_deterministic():
    assert _build("burst").to_json() == _build("burst").to_json()


def test_demo_workload_unknown_kind():
    with pytest.raises(ValueError, match="unknown workload kind"):
        demo_workload("weird")


def test_demo_workload_end_to_end(tmp_path, capsys):
    """The CLI pipeline: generate, replay, oracle-check, write artifact."""
    out = tmp_path / "run.json"
    report = demo_workload(
        "poisson",
        clients=2,
        rate=4.0,
        horizon=0.6,
        requests=2,
        seed=0,
        workers=2,
        out_path=str(out),
    )
    assert report.workloads["poisson"]["requests"] == len(report.requests)
    printed = capsys.readouterr().out
    assert "match the plaintext reference" in printed
    artifact = json.loads(out.read_text())
    assert artifact["schedule"]["name"] == "poisson"
    summary = artifact["summary"]
    assert summary["requests_admitted"] + summary["requests_deferred"] + (
        summary["requests_rejected"]
    ) == summary["requests_issued"]


def test_main_dispatches_workload(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "cli.json"
    rc = main([
        "--workload", "closed", "--workload-clients", "2",
        "--workload-requests", "2", "--workload-think", "0.05",
        "--workers", "2", "--workload-out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["schedule"]["mode"] == "closed"
    assert "closed" in capsys.readouterr().out


def test_main_dispatches_plan(tmp_path, capsys):
    """``--plan``: calibrate on measured runs, then pick from the grid."""
    from repro.__main__ import main

    out = tmp_path / "plan.json"
    assert main(["--plan", "--workers", "1", "--plan-out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "held-out validation" in printed
    artifact = json.loads(out.read_text())
    assert set(artifact) == {"calibration", "plan"}
    choice = artifact["plan"]["choice"]
    if choice is None:
        assert "no grid configuration meets the SLO" in printed
    else:
        assert f"{choice['workers']} worker(s)" in printed
