"""Smoke and unit tests of the benchmark itself (collected by tier-1).

The estimator, schema and wrap-table tests are pure; the one end-to-end
test runs ``python -m bench_e2e --smoke`` (one round of each infer_*
workload) and checks that it leaves nothing behind in the checkout.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # the wrap table resolves against src/
    sys.path.insert(0, str(ROOT / "src"))

from bench_e2e import calibrate, metrics  # noqa: E402
from bench_e2e.run import TMP_PREFIX  # noqa: E402
from bench_e2e.trace import WRAP_TABLE, Tracer, layer_totals, resolve  # noqa: E402


def synthetic_rounds(host_factors, seed=7):
    """Rounds of a 1.5 s offline + 0.15 s online unit on a drifting host.

    ``host_factors[i]`` slows round i's fake kernel and fake work alike.
    """
    rng = random.Random(seed)
    rounds = []
    for factor in host_factors:
        jitter = lambda: 1.0 + rng.uniform(-0.01, 0.01)  # noqa: E731
        offline, online = 1.5 * factor * jitter(), 0.15 * factor * jitter()
        rounds.append(calibrate.Round(
            cal_before=calibrate.CAL_REF_S * factor * jitter(),
            cal_after=calibrate.CAL_REF_S * factor * jitter(),
            wall_s=offline + online, ops=1,
            samples={"offline": [offline], "online": [online],
                     "latency": [offline + online]},
        ))
    return rounds


def test_calibration_cancels_a_host_slowdown():
    steady = synthetic_rounds([1.0] * 12)
    drifting = synthetic_rounds([1.4, 1.4, 0.7] * 4)
    for name in ("offline", "online", "latency"):
        raw = [statistics.median(calibrate.pooled(r, name, calibrated=False))
               for r in (steady, drifting)]
        cal = [statistics.median(calibrate.pooled(r, name))
               for r in (steady, drifting)]
        assert abs(raw[1] / raw[0] - 1) > 0.20, name
        assert abs(cal[1] / cal[0] - 1) < 0.02, name
    assert abs(calibrate.goodput(drifting) / calibrate.goodput(steady) - 1) < 0.02
    assert abs(calibrate.goodput(drifting, calibrated=False)
               / calibrate.goodput(steady, calibrated=False) - 1) > 0.20


def test_percentile_and_spread():
    values = [float(v) for v in range(1, 21)]
    assert calibrate.percentile(values, 0.90) == 18.0
    assert calibrate.percentile(values, 0.50) == 10.0
    assert calibrate.percentile([3.0], 0.90) == 3.0
    assert calibrate.spread([5.0]) == 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert calibrate.spread(values) == (q3 - q1) / statistics.median(values)


def test_kernel_is_deterministic():
    assert calibrate.kernel() == calibrate.kernel()


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code_and_the_contract():
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    assert spec == metrics.benchmark_json()
    assert path.stat().st_size <= 64 * 1024
    assert spec["paths"] == ["bench_e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in spec["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(row["unit"]) and row["better"] in ("lower", "higher")
    assert all(0 < row["bound"] <= 0.25 for row in spec["end_to_end"])
    setup = [row for row in spec["end_to_end"] if row["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # all runs of the driver fit its budget even if each carries the largest
    # overhead seen on the reference host (three set-ups in its slow mode)
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 10) <= 3420


def test_wrap_table_resolves_and_lists_each_callable_once():
    targets = [row[0] for row in WRAP_TABLE]
    assert len(targets) == len(set(targets))
    for target in targets:
        _, _, raw = resolve(target)
        assert callable(getattr(raw, "__func__", raw)), target
    layers = {row[1] for row in WRAP_TABLE}
    assert set(metrics.TIMED_LAYERS) - {"core.session"} <= layers


def test_tracer_rebinds_by_name_imports_and_restores():
    import repro.core.session as session
    import repro.ot.extension as extension

    original = extension.iknp_transfer
    tracer = Tracer()
    tracer.install()
    try:
        assert session.iknp_transfer is extension.iknp_transfer is not original
        assert extension.iknp_transfer.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert session.iknp_transfer is extension.iknp_transfer is original


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.enabled = True
    mark = tracer.mark()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    totals = layer_totals(tracer.since(mark))
    spans = tracer.since(mark)[0][1]
    outer, inner = spans[0], spans[1]
    assert inner[3] == 0 and outer[3] == -1
    inner_s = inner[2] - inner[1]
    assert totals["inner"]["self_s"] == inner_s
    assert abs(totals["outer"]["self_s"] - ((outer[2] - outer[1]) - inner_s)) < 1e-12


def test_smoke_run_is_correct_and_leaves_the_checkout_alone(tmp_path):
    before = sorted(p.name for p in ROOT.iterdir())
    out = tmp_path / "result.json"
    child = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "--smoke", "--seed", "3",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result == json.loads(out.read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    expected = {
        f"{workload}/{row[0]}"
        for workload in ("infer_cg_delphi", "infer_sg_wide")
        for row in metrics.END_TO_END
    }
    assert set(result["metrics"]) == expected
    assert all(cell["value"] > 0 for cell in result["metrics"].values())
    assert not list(ROOT.glob(TMP_PREFIX + "*"))
    after = sorted(p.name for p in ROOT.iterdir())
    assert [n for n in after if n not in before] in ([], ["__pycache__"])
