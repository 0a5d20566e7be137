"""Shared pytest-benchmark configuration for the per-figure benches.

Each bench regenerates one of the paper's tables or figures, printing the
rows it produces (run with ``pytest benchmarks/ --benchmark-only -s`` to
see them) and asserting the headline claim of that experiment.

Under ``REPRO_BENCH_RECORD=1`` primitive-bench timings are additionally
written to ``BENCH_primitives.json`` at the repo root, keyed by the active
compute backend, so the perf trajectory of the crypto substrate is
machine-readable across PRs. Without the flag a run never touches the
committed file (tier-1 collects these benches). Run the suite under each
backend to populate both columns::

    REPRO_BENCH_RECORD=1 REPRO_BACKEND=python pytest benchmarks/test_bench_primitives.py
    REPRO_BENCH_RECORD=1 REPRO_BACKEND=numpy  pytest benchmarks/test_bench_primitives.py
"""

import json
import os
import platform
import time

import pytest

BENCH_JSON = "BENCH_primitives.json"
_PRIMITIVES_MODULE = "test_bench_primitives"


@pytest.fixture
def once(benchmark):
    """Run a heavy experiment exactly once under the benchmark timer."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner


def _collect_primitive_stats(session):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return {}
    stats = {}
    for bench in getattr(bench_session, "benchmarks", []):
        fullname = getattr(bench, "fullname", "") or ""
        if _PRIMITIVES_MODULE not in fullname:
            continue
        try:
            stats[bench.name] = {
                "mean_s": bench.stats.mean,
                "min_s": bench.stats.min,
                "rounds": bench.stats.rounds,
                # Host provenance per row: perf diffs are only comparable
                # between rows recorded on like-for-like hardware.
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
            }
        except (AttributeError, TypeError):  # incomplete run; skip quietly
            continue
        extra = dict(getattr(bench, "extra_info", None) or {})
        if extra:
            stats[bench.name]["extra"] = extra
    return stats


def pytest_sessionfinish(session, exitstatus):
    """Merge this run's primitive timings into BENCH_primitives.json."""
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    stats = _collect_primitive_stats(session)
    if not stats:
        return
    from repro.backend import get_backend

    path = session.config.rootpath / BENCH_JSON
    try:
        existing = json.loads(path.read_text())
    except (OSError, ValueError):
        existing = {}
    backends = existing.setdefault("backends", {})
    entry = backends.setdefault(get_backend().name, {})
    entry["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    entry["python"] = platform.python_version()
    # Merge per test so a partial run (-k/::test selection) refreshes only
    # the benches it actually executed instead of clobbering the column.
    entry.setdefault("results", {}).update(stats)
    try:
        path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    except OSError:  # read-only checkout: benches still ran fine
        pass
