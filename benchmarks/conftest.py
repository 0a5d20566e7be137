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


def _provenance():
    """When, where and on what a row was recorded: perf diffs are only
    comparable between rows from like-for-like hardware, Python, numpy
    and compute backend, and a partial run refreshes only its own rows
    (the column-level ``recorded_at`` is the latest of them)."""
    from repro.backend import get_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        nproc = os.cpu_count()
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": get_backend().name,
    }


def _collect_primitive_stats(session):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return {}
    stats = {}
    provenance = _provenance()
    for bench in getattr(bench_session, "benchmarks", []):
        fullname = getattr(bench, "fullname", "") or ""
        if _PRIMITIVES_MODULE not in fullname:
            continue
        try:
            stats[bench.name] = {
                "mean_s": bench.stats.mean,
                "min_s": bench.stats.min,
                "rounds": bench.stats.rounds,
                **provenance,  # per row: a partial run refreshes only its rows
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
