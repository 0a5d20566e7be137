"""Checks that hold over a whole run of the test suite."""

import multiprocessing
import os
import tempfile
import threading
from pathlib import Path

import pytest

# pytest itself rewrites this one for every test phase.
_PYTEST_ENV = {"PYTEST_CURRENT_TEST"}


def _repro_temp_entries() -> set[str]:
    return {path.name for path in Path(tempfile.gettempdir()).glob("repro-*")}


def _environment() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k not in _PYTEST_ENV}


def _live(workers, grace: float = 2.0) -> list:
    """The threads or processes still alive after ``grace`` seconds each:
    one that was told to stop and is on its way out is not a leak."""
    for worker in workers:
        worker.join(timeout=grace)
    return [worker for worker in workers if worker.is_alive()]


@pytest.fixture(scope="session", autouse=True)
def leaves_nothing_behind():
    """The run must leave nothing behind it:

    * no new ``repro-*`` entry in the temp directory — whatever makes a
      store, workload or calibration directory there (a test, an
      example, a CLI run) removes it, on failure too;
    * no live non-daemon thread that was not there at the start;
    * no live child process;
    * ``os.environ`` as it found it.
    """
    before = _repro_temp_entries()
    threads = set(threading.enumerate())
    environment = _environment()
    yield
    leaked = sorted(_repro_temp_entries() - before)
    assert not leaked, (
        f"the test run left {len(leaked)} new entries in "
        f"{tempfile.gettempdir()}: {leaked}"
    )
    stray = _live(
        [t for t in threading.enumerate() if not t.daemon and t not in threads]
    )
    assert not stray, f"the test run left non-daemon threads running: {stray}"
    children = _live(multiprocessing.active_children())
    assert not children, f"the test run left child processes alive: {children}"
    changed = sorted(
        k for k in environment.keys() | _environment().keys()
        if environment.get(k) != os.environ.get(k)
    )
    assert not changed, f"the test run changed os.environ: {changed}"
