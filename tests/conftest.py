"""Checks that hold over a whole run of the test suite."""

import tempfile
from pathlib import Path

import pytest


def _repro_temp_entries() -> set[str]:
    return {path.name for path in Path(tempfile.gettempdir()).glob("repro-*")}


@pytest.fixture(scope="session", autouse=True)
def leaves_no_repro_temp_entries():
    """The run must leave no new ``repro-*`` entry in the temp directory:
    whatever makes a store, workload or calibration directory there (a
    test, an example, a CLI run) removes it, on failure too."""
    before = _repro_temp_entries()
    yield
    leaked = sorted(_repro_temp_entries() - before)
    assert not leaked, (
        f"the test run left {len(leaked)} new entries in "
        f"{tempfile.gettempdir()}: {leaked}"
    )
