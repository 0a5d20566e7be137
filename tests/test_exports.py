"""Every name a ``repro`` package or module lists in ``__all__`` resolves.

A deleted module whose re-export is left behind breaks the package at
import; a name dropped from the module but left in ``__all__`` breaks only
``from repro.x import *`` and the callers that name it. Both show here.
"""

import importlib
import importlib.util
import pkgutil
import re

import pytest

import repro


def _declares_all(name):
    with open(importlib.util.find_spec(name).origin, encoding="utf-8") as fh:
        return re.search(r"^__all__\b", fh.read(), re.MULTILINE) is not None


PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)

# Plain modules that declare their own ``__all__`` (the packages always do).
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.ispkg and _declares_all(info.name)
)


@pytest.mark.parametrize("package", PACKAGES + MODULES)
def test_every_name_in_all_resolves(package):
    module = importlib.import_module(package)
    names = module.__all__
    assert len(set(names)) == len(names), f"{package}.__all__ repeats a name"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it lacks: {missing}"
