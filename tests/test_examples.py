"""Every example script runs to completion.

The examples are entry points no figure or benchmark reaches, so a
deletion that only they would notice shows here. Each runs as its own
process, as a user would start it; the two that default to a long run
get the small arguments CI gives them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

ARGS = {
    "multi_client_serving": ["--analytic"],
    "offline_precompute": ["--workers", "1", "--precomputes", "1", "--serve", "1"],
}


@pytest.mark.parametrize("name", sorted(p.stem for p in EXAMPLES.glob("*.py")))
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py"), *ARGS.get(name, [])],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip(), "an example prints what it showed"
