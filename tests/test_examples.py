"""Smoke-run the examples that cluster and write no tracked files.

Each runs as its own process from ``examples/`` (where the scripts import
one another from), against this checkout's ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "quickstart.py", "custom_deployment.py", "serving_queries.py",
    "resilience_tour.py", "observability_tour.py", "streaming_ingestion.py",
    "data_ingestion.py",
])
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, script], cwd=_ROOT / "examples", env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
