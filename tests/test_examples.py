"""Smoke test: every single-process example script runs to completion.

Each script runs as its own interpreter under
``-W error::DeprecationWarning``, so an example that drifts onto a
removed or deprecated name fails here instead of in a reader's hands.
``multicore_serving.py`` forks a worker pool and has its own CI step.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = [
    "quickstart",
    "play_scripts",
    "digital_library",
    "query_processing",
    "synopsis_tuning",
    "growing_corpus",
]


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(ROOT / "examples" / ("%s.py" % name))],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
