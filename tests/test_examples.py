"""Every script under ``examples/`` runs to completion.

The examples read public model surfaces (``MosfetOperatingPoint.ro``,
``gm_over_id``, the service API), so a refactor that breaks one of them
fails here rather than in a reader's terminal.  Each script runs in its
own interpreter with ``src`` on ``PYTHONPATH``, from a scratch directory
so nothing it might write lands in the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

#: Seconds one example may take; each finishes in well under one.
TIMEOUT_S = 60


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script: Path, tmp_path: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=TIMEOUT_S)
    assert completed.returncode == 0, completed.stderr[-2000:]
