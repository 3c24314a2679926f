"""The served benchmark's traced launcher still finds every seam it patches.

``servebench/traced_server.py`` wraps named classes, methods and functions
of the program (``_CornerScorer.values``, ``ShrinkingSpanStrategy.propose``,
``SpecCache.load`` ...) in tracing spans.  Renaming or deleting one of them
breaks the traced benchmark run; this test makes that a tier-1 failure.
The patches are installed in a fresh interpreter so they never leak into
the rest of the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

from servebench.traced_server import install, program_counters
from servebench.tracing import Tracer

install(Tracer(sys.argv[1], program_counters))
"""


def test_launcher_installs_every_patch(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
