"""The library runs on numpy alone: no module under ``src/`` needs scipy.

With the engine cache off and the response cache memory-only, the served
path never imports ``sqlite3`` either: the caches import it on first use.

The served path (``repro.serve`` and every waveform and digital engine
behind it) is exercised in a fresh interpreter whose import system refuses
``scipy``, so a stray import anywhere on that path fails the run instead of
silently adding scipy's import time and memory to a cold server.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import math
    import sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"scipy is blocked: {name}")
            return None

    sys.meta_path.insert(0, RefuseScipy())

    import repro.serve  # noqa: F401
    from repro.api import MixerService, SpecRequest
    from repro.baselines import published_baseline
    from repro.rf.conversion_gain import measure_conversion_gain

    service = MixerService(response_cache=False)
    for name in ("fig10", "p1db", "iip2", "digital_if", "bits_floor"):
        response = service.submit(SpecRequest(name))
        assert not response.cached and response.result_payload, name

    # The aperiodic filter path: a baseline device prepends a cyclic prefix
    # and filters it with FirstOrderLowPass.apply.
    device = published_baseline("[5]").waveform_device(10.24e9, 2.0e9)
    gain = measure_conversion_gain(device, 2.005e9, 5e6, -40.0, 10.24e9, 10240)
    assert math.isfinite(gain), gain

    loaded = sorted(name for name in sys.modules
                    if name == "scipy" or name.startswith("scipy."))
    assert not loaded, loaded
    print("ok")
""")


SQLITE_SCRIPT = textwrap.dedent("""
    import sys
    import tempfile

    import repro.serve  # noqa: F401
    from repro.api import MixerService, SpecRequest

    service = MixerService()
    for name in ("fig8", "table1", "fig10", "p1db", "digital_if"):
        service.submit(SpecRequest(name))
        assert service.submit(SpecRequest(name)).source == "memory-cache"
    assert "sqlite3" not in sys.modules
    with tempfile.TemporaryDirectory() as directory:
        MixerService(spec_cache=directory).submit(SpecRequest("table1"))
    assert "sqlite3" in sys.modules
    print("ok")
""")


def test_engine_cache_off_never_imports_sqlite3():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run([sys.executable, "-c", SQLITE_SCRIPT],
                               env=env, capture_output=True, text=True,
                               timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"


def test_served_path_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
