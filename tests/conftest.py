"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from api_test_helpers import SMALL_GRIDS

from repro.api import encode
from repro.api.registry import default_registry
from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer
from repro.sweep.parallel import shutdown_pool


@pytest.fixture(scope="session", autouse=True)
def _process_pool():
    """Join the shared process pool once the session's last test is done."""
    yield
    shutdown_pool()


@pytest.fixture(scope="session")
def registry():
    """The fully populated experiment registry."""
    return default_registry()


@pytest.fixture(scope="session")
def direct_payloads(registry):
    """Encoded direct ``run_*`` results on the small grids, computed once.

    Returned as a callable so each test only pays for the experiments it
    actually compares against.
    """
    cache: dict[str, dict] = {}

    def compute(name: str) -> dict:
        if name not in cache:
            spec = registry.get(name)
            grid = {**spec.default_grid, **SMALL_GRIDS[name]}
            cache[name] = encode(spec.runner(MixerDesign(), **grid))
        return cache[name]

    return compute


@pytest.fixture(scope="session")
def design() -> MixerDesign:
    """Default design point (the paper's operating point)."""
    return MixerDesign()


@pytest.fixture(scope="session")
def active_mixer(design: MixerDesign) -> ReconfigurableMixer:
    """The mixer configured in active (Gilbert-cell) mode."""
    return ReconfigurableMixer(design, MixerMode.ACTIVE)


@pytest.fixture(scope="session")
def passive_mixer(design: MixerDesign) -> ReconfigurableMixer:
    """The mixer configured in passive (current-commutating) mode."""
    return ReconfigurableMixer(design, MixerMode.PASSIVE)


#: Sampling grid shared by waveform-level tests: 10.24 GS/s, 1 MHz bins.
SAMPLE_RATE = 10.24e9
NUM_SAMPLES = 10240


@pytest.fixture(scope="session")
def sample_rate() -> float:
    """Waveform test sample rate (Hz)."""
    return SAMPLE_RATE


@pytest.fixture(scope="session")
def num_samples() -> int:
    """Waveform test record length (samples)."""
    return NUM_SAMPLES
