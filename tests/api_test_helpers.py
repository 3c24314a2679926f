"""Shared helpers for the API-layer tests (tests/test_api.py, test_serve.py).

Kept out of ``conftest.py`` because the repo has two conftests (tests/ and
benchmarks/) and a plain ``import conftest`` would be ambiguous under
pytest's prepend import mode; the fixtures built on these helpers still
live in ``tests/conftest.py``.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass

from repro.api import SpecRequest, register_payload_type, report_progress
from repro.api.registry import ExperimentRegistry, ExperimentSpec
from repro.core.config import MixerDesign, MixerMode
from repro.optimize import default_targets

#: Active-mode-only Table I targets in wire form, derived from the
#: canonical default set so the numbers cannot drift from
#: repro.optimize.targets (benchmarks/test_bench_optimize.py and
#: tools/serve_smoke.py derive theirs the same way).
ACTIVE_TARGETS = [target.to_wire() for target in default_targets()
                  if target.mode is MixerMode.ACTIVE]

#: Small grid overrides keeping the full-registry API tests fast in CI.
#: The yield_opt entry restricts the targets to active-mode bounds (halving
#: the modes the sweep must solve) on a 3-candidate, 2-iteration search.
SMALL_GRIDS: dict[str, dict] = {
    "fig8": {"points": 24},
    "fig9": {"points": 24},
    "fig10": {"input_powers_dbm": [-45.0, -43.0, -41.0, -39.0, -37.0, -35.0]},
    "table1": {},
    "iip2": {"input_powers_dbm": [-45.0, -43.0, -41.0, -39.0, -37.0]},
    "p1db": {"input_powers_dbm": [-40.0, -34.0, -28.0, -22.0, -16.0, -10.0]},
    "power_budget": {},
    "tia_response": {"points": 16},
    "ablation": {},
    "digital_if": {"adc_bits": [6, 10, 14]},
    "bits_floor": {"adc_candidates": [10, 12, 14, 16],
                   "lo_candidates": [8, 12],
                   "output_candidates": [16, 20]},
    "yield_opt": {
        "population": 3,
        "iterations": 2,
        "num_samples": 4,
        "targets": ACTIVE_TARGETS,
    },
    "yield_pareto": {
        "population": 3,
        "iterations": 2,
        "num_samples": 4,
        "targets": ACTIVE_TARGETS,
    },
}

EXPERIMENT_NAMES = sorted(SMALL_GRIDS)


def small_request(name: str, design: MixerDesign | None = None) -> SpecRequest:
    """A SpecRequest for ``name`` on the shared small grid."""
    return SpecRequest(experiment=name,
                       design=design if design is not None else MixerDesign(),
                       grid=SMALL_GRIDS[name])


# -- controllable fake experiments for job/concurrency tests ------------------

@dataclass
class EchoResult:
    """Trivial result payload for the injected test experiments."""

    label: str
    value: float


register_payload_type(EchoResult)

#: Named gates the ``echo`` runner can block on — lets a test hold a job
#: in the running state deterministically, observe it, then release it.
GATES: dict[str, threading.Event] = {}

#: Engine-invocation counters: ``CALLS["run"]`` counts per-design runner
#: executions (the batch runner routes through the same path), and
#: ``CALLS["batch"]`` counts batch-runner calls.  Tests reset this
#: (``CALLS.clear()``) and assert exact execution counts.
CALLS: collections.Counter = collections.Counter()


def open_gate(name: str) -> threading.Event:
    """(Re)create the named gate in the closed state."""
    GATES[name] = threading.Event()
    return GATES[name]


def _run_echo(design: MixerDesign, *, value: float = 1.0, fail: bool = False,
              gate: str = "", drop_nth: int = -1) -> EchoResult:
    # drop_nth only means something to the batch runner; the solo runner
    # accepts it so single-member echo_batch groups still dispatch.
    del drop_nth
    CALLS["run"] += 1
    if gate:
        report_progress(stage="echo", gate=gate, checkpoint=1)
        GATES[gate].wait(timeout=30)
    if fail:
        raise RuntimeError("injected runner failure")
    return EchoResult(label=design.fingerprint()[:12], value=float(value))


def _batch_echo(designs, *, value: float = 1.0, fail: bool = False,
                gate: str = "", drop_nth: int = -1):
    """Batch runner that can drop (or ``None`` out) one member's result."""
    CALLS["batch"] += 1
    results = {}
    for index, (fingerprint, design) in enumerate(designs.items()):
        if index == drop_nth:
            results[fingerprint] = None  # an omitted member behaves the same
            continue
        results[fingerprint] = _run_echo(design, value=value, fail=fail,
                                         gate=gate)
    return results


def _report_echo(result: EchoResult) -> str:
    return f"echo {result.label}: {result.value}"


def echo_registry() -> ExperimentRegistry:
    """A registry with controllable experiments (block/fail/drop on demand).

    ``echo`` is a plain experiment; ``echo_batch`` adds a batch runner whose
    ``drop_nth`` grid knob injects a per-member failure — the scenario the
    batch-alignment fix must turn into a loud error, never a silently
    shortened response list.
    """
    registry = ExperimentRegistry()
    grid = {"value": 1.0, "fail": False, "gate": ""}
    registry.register(ExperimentSpec(
        name="echo", artefact="test fixture", summary="controllable runner",
        runner=_run_echo, result_type=EchoResult, report=_report_echo,
        default_grid=grid, accepts_workers=False, accepts_cache=False))
    registry.register(ExperimentSpec(
        name="echo_batch", artefact="test fixture",
        summary="controllable batch runner", runner=_run_echo,
        result_type=EchoResult, report=_report_echo,
        default_grid={**grid, "drop_nth": -1},
        accepts_workers=False, accepts_cache=False,
        batch_runner=_batch_echo))
    return registry
