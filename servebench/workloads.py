"""The benchmark's two workloads: seeded request streams for ``repro.serve``.

Every request is generated here.  Designs are drawn from the workload seed
by :func:`repro.sweep.montecarlo.sample_design` around the paper's
``MixerDesign()`` (every ``yield_opt`` search starts from ``MixerDesign()``
itself); the server only ever sees these requests.  All
workloads are closed loop: each client thread sends its next request only
after the previous reply arrived.

Why each workload exists (the layers it stresses and the ones it bypasses):

``cold_mix``
    2 clients, ``POST /v1/spec``, a fresh design per request cycling through
    {fig8, table1, fig10, p1db, digital_if}, engine cache off (the deploy
    default): every request misses the response cache and stores a new
    entry.  Scalar per-request engine work: sizing dominates fig8/table1,
    the waveform, filter and digital engines set the tail.
``batch_population``
    1 client, ``POST /v1/batch``: populations of 16 fresh designs with
    ``workers: 2``, each sent in turn under fig8, table1, fig10 and
    digital_if, then one default-grid ``yield_opt`` search on
    ``POST /v1/spec``, against a server with ``--spec-cache`` on an empty
    directory.  Batched sizing, the batched waveform/digital engines and
    process sharding; the engine cache is written by fig8 and read by
    table1.  The search is the optimiser layer (proposals plus corner
    scoring over 8 x 16-design populations per generation), measured
    nowhere else.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api.registry import default_registry
from repro.api.request import SpecRequest
from repro.core.config import MixerDesign
from repro.sweep.montecarlo import DeviceSpread, sample_design

SPEC = "/v1/spec"
BATCH = "/v1/batch"


@dataclass
class Op:
    """One request the client sends: its wire body and what it asked for."""

    index: int
    path: str
    body: bytes
    payloads: list[dict]
    designs: list[MixerDesign]
    #: Design evaluations the reply answers (designs_per_s numerator).
    weight: int

    @property
    def experiment(self) -> str:
        return self.payloads[0]["experiment"]


def _spec_op(index: int, experiment: str, design: MixerDesign,
             grid: dict | None = None, weight: int = 1) -> Op:
    payload = SpecRequest(experiment=experiment, design=design,
                          grid=grid or {}).to_dict()
    return Op(index=index, path=SPEC,
              body=json.dumps(payload).encode("utf-8"), payloads=[payload],
              designs=[design], weight=weight)


def _batch_op(index: int, experiment: str, designs: list[MixerDesign],
              workers: int | None = None) -> Op:
    payloads = [SpecRequest(experiment=experiment, design=design,
                            workers=workers).to_dict()
                for design in designs]
    body = json.dumps({"requests": payloads}).encode("utf-8")
    return Op(index=index, path=BATCH, body=body, payloads=payloads,
              designs=list(designs), weight=len(designs))


@dataclass
class Workload:
    """A seeded, thread-safe request stream plus how to start its server.

    ``setup_ops`` are the first request of each experiment the workload
    uses (part of ``setup_s``); ``warmup_ops`` load-loop requests follow,
    untimed.  Ops whose
    ``index`` is a multiple of ``check_every`` (and the first op of each
    experiment) are byte-checked against an in-process computation.
    """

    name: str
    seed: int
    clients: int
    experiments: tuple[str, ...]
    warmup_ops: int
    check_every: int
    _rng: np.random.Generator = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False,
                                  default_factory=threading.Lock)
    _next_index: int = field(init=False, default=0)
    _setup: list[Op] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng([self.seed, _WORKLOAD_IDS[self.name]])

    def _design(self, label: str) -> MixerDesign:
        return sample_design(MixerDesign(), self._rng, DeviceSpread(), label)

    def server_args(self, scratch: Path) -> list[str]:
        """Extra ``repro.serve`` arguments (a fresh ``scratch`` per server)."""
        return []

    def setup_ops(self) -> list[Op]:
        """The first request of each experiment; the same list every call."""
        if self._setup is None:
            self._setup = [self._make(-1 - number, experiment)
                           for number, experiment
                           in enumerate(self.experiments)]
        return self._setup

    def next_op(self) -> Op:
        """The next request of the stream (deterministic in the seed)."""
        with self._lock:
            index = self._next_index
            self._next_index += 1
            return self._make(index, self.experiments[
                index % len(self.experiments)])

    def _make(self, index: int, experiment: str) -> Op:
        raise NotImplementedError


class ColdMix(Workload):
    """A fresh design per request, cycling through the experiments."""

    def _make(self, index: int, experiment: str) -> Op:
        return _spec_op(index, experiment, self._design(f"cold-{index}"))


class BatchPopulation(Workload):
    """16 fresh designs per population, sent once under each batch
    experiment, then one ``yield_opt`` search; over and over.

    A search's cost depends on its seed, so every run sends the same search
    seeds in the same order, whatever the workload seed: the ``k``-th search
    of the window uses seed ``k + 1``.  The cycle is longer than the
    128-entry response cache, so a repeated search is still a miss.  The
    set-up search uses a seed outside the cycle.
    """

    POPULATION = 16
    WORKERS = 2
    SEARCH = "yield_opt"
    CYCLE = 256

    def __post_init__(self) -> None:
        super().__post_init__()
        self._population: tuple[int, list[MixerDesign]] | None = None
        grid = default_registry().get(self.SEARCH).default_grid
        self._search_weight = (int(grid["population"])
                               * int(grid["iterations"])
                               * int(grid["num_samples"]))

    def server_args(self, scratch: Path) -> list[str]:
        scratch.mkdir(parents=True, exist_ok=True)
        return ["--spec-cache", str(scratch)]

    def _designs(self, population: int) -> list[MixerDesign]:
        if self._population is None or self._population[0] != population:
            self._population = (population, [
                self._design(f"pop-{population}-{number:02d}")
                for number in range(self.POPULATION)])
        return self._population[1]

    def _make(self, index: int, experiment: str) -> Op:
        # Setup ops (negative indices) share population -1.
        number = index // len(self.experiments) if index >= 0 else -1
        if experiment == self.SEARCH:
            seed = number % self.CYCLE + 1 if number >= 0 else self.CYCLE + 1
            return _spec_op(index, experiment, MixerDesign(),
                            grid={"seed": seed}, weight=self._search_weight)
        return _batch_op(index, experiment, self._designs(number),
                         workers=self.WORKERS)


#: Distinct rng stream per workload, so one seed drives independent
#: request streams.
_WORKLOAD_IDS = {"cold_mix": 2, "batch_population": 3}


def make_workload(name: str, seed: int) -> Workload:
    """The named workload's request stream for ``seed``."""
    if name == "cold_mix":
        return ColdMix(name, seed, clients=2,
                       experiments=("fig8", "table1", "fig10", "p1db",
                                    "digital_if"),
                       warmup_ops=10, check_every=40)
    if name == "batch_population":
        return BatchPopulation(name, seed, clients=1,
                               experiments=("fig8", "table1", "fig10",
                                            "digital_if", "yield_opt"),
                               warmup_ops=5, check_every=16)
    raise ValueError(f"unknown workload {name!r}; known: {sorted(_WORKLOAD_IDS)}")


WORKLOADS = tuple(_WORKLOAD_IDS)
