"""The service facade: one entry point for every registered experiment.

:class:`MixerService` is what "serve the paper" means in code: it validates
:class:`~repro.api.request.SpecRequest` objects against the experiment
registry, answers repeated requests from a two-tier response cache without
touching the engine (zero sizing solves — the acceptance bar from the
sweep-cache work, lifted to whole requests), and runs the misses through
the registered drivers.  :meth:`~MixerService.submit` and
:meth:`~MixerService.submit_batch` share one request path — a solo request
is a batch of one — which plans each request once, makes one cache lookup
per request, and runs each same-(experiment, grid, capped ``workers``)
group of misses once: one ``batch_runner`` call over the group's distinct
designs (fanned out through the sweep engine's
:class:`~repro.sweep.parallel.ParallelSweepRunner`), or one ``runner`` call
per distinct design for a point experiment.

The in-process, HTTP (:mod:`repro.serve`) and CLI (:mod:`repro.cli`)
surfaces all run through this one class, so a response is bit-identical no
matter which door the request came through.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.api.registry import (
    ExperimentRegistry,
    ExperimentSpec,
    default_registry,
)
from repro.api.request import (
    RequestValidationError,
    SOURCE_COMPUTED,
    SOURCE_DISK,
    SOURCE_MEMORY,
    SpecRequest,
    SpecResponse,
    build_result_response,
)
from repro.api.response_cache import DEFAULT_LRU_SIZE, ResponseCache
from repro.sweep import parallel


@dataclass(frozen=True)
class RequestPlan:
    """One validated request's dispatch identity.

    The registry entry, the resolved grid (defaults merged with overrides —
    exactly what the runner will be called with) and the response-cache
    ``key``: everything the service needs to answer a request, derived
    without executing it.
    """

    spec: ExperimentSpec
    resolved: dict[str, Any]
    key: str


class MixerService:
    """Dispatches spec requests through the experiment registry.

    Parameters
    ----------
    registry:
        The experiment registry; defaults to the fully populated global one.
    response_cache:
        ``None`` (default) keeps a memory-only LRU; a directory string/path
        adds the disk tier; an existing :class:`ResponseCache` is used
        as-is; ``False`` disables response caching entirely.
    spec_cache:
        The ``cache=`` option forwarded to runners that accept it.  This is
        the *engine* cache of solved intermediates, one tier below the
        response cache; requests cannot name one.
    workers:
        Default ``workers=`` for runners that accept it (a request's own
        ``workers`` field wins).  Either is capped at ``usable_cpus()``,
        the size of the one process pool every sharded run draws from:
        results are bit-identical for any worker count.
    lru_size:
        Capacity of the memory tier when the service builds its own cache.
    """

    def __init__(self, registry: ExperimentRegistry | None = None,
                 response_cache: ResponseCache | str | bool | None = None,
                 spec_cache: Any = None,
                 workers: int | None = None,
                 lru_size: int = DEFAULT_LRU_SIZE) -> None:
        self.registry = registry if registry is not None else default_registry()
        if response_cache is False:
            self.response_cache: ResponseCache | None = None
        elif response_cache is None or response_cache is True:
            self.response_cache = ResponseCache(lru_size=lru_size)
        elif isinstance(response_cache, ResponseCache):
            self.response_cache = response_cache
        else:
            self.response_cache = ResponseCache(response_cache,
                                                lru_size=lru_size)
        self.spec_cache = spec_cache
        self.workers = workers

    # -- registry surface -----------------------------------------------------

    def experiments(self) -> list[dict]:
        """JSON-ready metadata for every registered experiment."""
        return [spec.describe() for spec in self.registry]

    def report(self, response: SpecResponse) -> str:
        """The driver's text rendering of a response's result."""
        spec = self._spec_for(response.experiment)
        return spec.report(response.result)

    def _spec_for(self, experiment: str) -> ExperimentSpec:
        try:
            return self.registry.get(experiment)
        except KeyError as error:
            raise RequestValidationError(str(error)) from None

    # -- execution ------------------------------------------------------------

    def _run_options(self, request: SpecRequest,
                     spec: ExperimentSpec) -> dict[str, Any]:
        """The ``workers=`` / ``cache=`` keywords one runner call gets."""
        options: dict[str, Any] = {}
        if spec.accepts_workers:
            workers = request.workers if request.workers is not None \
                else self.workers
            if workers is not None:
                options["workers"] = min(workers, parallel.usable_cpus())
        if spec.accepts_cache and self.spec_cache is not None:
            options["cache"] = self.spec_cache
        return options

    def _cached_response(self, key: str) -> SpecResponse | None:
        if self.response_cache is None:
            return None
        hit = self.response_cache.load(key)
        if hit is None:
            return None
        entry, tier = hit
        try:
            response = SpecResponse.from_dict(entry)
        except (KeyError, TypeError, ValueError):
            return None
        response.source = SOURCE_MEMORY if tier == "memory" else SOURCE_DISK
        response.elapsed_s = 0.0
        return response

    def plan_request(self, request: SpecRequest) -> RequestPlan:
        """Validate one request and derive its dispatch identity.

        Registry lookup, grid validation and cache key, with no engine work
        and no cache reads.  Raises :class:`RequestValidationError` exactly
        as :meth:`submit` would.
        """
        spec = self._spec_for(request.experiment)
        resolved = request.validate(spec)
        key = request.request_key(spec, resolved_grid=resolved)
        return RequestPlan(spec=spec, resolved=resolved, key=key)

    def submit(self, request: SpecRequest) -> SpecResponse:
        """Answer one request: a batch of one (see :meth:`submit_batch`)."""
        return self._answer([request])[0]

    def submit_batch(self, requests: Iterable[SpecRequest]
                     ) -> list[SpecResponse]:
        """Answer many requests, running each shared-grid group once.

        Every request is planned once and looked up in the response cache
        once.  The misses are grouped by (experiment, resolved grid, capped
        ``workers``), and each group runs once: as **one design axis**
        through the experiment's ``batch_runner`` (sharded across processes
        by :class:`~repro.sweep.parallel.ParallelSweepRunner` when the
        group's ``workers`` asks for it), or, for a point experiment, as one
        ``runner`` call per distinct design.  Duplicate designs in a group
        share that run.  Per-design results are bit-identical to solo
        :meth:`submit` calls, so cached and computed members of a batch can
        mix freely.  Response order matches request order.
        """
        return self._answer(list(requests))

    def _answer(self, requests: list[SpecRequest]) -> list[SpecResponse]:
        """The one request path behind :meth:`submit` and :meth:`submit_batch`."""
        responses: list[SpecResponse | None] = [None] * len(requests)
        groups: dict[tuple, list[tuple[int, RequestPlan]]] = {}
        for index, request in enumerate(requests):
            plan = self.plan_request(request)
            cached = self._cached_response(plan.key)
            if cached is not None:
                responses[index] = cached
                continue
            group = (request.experiment,
                     json.dumps(plan.resolved, sort_keys=True),
                     self._run_options(request, plan.spec).get("workers"))
            groups.setdefault(group, []).append((index, plan))
        # Each slot is now a cache hit or a member of exactly one group, and
        # _run_group fills every member's slot or raises: the /v1/batch
        # contract is positional, so no list may come back shortened.
        # Duplicate requests share a key, which is stored once.
        stored: set[str] = set()
        for members in groups.values():
            self._run_group(requests, members, responses, stored)
        return responses  # type: ignore[return-value]

    def _run_group(self, requests: list[SpecRequest],
                   members: list[tuple[int, RequestPlan]],
                   responses: list[SpecResponse | None],
                   stored: set[str]) -> None:
        """Run one same-(experiment, grid, workers) group and fill its slots.

        Members share their resolved grid and capped ``workers`` by
        construction, so the lead request speaks for the group's run
        options.  Each response is stored unless its key is already in
        ``stored``.
        """
        lead_index, lead = members[0]
        spec, resolved = lead.spec, lead.resolved
        options = self._run_options(requests[lead_index], spec)
        designs = {}
        for index, _ in members:
            design = requests[index].design
            designs.setdefault(design.fingerprint(), design)
        started = time.perf_counter()
        if spec.batch_runner is not None:
            results = spec.batch_runner(designs, **resolved, **options)
        else:
            results = {fingerprint: spec.runner(design, **resolved, **options)
                       for fingerprint, design in designs.items()}
        elapsed = time.perf_counter() - started
        for index, plan in members:
            request = requests[index]
            fingerprint = request.design.fingerprint()
            result = results.get(fingerprint)
            if result is None:
                raise RuntimeError(
                    f"batch runner for {spec.name!r} returned no result for "
                    f"design {fingerprint[:12]} (request #{index})")
            response = build_result_response(
                request, spec, result, source=SOURCE_COMPUTED,
                elapsed_s=elapsed, request_key=plan.key)
            if self.response_cache is not None and plan.key not in stored:
                stored.add(plan.key)
                self.response_cache.store(plan.key, response.to_dict())
            responses[index] = response
