"""The service facade: one entry point for every registered experiment.

:class:`MixerService` is what "serve the paper" means in code: it validates
:class:`~repro.api.request.SpecRequest` objects against the experiment
registry, answers repeated requests from a two-tier response cache without
touching the engine (zero sizing solves — the acceptance bar from the
sweep-cache work, lifted to whole requests), dispatches misses to the
``run_*`` drivers, and fans batch requests over the same design axis out
through the sweep engine's :class:`~repro.sweep.parallel.ParallelSweepRunner`
when the experiment supports it.

The in-process, HTTP (:mod:`repro.serve`) and CLI (:mod:`repro.cli`)
surfaces all run through this one class, so a response is bit-identical no
matter which door the request came through.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

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


@dataclass(frozen=True)
class RequestPlan:
    """One validated request's dispatch identity.

    Everything :meth:`MixerService.plan_groups` needs to decide what a
    request *is* without executing it: the registry entry, the resolved grid (defaults merged
    with overrides — exactly what the runner will be called with), the
    response-cache ``key``, and the grouping ``token`` two requests must
    share to run in one engine group.
    """

    spec: ExperimentSpec
    resolved: dict[str, Any]
    key: str
    token: tuple


@dataclass
class PlannedGroup:
    """One same-(experiment, grid, options) group of uncached requests.

    ``members`` holds ``(index, request, key)`` in submission order, where
    ``index`` is the request's position in the original batch and ``key``
    its response-cache key.  ``resolved`` is the grid shared by every
    member (validated once, at planning time — :meth:`execute_group` never
    re-validates).
    """

    spec: ExperimentSpec
    resolved: dict[str, Any]
    members: list[tuple[int, SpecRequest, str]] = field(default_factory=list)


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
        ``workers`` field wins).  Either is capped at ``os.cpu_count()``:
        results are bit-identical for any worker count, and every distinct
        count keeps its own persistent process pool.
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
                options["workers"] = min(workers, os.cpu_count() or 1)
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

    def submit(self, request: SpecRequest) -> SpecResponse:
        """Answer one request (from cache when possible, computed otherwise)."""
        spec = self._spec_for(request.experiment)
        resolved = request.validate(spec)
        key = request.request_key(spec, resolved_grid=resolved)
        cached = self._cached_response(key)
        if cached is not None:
            return cached
        started = time.perf_counter()
        result = spec.runner(request.design, **resolved,
                             **self._run_options(request, spec))
        elapsed = time.perf_counter() - started
        response = build_result_response(request, spec, result,
                                         source=SOURCE_COMPUTED,
                                         elapsed_s=elapsed, request_key=key)
        self._store(response)
        return response

    def _group_token(self, request: SpecRequest,
                     resolved: dict[str, Any]) -> tuple:
        """Grouping identity: requests with equal tokens may share a run.

        The execution option is part of the token so a member's explicit
        ``workers=`` is honoured, never silently dropped in favour of
        another member's.
        """
        return (request.experiment, json.dumps(resolved, sort_keys=True),
                request.workers)

    def plan_request(self, request: SpecRequest) -> RequestPlan:
        """Validate one request and derive its dispatch identity.

        This is the read-only half of :meth:`submit`: registry lookup, grid
        validation, cache key and group token, with no engine work and no
        cache reads.  Raises :class:`RequestValidationError` exactly as
        :meth:`submit` would.
        """
        spec = self._spec_for(request.experiment)
        resolved = request.validate(spec)
        key = request.request_key(spec, resolved_grid=resolved)
        return RequestPlan(spec=spec, resolved=resolved, key=key,
                           token=self._group_token(request, resolved))

    def plan_groups(self, requests: Sequence[SpecRequest],
                    ) -> tuple[list[SpecResponse | None], list[PlannedGroup]]:
        """Split a batch into cached responses and executable groups.

        Returns ``(responses, groups)``: ``responses`` is positionally
        aligned with ``requests``, already holding every cache hit (the
        rest ``None``); ``groups`` holds one :class:`PlannedGroup` per
        distinct ``(experiment, resolved grid, options)`` token covering
        every miss.  :meth:`execute_group` fills the holes.
        """
        responses: list[SpecResponse | None] = [None] * len(requests)
        groups: dict[tuple, PlannedGroup] = {}
        for index, request in enumerate(requests):
            plan = self.plan_request(request)
            cached = self._cached_response(plan.key)
            if cached is not None:
                responses[index] = cached
                continue
            group = groups.get(plan.token)
            if group is None:
                group = groups[plan.token] = PlannedGroup(
                    spec=plan.spec, resolved=plan.resolved)
            group.members.append((index, request, plan.key))
        return responses, list(groups.values())

    def execute_group(self, group: PlannedGroup,
                      workers: int | None = None,
                      ) -> list[tuple[int, SpecResponse]]:
        """Answer one planned group, as one engine call where possible.

        When the experiment registers a ``batch_runner`` and the group
        spans at least two distinct designs, the whole group runs as one
        design axis; otherwise members fall back to individual
        :meth:`submit` calls (which still collapse repeats through the
        response cache).  Either way each member's response is
        bit-identical to a solo :meth:`submit`.
        """
        distinct = {request.design.fingerprint()
                    for _, request, _ in group.members}
        if group.spec.batch_runner is None or len(distinct) < 2:
            return [(index, self.submit(request))
                    for index, request, _ in group.members]
        return self._run_group(group, workers)

    def submit_batch(self, requests: Sequence[SpecRequest] | Iterable[SpecRequest],
                     workers: int | None = None) -> list[SpecResponse]:
        """Answer many requests, fanning shared-grid groups over the engine.

        Requests naming the same experiment with the same resolved grid form
        one group; when the experiment registers a ``batch_runner``, the
        whole group's designs run as **one design axis** through the sweep
        engine — sharded across processes by
        :class:`~repro.sweep.parallel.ParallelSweepRunner` when ``workers``
        (or the per-request/service default) asks for it — instead of N
        sequential runs.  Per-design results are bit-identical to individual
        :meth:`submit` calls either way, so cached and computed members of a
        batch can mix freely.  Response order matches request order.
        """
        batch = list(requests)
        responses, groups = self.plan_groups(batch)
        for group in groups:
            for index, response in self.execute_group(group, workers=workers):
                responses[index] = response
        # Every request must have produced a response at its own index: a
        # missing member silently shortening the list would misalign the
        # request/response pairing for every later member (the /v1/batch
        # contract is positional), so fail the whole batch loudly instead.
        missing = [index for index, response in enumerate(responses)
                   if response is None]
        if missing:
            raise RuntimeError(
                f"batch produced no response for request(s) at index(es) "
                f"{missing} of {len(batch)}; refusing to return a "
                f"misaligned response list")
        assert len(responses) == len(batch)
        return list(responses)

    def _run_group(self, group: PlannedGroup,
                   workers: int | None) -> list[tuple[int, SpecResponse]]:
        """One batch_runner call for a same-(experiment, grid, options) group.

        Members share their execution options and resolved grid by
        construction (both derive from the group token at planning time, so
        nothing is re-validated here); the lead request speaks for the
        group's options, and the batch-level ``workers`` argument, when
        given, overrides.
        """
        spec = group.spec
        lead = group.members[0][1]
        options = self._run_options(lead, spec)
        group_workers = workers if workers is not None \
            else options.get("workers")
        if group_workers is not None:
            options["workers"] = group_workers
        designs = {}
        for _, request, _ in group.members:
            designs.setdefault(request.design.fingerprint(), request.design)
        started = time.perf_counter()
        results = spec.batch_runner(designs, **group.resolved, **options)
        elapsed = time.perf_counter() - started
        out: list[tuple[int, SpecResponse]] = []
        for index, request, key in group.members:
            fingerprint = request.design.fingerprint()
            result = results.get(fingerprint) \
                if hasattr(results, "get") else results[fingerprint]
            if result is None:
                raise RuntimeError(
                    f"batch runner for {spec.name!r} returned no result for "
                    f"design {fingerprint[:12]} (request #{index})")
            response = build_result_response(request, spec, result,
                                             source=SOURCE_COMPUTED,
                                             elapsed_s=elapsed,
                                             request_key=key)
            self._store(response)
            out.append((index, response))
        return out

    def _store(self, response: SpecResponse) -> None:
        if self.response_cache is not None:
            self.response_cache.store(response.request_key, response.to_dict())
