"""Typed requests and responses of the spec service.

A :class:`SpecRequest` is the one unit of work the service accepts: *this*
design, evaluated against *this* registered experiment, with optional grid
overrides and execution options.  The same object runs in-process
(:meth:`MixerService.submit`), over HTTP (``POST /v1/spec``) and from the
shell (``python -m repro.cli``) — the wire format is exactly
:meth:`SpecRequest.to_dict`.

A :class:`SpecResponse` pairs the request identity (experiment, design
fingerprint, request key) with the encoded result payload and bookkeeping
about where the answer came from (computed, memory cache, disk cache).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.registry import ExperimentSpec
from repro.api.serialization import decode, encode
from repro.core.config import MixerDesign

#: Wire-format version; part of every request key, so a semantic change to
#: the payloads invalidates cached responses instead of reinterpreting them.
#: v2: non-finite floats travel as ``{"__float__": ...}`` tags (strict JSON)
#: instead of bare ``Infinity``/``NaN`` tokens.
#: v3: requests carry an explicit ``api_version`` field (mismatches are a
#: structured error naming both versions instead of a silent reinterpretation),
#: optimisation requests travel the standard envelope (``yield_pareto``
#: joined the registry and the old typed side-door was retired), and
#: ``GET /v1/experiments`` serves the registry metadata.
API_VERSION = 3


class RequestValidationError(ValueError):
    """A request that cannot be dispatched (unknown experiment, bad grid...)."""


class ApiVersionError(RequestValidationError):
    """Client and server speak different wire-format versions.

    Carries both versions so every surface can say exactly which side is
    behind — the HTTP layer turns this into a structured 400 body naming
    ``client_api_version`` and ``server_api_version``.
    """

    def __init__(self, client_version: Any,
                 server_version: int = API_VERSION) -> None:
        self.client_version = client_version
        self.server_version = server_version
        super().__init__(
            f"api_version mismatch: request speaks {client_version!r}, "
            f"this side speaks {server_version}")


def _jsonable_grid_value(value: Any) -> Any:
    """Grid override values as canonical JSON types (arrays become lists)."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):
        return int(value)     # point counts etc. must stay integers
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable_grid_value(item) for item in value]
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _jsonable_grid_value(tolist())
    raise RequestValidationError(
        f"grid values must be numbers, strings, booleans or arrays; "
        f"got {type(value).__name__}")


@dataclass(frozen=True)
class SpecRequest:
    """One "evaluate this design against this paper artefact" call.

    Attributes
    ----------
    experiment:
        Name of a registered experiment (``"fig8"``, ``"table1"``, ...).
    design:
        The design record to evaluate; defaults to the paper's design point.
    grid:
        Overrides of the experiment's default grid parameters (sweep spans,
        point counts, tone plans); unknown names are rejected at validation.
    workers:
        Process count for the sweep engine (experiments that accept it).
        The engine cache is not a request option: it belongs to the service
        that runs the request (``MixerService(spec_cache=)``).
    """

    experiment: str
    design: MixerDesign = field(default_factory=MixerDesign)
    grid: Mapping[str, Any] = field(default_factory=dict)
    workers: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.experiment, str) or not self.experiment:
            raise RequestValidationError("experiment must be a non-empty string")
        if not isinstance(self.design, MixerDesign):
            raise RequestValidationError("design must be a MixerDesign "
                                         "(build one with MixerDesign.from_dict)")
        if self.workers is not None and int(self.workers) < 1:
            raise RequestValidationError("workers must be at least 1")

    # -- validation -----------------------------------------------------------

    def validate(self, spec: ExperimentSpec) -> dict[str, Any]:
        """Check this request against the registry entry it names.

        Returns the **resolved grid** — the experiment's defaults merged
        with this request's overrides — which is both what the runner is
        called with and what the response-cache key hashes.
        """
        if spec.name != self.experiment:
            raise RequestValidationError(
                f"request names {self.experiment!r} but was validated "
                f"against {spec.name!r}")
        unknown = sorted(set(self.grid) - set(spec.default_grid))
        if unknown:
            raise RequestValidationError(
                f"unknown grid parameters {unknown} for {spec.name!r}; "
                f"accepted: {sorted(spec.default_grid)}")
        if self.workers is not None and not spec.accepts_workers:
            raise RequestValidationError(
                f"experiment {spec.name!r} does not accept workers=")
        resolved = dict(spec.default_grid)
        for name, value in self.grid.items():
            resolved[name] = _jsonable_grid_value(value)
        return resolved

    # -- identity -------------------------------------------------------------

    def request_key(self, spec: ExperimentSpec,
                    resolved_grid: Mapping[str, Any] | None = None) -> str:
        """Stable content hash of (experiment, design, resolved grid).

        The execution option ``workers`` is deliberately excluded: the
        engine guarantees bit-identical results for any worker count, so it
        must never split the response cache.
        Callers that already hold the :meth:`validate` output pass it as
        ``resolved_grid`` to skip re-validating.
        """
        payload = json.dumps(
            {"api_version": API_VERSION,
             "experiment": self.experiment,
             "design": self.design.fingerprint(),
             "grid": resolved_grid if resolved_grid is not None
             else self.validate(spec)},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- wire format ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready request (what the HTTP endpoint accepts)."""
        payload: dict = {"api_version": API_VERSION,
                         "experiment": self.experiment,
                         "design": self.design.to_dict()}
        if self.grid:
            payload["grid"] = {name: _jsonable_grid_value(value)
                               for name, value in self.grid.items()}
        if self.workers is not None:
            payload["workers"] = int(self.workers)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpecRequest":
        """Rebuild a request from :meth:`to_dict` output (or hand-written JSON).

        ``design`` may be omitted (the paper's default design point) or a
        mapping accepted by :meth:`MixerDesign.from_dict`.  ``api_version``
        may be omitted (hand-written payloads are read as current), but a
        present mismatching version raises :class:`ApiVersionError` — a
        v2 client's payload must not be silently reinterpreted as v3.
        """
        if not isinstance(payload, Mapping):
            raise RequestValidationError("request payload must be a mapping")
        known = {"api_version", "experiment", "design", "grid", "workers"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise RequestValidationError(
                f"unknown request fields {unknown}; accepted: {sorted(known)}")
        version = payload.get("api_version")
        if version is not None and version != API_VERSION:
            raise ApiVersionError(version)
        if "experiment" not in payload:
            raise RequestValidationError("request needs an 'experiment' field")
        design_payload = payload.get("design")
        try:
            design = MixerDesign() if design_payload is None \
                else MixerDesign.from_dict(design_payload)
        except (TypeError, ValueError) as error:
            raise RequestValidationError(f"bad design payload: {error}") from None
        grid = payload.get("grid") or {}
        if not isinstance(grid, Mapping):
            raise RequestValidationError("grid must be a mapping")
        workers = payload.get("workers")
        if workers is not None:
            if isinstance(workers, bool) or not isinstance(workers, int):
                raise RequestValidationError("workers must be an integer")
        return cls(experiment=str(payload["experiment"]), design=design,
                   grid=dict(grid), workers=workers)


#: Where a response's answer came from.
SOURCE_COMPUTED = "computed"
SOURCE_MEMORY = "memory-cache"
SOURCE_DISK = "disk-cache"


@dataclass
class SpecResponse:
    """The service's answer to one :class:`SpecRequest`.

    ``result_payload`` is the encoded result (exact JSON round-trip of the
    driver's return value); :attr:`result` decodes it back into the driver's
    dataclass on demand.
    """

    experiment: str
    design_fingerprint: str
    request_key: str
    result_schema: str
    result_payload: dict
    source: str = SOURCE_COMPUTED
    elapsed_s: float = 0.0

    @property
    def cached(self) -> bool:
        """True when the answer was served from a response cache."""
        return self.source != SOURCE_COMPUTED

    @property
    def result(self) -> Any:
        """The result as the driver's dataclass (decoded from the payload)."""
        return decode(self.result_payload)

    def to_dict(self) -> dict:
        """JSON-ready response (what the HTTP endpoint returns)."""
        return {
            "api_version": API_VERSION,
            "experiment": self.experiment,
            "design_fingerprint": self.design_fingerprint,
            "request_key": self.request_key,
            "result_schema": self.result_schema,
            "source": self.source,
            "elapsed_s": self.elapsed_s,
            "result": self.result_payload,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpecResponse":
        """Rebuild a response from :meth:`to_dict` output (HTTP client side)."""
        if payload.get("api_version") != API_VERSION:
            raise ApiVersionError(payload.get("api_version"))
        return cls(
            experiment=str(payload["experiment"]),
            design_fingerprint=str(payload["design_fingerprint"]),
            request_key=str(payload["request_key"]),
            result_schema=str(payload["result_schema"]),
            result_payload=dict(payload["result"]),
            source=str(payload.get("source", SOURCE_COMPUTED)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
        )


def build_result_response(request: SpecRequest, spec: ExperimentSpec,
                          result: Any, source: str = SOURCE_COMPUTED,
                          elapsed_s: float = 0.0,
                          request_key: str | None = None) -> SpecResponse:
    """Package a driver result into a :class:`SpecResponse`.

    ``request_key`` skips recomputing the hash when the caller (the
    service's dispatch path) already derived it for the cache lookup.
    """
    if not isinstance(result, spec.result_type):
        raise TypeError(
            f"runner for {spec.name!r} returned {type(result).__name__}, "
            f"expected {spec.result_type.__name__}")
    return SpecResponse(
        experiment=spec.name,
        design_fingerprint=request.design.fingerprint(),
        request_key=request_key if request_key is not None
        else request.request_key(spec),
        result_schema=spec.result_type.__name__,
        result_payload=encode(result),
        source=source,
        elapsed_s=elapsed_s,
    )
