"""Declarative registry of the paper's experiments.

Every module under :mod:`repro.experiments` registers its driver here with
the metadata the service layer needs: the paper artefact it reproduces, the
result type (wired into :mod:`repro.api.serialization` for exact
round-trips), the text reporter, and one declared function — the batch
function ``sweep_<x>`` of an engine-backed experiment, or the runner of a
point experiment.  Its signature is the only declaration of the default
grid and of the accepted execution options (``workers=`` / ``cache=``),
and an engine-backed experiment's solo ``run_<x>`` is derived from it.
The registry is what makes "evaluate this design against the paper's
artefacts" a single call: :class:`~repro.api.service.MixerService` validates
a :class:`~repro.api.request.SpecRequest` against an entry and dispatches it
without per-experiment plumbing.

Experiments self-register at import time (the ``register_experiment`` call
at the bottom of each driver module), so :func:`default_registry` only has
to import :mod:`repro.experiments` once to see all of them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.api.serialization import register_payload_type


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata plus dispatch callables.

    Attributes
    ----------
    name:
        Registry key and wire name (``"fig8"``, ``"table1"``, ...).
    artefact:
        The paper artefact the experiment reproduces (for listings).
    summary:
        One-line description of what the run computes.
    runner:
        ``runner(design, **grid, workers=..., cache=...)`` returning the
        result dataclass; exactly the public ``run_*`` entry point (derived
        from ``batch_runner`` when the experiment has one).
    result_type:
        The dataclass the runner returns (its name doubles as the result
        schema identifier on the wire).
    report:
        ``format_report(result) -> str``, the driver's text rendering.
    default_grid:
        Name -> default for every overridable grid parameter; the resolved
        grid (defaults merged with request overrides) is part of the
        response-cache key.
    accepts_workers / accepts_cache:
        Whether the runner takes ``workers=`` / ``cache=``.  Every
        engine-backed driver does; only the point circuit-level checks
        (``power_budget``, ``tia_response``, ``ablation``) do not.
    batch_runner:
        Optional ``batch_runner(designs, *, workers=..., cache=..., **grid)
        -> dict[label, result]`` evaluating many designs as one design axis
        through the sweep engine; the service fans batch requests out
        through it when available.
    """

    name: str
    artefact: str
    summary: str
    runner: Callable[..., Any]
    result_type: type
    report: Callable[[Any], str]
    default_grid: Mapping[str, Any] = field(default_factory=dict)
    accepts_workers: bool = True
    accepts_cache: bool = True
    batch_runner: Callable[..., Mapping[str, Any]] | None = None

    def describe(self) -> dict:
        """JSON-ready metadata (what ``GET /v1/experiments`` serves)."""
        return {
            "name": self.name,
            "artefact": self.artefact,
            "summary": self.summary,
            "result_schema": self.result_type.__name__,
            "default_grid": dict(self.default_grid),
            "accepts_workers": self.accepts_workers,
            "accepts_cache": self.accepts_cache,
            "batchable": self.batch_runner is not None,
        }


class ExperimentRegistry:
    """Name -> :class:`ExperimentSpec` mapping with validation helpers."""

    def __init__(self) -> None:
        self._specs: dict[str, ExperimentSpec] = {}

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        """Add one experiment; re-registering the same name is an error
        unless the entry is identical (idempotent re-imports are fine)."""
        existing = self._specs.get(spec.name)
        if existing is not None:
            if existing == spec:
                return spec
            raise ValueError(f"experiment {spec.name!r} already registered")
        if not spec.name or not spec.name.isidentifier():
            raise ValueError(f"experiment name {spec.name!r} must be a "
                             "simple identifier")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ExperimentSpec:
        """Entry for ``name``; ``KeyError`` names the known experiments."""
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"unknown experiment {name!r}; "
                           f"known: {self.names()}") from None

    def names(self) -> list[str]:
        """Registered experiment names, in registration order."""
        return list(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs.values())


#: The process-wide registry the experiment modules register into.
GLOBAL_REGISTRY = ExperimentRegistry()


#: Signature parameters that are not grid parameters.
_NON_GRID = ("design", "designs", "workers", "cache")


def register_experiment(*, name: str, artefact: str, summary: str,
                        result_type: type, report: Callable[[Any], str],
                        runner: Callable[..., Any] | None = None,
                        batch_runner: Callable[..., Mapping[str, Any]] | None = None,
                        payload_types: tuple[type, ...] = (),
                        ) -> ExperimentSpec:
    """Register one experiment into :data:`GLOBAL_REGISTRY`.

    Pass exactly one of ``runner(design, **grid)`` (a point experiment) or
    ``batch_runner(designs, **grid, workers=, cache=)`` (an engine-backed
    one, whose solo runner is then :func:`solo_runner`).  The default grid
    is every parameter of that signature except ``design``/``designs``/
    ``workers``/``cache``, tuples as lists (their wire form); the options
    accepted are the ones it has.
    ``payload_types`` lists the nested dataclasses the result embeds (the
    result type itself is always registered) so the serialization layer can
    round-trip the whole object graph.
    """
    if (runner is None) == (batch_runner is None):
        raise TypeError(f"experiment {name!r}: pass exactly one of runner= "
                        "or batch_runner=")
    parameters = inspect.signature(batch_runner or runner).parameters
    default_grid = {}
    for parameter in parameters.values():
        if parameter.name in _NON_GRID:
            continue
        if parameter.default is parameter.empty:
            raise TypeError(f"experiment {name!r}: grid parameter "
                            f"{parameter.name!r} needs a default")
        default = parameter.default
        default_grid[parameter.name] = list(default) \
            if isinstance(default, tuple) else default
    register_payload_type(result_type, *payload_types)
    spec = ExperimentSpec(
        name=name, artefact=artefact, summary=summary,
        runner=runner or solo_runner(batch_runner, result_type),
        result_type=result_type, report=report,
        default_grid=default_grid,
        accepts_workers="workers" in parameters,
        accepts_cache="cache" in parameters,
        batch_runner=batch_runner)
    return GLOBAL_REGISTRY.register(spec)


def solo_runner(batch_runner: Callable[..., Mapping[str, Any]],
                result_type: type) -> Callable[..., Any]:
    """``run_x(design=None, ...)``: ``batch_runner`` on one design.

    It runs ``batch_runner({"nominal": resolve_design(design)}, ...)``, so
    a solo result is bit-identical to that member of any batch.  Its
    signature is ``design`` followed by the batch runner's parameters.
    """
    # The drivers' package imports this module, so resolve lazily.
    from repro.experiments.common import resolve_design

    batch = inspect.signature(batch_runner)
    design = inspect.Parameter(
        "design", inspect.Parameter.POSITIONAL_OR_KEYWORD, default=None,
        annotation="MixerDesign | None")
    signature = batch.replace(
        parameters=[design, *list(batch.parameters.values())[1:]],
        return_annotation=result_type.__name__)

    def run(*args: Any, **kwargs: Any) -> Any:
        arguments = signature.bind(*args, **kwargs).arguments
        member = resolve_design(arguments.pop("design", None))
        return batch_runner({"nominal": member}, **arguments)["nominal"]

    run.__name__ = run.__qualname__ = \
        "run_" + batch_runner.__name__.removeprefix("sweep_")
    run.__module__ = batch_runner.__module__
    run.__doc__ = f"One design's :func:`{batch_runner.__name__}`."
    run.__signature__ = signature  # type: ignore[attr-defined]
    return run


def default_registry() -> ExperimentRegistry:
    """The fully populated registry (imports the experiment drivers once)."""
    import repro.experiments  # noqa: F401  — side effect: registration
    return GLOBAL_REGISTRY
