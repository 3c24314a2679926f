"""``python -m repro.serve`` with spans recorded around every layer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 servebench/traced_server.py TRACE_DIR [repro.serve arguments...]

The launcher imports the served program, wraps the public entry points of
each layer (and the few private methods that are the only seam between two
layers) in :class:`~servebench.tracing.Tracer` spans, then runs
``repro.serve.main`` unchanged.  On ``SIGINT`` the server shuts down, its
process-pool workers dump their spans at exit, and this process writes
``TRACE_DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import sys
from functools import cached_property
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from servebench.tracing import Tracer  # noqa: E402


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str,
                  after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, after)))
    elif isinstance(raw, cached_property):
        prop = cached_property(tracer.wrap(name, raw.func, after))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)
    else:
        setattr(cls, attr, tracer.wrap(name, raw, after))


def _patch_function(module, attr: str, replacement) -> None:
    """Replace ``module.attr`` everywhere a loaded module imported it."""
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") \
                and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, replacement)


def program_counters() -> dict[str, int]:
    from repro.core.transconductance import (
        batched_sizing_solve_count,
        sizing_solve_count,
    )
    from repro.digital.engine import digital_pass_count
    from repro.waveform.engine import waveform_fft_count
    return {"core.sizing.solves": sizing_solve_count(),
            "core.sizing.batched_solves": batched_sizing_solve_count(),
            "waveform.ffts": waveform_fft_count(),
            "digital.passes": digital_pass_count()}


def install(tracer: Tracer) -> None:
    """Wrap every layer of the served program in spans and counters."""
    import repro.experiments  # noqa: F401 - registers and imports every engine
    from repro import serve
    from repro.api import request as api_request
    from repro.api.response_cache import ResponseCache
    from repro.api.service import MixerService
    from repro.core import transconductance
    from repro.core.config import MixerDesign
    from repro.devices.mosfet import Mosfet, MosfetArray
    from repro.digital import engine as digital_engine
    from repro.digital import parallel as digital_parallel
    from repro.digital.cache import DigitalIfCache
    from repro.optimize import search, strategies
    from repro.rf.filters import FirstOrderLowPass
    from repro.serve.jobs import JobManager
    from repro.sweep import parallel as sweep_parallel
    from repro.sweep.cache import SpecCache
    from repro.sweep.runner import SweepRunner
    from repro.waveform import engine as waveform_engine
    from repro.waveform import parallel as waveform_parallel
    from repro.waveform.cache import WaveformCache

    def patch(cls, attrs, name, after=None):
        for attr in attrs:
            _patch_method(tracer, cls, attr, name, after)

    def cache_outcome(layer):
        def after(result, *args, **kwargs):
            tracer.count(f"{layer}.misses" if result is None
                         else f"{layer}.hits")
        return after

    # -- serve: the HTTP handler and the job manager ----------------------------
    handler = serve.SpecRequestHandler
    do_post = handler.do_POST

    def traced_post(self):
        span = tracer.open("serve.request", parent=tracer.new_request())
        try:
            return do_post(self)
        finally:
            tracer.close(span)
    handler.do_POST = traced_post
    patch(handler, ["_read_json_body"], "serve.read_body")
    patch(handler, ["_send_json"], "serve.send")

    def remember_job(job, *args, **kwargs):
        tracer.job_parents[job.id] = tracer.context(outermost=True)
    patch(JobManager, ["submit", "submit_batch"], "serve.enqueue",
          remember_job)

    execute = JobManager._execute

    def traced_execute(self, job):
        span = tracer.open("serve.job",
                           parent=tracer.job_parents.pop(job.id, None))
        try:
            return execute(self, job)
        finally:
            tracer.close(span)
    JobManager._execute = traced_execute

    wait = JobManager.wait

    def traced_wait(self, job, timeout=None):
        done = wait(self, job, timeout)
        if done.started_monotonic is not None:
            tracer.record("serve.queue_wait", done.submitted_monotonic,
                          done.started_monotonic,
                          tracer.context(outermost=True))
        return done
    JobManager.wait = traced_wait

    # -- api: planning, caching, encoding ---------------------------------------
    patch(MixerService, ["submit", "submit_batch"], "api.submit")
    patch(MixerService, ["plan_request"], "api.plan")
    patch(api_request.SpecRequest, ["validate", "request_key"], "api.plan")
    patch(api_request.SpecRequest, ["from_dict"], "api.decode")
    patch(api_request.SpecResponse, ["from_dict"], "api.decode")
    patch(api_request.SpecResponse, ["to_dict"], "api.encode")
    _patch_function(api_request, "build_result_response", tracer.wrap(
        "api.encode", api_request.build_result_response))
    patch(ResponseCache, ["load"], "api.response_cache.load",
          cache_outcome("api.response_cache"))
    patch(ResponseCache, ["store"], "api.response_cache.store")
    MixerDesign.fingerprint = tracer.counting("api.fingerprint_calls",
                                              MixerDesign.fingerprint)

    # -- core / devices: sizing ---------------------------------------------------
    def one_solve(result, *args, **kwargs):
        tracer.count("core.sizing.solves")
    patch(transconductance.TransconductanceAmplifier, ["device"],
          "core.sizing", one_solve)

    def block_solve(widths, *args, **kwargs):
        if len(widths):
            tracer.count("core.sizing.solves", len(widths))
            tracer.count("core.sizing.batched_solves")
    _patch_function(transconductance, "solve_widths", tracer.wrap(
        "core.sizing", transconductance.solve_widths, block_solve))
    for cls in (Mosfet, MosfetArray):
        cls.operating_point = tracer.counting("devices.operating_point_calls",
                                              cls.operating_point)

    # -- sweep: runners, sharding, engine cache ---------------------------------
    patch(SweepRunner, ["run"], "sweep.run")
    for module, runner in ((sweep_parallel, "ParallelSweepRunner"),
                           (waveform_parallel, "ParallelWaveformRunner"),
                           (digital_parallel, "ParallelDigitalRunner")):
        patch(getattr(module, runner), ["run"], "sweep.parallel")
        report = module.report_progress

        def shard_done(report=report, **fields):
            if "shards_done" in fields:
                tracer.count("sweep.parallel.shards")
            report(**fields)
        module.report_progress = shard_done
    patch(SpecCache, ["load"], "sweep.cache.io", cache_outcome("sweep.cache"))
    patch(SpecCache, ["store"], "sweep.cache.io")

    # -- waveform / rf / digital --------------------------------------------------
    patch(waveform_engine.WaveformRunner, ["run", "time_domain"],
          "waveform.eval")
    _patch_function(waveform_engine, "evaluate_plan", tracer.wrap(
        "waveform.eval", waveform_engine.evaluate_plan,
        lambda *args, **kwargs: tracer.count("waveform.ffts")))
    patch(WaveformCache, ["load"], "waveform.cache.io",
          cache_outcome("waveform.cache"))
    patch(WaveformCache, ["store"], "waveform.cache.io")
    patch(digital_engine.DigitalIfRunner, ["run"], "digital.eval")
    _patch_function(digital_engine, "evaluate_digital", tracer.wrap(
        "digital.eval", digital_engine.evaluate_digital,
        lambda *args, **kwargs: tracer.count("digital.passes")))
    patch(DigitalIfCache, ["load"], "digital.cache.io",
          cache_outcome("digital.cache"))
    patch(DigitalIfCache, ["store"], "digital.cache.io")

    for attr in ("apply", "apply_periodic"):
        filtered = tracer.wrap("rf.filter", getattr(FirstOrderLowPass, attr))

        def with_import(self, *args, filtered=filtered, **kwargs):
            # The filters import scipy lazily on first use; time that
            # import as its own span so it shows as set-up cost.
            if "scipy.signal" not in sys.modules:
                span = tracer.open("rf.scipy_import")
                try:
                    import scipy.signal  # noqa: F401
                finally:
                    if span is not None:
                        tracer.close(span)
            return filtered(self, *args, **kwargs)
        setattr(FirstOrderLowPass, attr, with_import)

    # -- optimize -----------------------------------------------------------------
    def proposed(candidates, *args, **kwargs):
        tracer.count("optimize.candidates", len(candidates))
        tracer.count("optimize.generations")
    patch(strategies.ShrinkingSpanStrategy, ["propose"], "optimize.propose",
          proposed)
    patch(strategies.CmaStrategy, ["propose"], "optimize.propose", proposed)
    patch(search._CornerScorer, ["values"], "optimize.score")


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: traced_server.py TRACE_DIR [repro.serve args...]",
              file=sys.stderr)
        return 2
    tracer = Tracer(argv[0], program_counters)
    install(tracer)
    from repro.serve import main as serve_main
    try:
        return serve_main(argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
