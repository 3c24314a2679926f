#!/usr/bin/env python3
"""Served-mixer benchmark: one workload against ``python -m repro.serve``.

Usage, from the repository root::

    python3 servebench/run.py --workload cold_mix --seed 1 --seconds 42
    python3 servebench/run.py --workload all --seed 1       # every workload
    python3 servebench/run.py --workload cold_mix --trace 1  # per-layer run

A run starts the server ``SETUPS`` times, timing each start up to the
answer to the first request of every experiment the workload uses
(``setup_s`` is their median), keeps the last server, warms it up, then
drives it closed loop for ``--seconds`` and times every reply.  With
``--trace 1`` the run is split in two halves: an untraced server, then the
traced launcher (``servebench/traced_server.py``); the traced half gives
the per-layer metrics and the two halves' median latencies give the
tracing overhead.  Every run checks its outputs (``servebench/check.py``)
outside the timed window and prints, last, one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--out FILE`` appends the run's full record (metrics, sample counts,
per-span breakdown, machine stamp) to a JSON-lines file that
``servebench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from servebench.workloads import Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
clock = time.monotonic

#: Server starts per untraced run; ``setup_s`` is the median.
SETUPS = 3

#: A p95 from fewer samples beyond it is printed but not judged.
P95_TAIL = 10


@dataclass
class Sample:
    """One request as the client saw it."""

    op: "Op"
    start: float
    end: float
    status: int
    size: int
    body: bytes
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.problems


@dataclass
class Phase:
    """A timed window: its samples and what the server spent on them."""

    samples: list[Sample]
    started: float
    ended: float
    cpu_s: float
    peak_rss_mb: float

    @property
    def elapsed(self) -> float:
        return self.ended - self.started

    def latencies(self) -> list[float]:
        return sorted(s.end - s.start for s in self.samples if s.ok)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def send(server, op) -> Sample:
    started = clock()
    try:
        status, body = server.post(op.path, op.body)
        problems = [] if status == 200 else [f"op {op.index}: HTTP {status}"]
    except (OSError, http.client.HTTPException) as error:
        status, body = 0, b""
        problems = [f"op {op.index}: {type(error).__name__}: {error}"]
    ended = clock()
    return Sample(op, started, ended, status, len(body), body, problems)


def closed_loop(server, next_op: Callable, clients: int,
                count: int | None = None, seconds: float | None = None
                ) -> tuple[list[Sample], float]:
    """``clients`` threads, each sending its next op after the last reply.

    Stops after ``count`` ops, or once ``seconds`` have passed (every
    client sends at least one op; ops already sent complete).  Returns the
    samples and the loop's start time.
    """
    samples: list[Sample] = []
    lock = threading.Lock()
    remaining = count
    started = clock()
    deadline = started + seconds if seconds is not None else None

    def client() -> None:
        nonlocal remaining
        while True:
            with lock:
                if remaining is not None:
                    if remaining <= 0:
                        return
                    remaining -= 1
            op = next_op()
            sample = send(server, op)
            with lock:
                samples.append(sample)
            if deadline is not None and clock() >= deadline:
                return

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, started


class Run:
    """Servers, samples and scratch space of one benchmark run."""

    def __init__(self, workload, window_s: float) -> None:
        self.workload = workload
        self.window_s = window_s
        self.work = ROOT / ".servebench_tmp" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.servers: list = []
        self.untimed: list[Sample] = []
        self.phases: list[Phase] = []

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def start(self, trace_dir: Path | None = None):
        """A server that has answered each experiment once; its set-up time."""
        from servebench.server import Server
        number = len(self.servers)
        server = Server(ROOT, self.work / f"server-{number}.log",
                        self.workload.server_args(self.work / f"cache-{number}"),
                        trace_dir=trace_dir)
        self.servers.append(server)
        for op in self.workload.setup_ops():
            self.untimed.append(send(server, op))
        return server, clock() - server.started

    def measure(self, server) -> Phase:
        """Warm ``server`` up, then one timed closed-loop window."""
        workload = self.workload
        warm, _ = closed_loop(server, workload.next_op, workload.clients,
                              count=workload.warmup_ops)
        self.untimed.extend(warm)
        cpu = server.cpu_seconds()
        samples, started = closed_loop(server, workload.next_op,
                                       workload.clients,
                                       seconds=self.window_s)
        cpu = server.cpu_seconds() - cpu
        phase = Phase(samples, started, max(s.end for s in samples), cpu,
                      server.peak_rss_mb())
        self.phases.append(phase)
        return phase

    def check(self) -> list[str]:
        """Check every timed reply; byte-check the deterministic sample."""
        from repro.api.service import MixerService
        from servebench.check import check_reply

        service = MixerService(response_cache=False)
        problems = [p for s in self.untimed for p in s.problems]
        for phase in self.phases:
            answered = sorted((s for s in phase.samples if s.status == 200),
                              key=lambda s: s.op.index)
            experiments_seen: set[str] = set()
            for sample in answered:
                op = sample.op
                byte_check = op.index % self.workload.check_every == 0 \
                    or op.experiment not in experiments_seen
                experiments_seen.add(op.experiment)
                positions = sorted({0, len(op.payloads) - 1}) \
                    if byte_check else ()
                sample.problems += check_reply(
                    op, sample.body, service if byte_check else None,
                    tuple(positions))
            problems += [p for s in phase.samples for p in s.problems]
        return problems


def end_to_end(phase: Phase, setups: list[float]) -> tuple[dict, dict]:
    """The user-visible metrics of one timed window, and sample counts."""
    good = [s for s in phase.samples if s.ok]
    latencies = phase.latencies()
    ops = max(len(good), 1)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(good) / phase.elapsed,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "designs_per_s": sum(s.op.weight for s in good) / phase.elapsed,
        "cpu_ms_per_op": phase.cpu_s * 1e3 / ops,
        "peak_rss_mb": phase.peak_rss_mb,
    }
    beyond_p95 = len(latencies) - int(0.95 * len(latencies))
    samples = {name: len(good) for name in metrics}
    samples["setup_s"] = len(setups)
    samples["peak_rss_mb"] = 1
    samples["latency_p95_ms"] = len(latencies)
    # Printed on every workload (the result lists every end-to-end metric),
    # but compare.py gives these no verdict.
    unjudged = {}
    if beyond_p95 < P95_TAIL:
        unjudged["latency_p95_ms"] = \
            f"{beyond_p95} samples beyond p95, fewer than {P95_TAIL}"
    if all(s.op.weight == 1 for s in good):
        unjudged["designs_per_s"] = "one design per op: equals throughput_rps"
    return metrics, {"samples": samples, "beyond_p95": beyond_p95,
                     "unjudged": unjudged}


def run_untraced(workload, seconds: float) -> dict:
    run = Run(workload, seconds)
    try:
        setups = []
        for _ in range(SETUPS):
            server, setup_s = run.start()
            setups.append(setup_s)
            if len(setups) < SETUPS:
                server.stop()
        phase = run.measure(server)
        server.stop()
        problems = run.check()
        metrics, detail = end_to_end(phase, setups)
        detail["setup_runs_s"] = setups
    finally:
        run.close()
    return finish(run, metrics, detail, problems)


def run_traced(workload, seconds: float) -> dict:
    from servebench.tracing import consistency, layer_metrics, load_spans

    run = Run(workload, seconds / 2)
    try:
        plain, _ = run.start()
        untraced = run.measure(plain)
        plain.stop()
        trace_dir = run.work / "trace"
        traced_server, _ = run.start(trace_dir)
        traced = run.measure(traced_server)
        traced_server.stop()
        problems = run.check()
        dumps = load_spans(trace_dir)
        good = [s for s in traced.samples if s.ok]
        metrics, breakdown = layer_metrics(
            dumps, (traced.started, traced.ended),
            statistics.fmean(s.end - s.start for s in good),
            statistics.fmean(s.size for s in good))
        base = percentile(untraced.latencies(), 50)
        metrics["tracing.overhead_frac"] = \
            (percentile(traced.latencies(), 50) - base) / base
        detail = {"self_ms_per_op": breakdown,
                  "consistency": consistency(dumps),
                  "traced_ops": len(good)}
    finally:
        run.close()
    return finish(run, metrics, detail, problems)


def finish(run: Run, metrics: dict, detail: dict, problems: list[str]) -> dict:
    attempted = len(run.untimed) + sum(len(p.samples) for p in run.phases)
    failed = sum(1 for s in run.untimed if not s.ok) + sum(
        1 for p in run.phases for s in p.samples if not s.ok)
    detail["problems"] = problems[:20]
    detail["error_rate"] = failed / max(attempted, 1)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "detail": detail}


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def print_report(name: str, seed: int, trace: int, result: dict) -> None:
    detail = result["detail"]
    print(f"servebench {name} seed={seed} trace={trace}: "
          f"attempted {result['attempted']}, failed {result['failed']} "
          f"(error_rate {detail['error_rate']:.4f})")
    if "traced_ops" in detail:
        print(f"  per-layer values are per op over {detail['traced_ops']} "
              "traced requests")
    samples = detail.get("samples", {})
    unjudged = detail.get("unjudged", {})
    for metric, entry in result["metrics"].items():
        count = samples.get(metric)
        note = f"  n={count}" if count is not None else ""
        if metric in unjudged:
            note += f" (not judged: {unjudged[metric]})"
        print(f"  {metric:<32} {entry['value']:>14.6g} "
              f"{entry['unit']:<8}{note}")
    for span, value in detail.get("self_ms_per_op", {}).items():
        print(f"    self time {span:<28} {value:>12.4f} ms/op")
    for counter, (traced, program) in detail.get("consistency", {}).items():
        verdict = "ok" if traced == program else "MISSED WORK"
        print(f"    {counter}: traced {traced}, program counter delta "
              f"{program} ({verdict})")
    for problem in detail["problems"]:
        print(f"  PROBLEM {problem}")


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run; its metrics in ``BENCHMARK.json`` order, with their units."""
    from servebench.workloads import make_workload

    workload = make_workload(name, seed)
    result = (run_traced if trace else run_untraced)(workload, seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = spec["per_layer" if trace else "end_to_end"]
    result["metrics"] = {
        entry["name"]: {"value": result["metrics"][entry["name"]],
                        "unit": entry["unit"]}
        for entry in entries}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full run record to this JSONL file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "serve" / "__init__.py").is_file():
        print(f"servebench: no served program under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {list(WORKLOADS)} or all")
    results = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, args.trace)
        print_report(name, args.seed, args.trace, result)
        results[name] = result
        if args.out is not None:
            record = {"workload": name, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "machine": machine(), **result}
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(metric if len(results) == 1 else f"{name}:{metric}"): value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
