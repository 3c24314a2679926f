"""``repro-cli`` — one-shot command over the unified spec service.

The same :class:`~repro.api.request.SpecRequest` the Python API and the
HTTP server consume, built from shell arguments:

.. code-block:: bash

    python -m repro.cli list
    python -m repro.cli run fig8 --grid points=64 --report
    python -m repro.cli run table1 --design my_design.json --json
    python -m repro.cli run fig9 --url http://127.0.0.1:8337   # via a server
    python -m repro.cli run yield_opt --url ... --job          # async submit
    python -m repro.cli metrics --url http://127.0.0.1:8337

Without ``--url`` the request runs in-process (a service is built for the
call); with it, the identical JSON payload is POSTed to a running
``python -m repro.serve`` instance — the response is bit-identical either
way.  ``tools/repro-cli`` wraps this module as a plain executable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

from repro.api.request import (
    API_VERSION,
    ApiVersionError,
    RequestValidationError,
    SpecRequest,
    SpecResponse,
)
from repro.api.service import MixerService
from repro.core.config import MixerDesign


def _parse_grid_value(text: str) -> Any:
    """Shell grid override -> typed value (int, float, JSON or bare string)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _load_design(path: str | None) -> MixerDesign:
    """Design record from a JSON file (``-`` reads stdin), or the default."""
    if path is None:
        return MixerDesign()
    text = sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
    try:
        return MixerDesign.from_dict(json.loads(text))
    except (json.JSONDecodeError, TypeError, ValueError) as error:
        raise RequestValidationError(f"bad design file {path!r}: {error}") \
            from None


def _build_request(args: argparse.Namespace) -> SpecRequest:
    grid: dict[str, Any] = {}
    for override in args.grid or []:
        name, separator, value = override.partition("=")
        if not separator or not name:
            raise RequestValidationError(
                f"grid overrides look like name=value, got {override!r}")
        grid[name] = _parse_grid_value(value)
    return SpecRequest(experiment=args.experiment,
                       design=_load_design(args.design),
                       grid=grid, workers=args.workers)


def _http_json(url: str, payload: dict | None = None,
               method: str | None = None) -> dict:
    """One JSON request against a ``repro.serve`` instance, errors mapped."""
    http_request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8")
        if payload is not None else None,
        headers={"Content-Type": "application/json"},
        method=method or ("POST" if payload is not None else "GET"))
    try:
        with urllib.request.urlopen(http_request) as http_response:
            return json.loads(http_response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        detail = error.read().decode("utf-8", "replace")
        try:
            detail = json.loads(detail).get("error", detail)
        except json.JSONDecodeError:
            pass
        raise RequestValidationError(
            f"server rejected the request ({error.code}): {detail}") from None
    except urllib.error.URLError as error:
        raise RequestValidationError(
            f"cannot reach {url}: {error.reason}") from None


def _submit_http(url: str, request: SpecRequest) -> SpecResponse:
    """POST the request to a running ``repro.serve`` instance."""
    payload = _http_json(url.rstrip("/") + "/v1/spec", request.to_dict())
    return SpecResponse.from_dict(payload)


def _submit_job(url: str, request: SpecRequest,
                poll_s: float = 0.5) -> SpecResponse:
    """Submit via ``POST /v1/jobs`` and poll the job until it finishes.

    Progress checkpoints (yield-opt iterations, sweep shards) print to
    stderr as they change, so a long search is observable from the shell.
    """
    base = url.rstrip("/")
    job = _http_json(base + "/v1/jobs",
                     {"request": request.to_dict()})["job"]
    print(f"job {job['id']} {job['state']}", file=sys.stderr)
    last_progress = ""
    while True:
        job = _http_json(f"{base}/v1/jobs/{job['id']}")["job"]
        progress = json.dumps(job.get("progress") or {}, sort_keys=True)
        if progress != last_progress and job.get("progress"):
            print(f"job {job['id']} {job['state']}: {progress}",
                  file=sys.stderr)
            last_progress = progress
        if job["state"] == "done":
            return SpecResponse.from_dict(job["result"])
        if job["state"] == "failed":
            raise RequestValidationError(
                f"job {job['id']} failed: {job.get('error')}")
        time.sleep(poll_s)


def _cmd_list(args: argparse.Namespace) -> int:
    if args.url:
        # The server's registry, not this process's: clients stop
        # hard-coding experiment shapes by reading the listing remotely.
        payload = _http_json(args.url.rstrip("/") + "/v1/experiments")
        version = payload.get("api_version")
        if version != API_VERSION:
            raise ApiVersionError(version)
        entries = payload["experiments"]
    else:
        service = MixerService(response_cache=False)
        entries = service.experiments()
    if args.json:
        print(json.dumps({"api_version": API_VERSION,
                          "experiments": entries}, indent=2))
        return 0
    width = max(len(entry["name"]) for entry in entries)
    for entry in entries:
        batch = " [batch]" if entry["batchable"] else ""
        print(f"{entry['name']:<{width}}  {entry['artefact']}{batch}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    payload = _http_json(args.url.rstrip("/") + "/v1/metrics")
    if not args.summary:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    jobs = payload.get("jobs", {})
    requests = payload.get("requests", {})
    total = sum(stats.get("count", 0) for stats in requests.values())
    errors = sum(stats.get("errors", 0) for stats in requests.values())
    lines = [
        f"uptime_s           {payload.get('uptime_s', 0.0):.1f}",
        f"requests           {total} ({errors} errors)",
        f"load_shed_total    {payload.get('load_shed_total', 0)}",
        f"jobs submitted     {jobs.get('submitted', 0)}",
        f"jobs completed     {jobs.get('completed', 0)}",
        f"jobs failed        {jobs.get('failed', 0)}",
    ]
    cache = payload.get("response_cache")
    if cache is not None:
        hits = cache.get("memory_hits", 0) + cache.get("disk_hits", 0)
        lines.append(f"response cache     {hits} hits / "
                     f"{cache.get('misses', 0)} misses")
    print("\n".join(lines))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    request = _build_request(args)
    if args.url and args.spec_cache:
        raise RequestValidationError("--spec-cache is a local-run option; "
                                     "a server uses its own engine cache")
    if args.url and args.job:
        response = _submit_job(args.url, request)
    elif args.url:
        response = _submit_http(args.url, request)
    elif args.job:
        raise RequestValidationError("--job needs --url (async jobs are a "
                                     "server-side surface)")
    else:
        service = MixerService(spec_cache=args.spec_cache,
                               workers=args.workers)
        response = service.submit(request)
    if args.json:
        print(json.dumps(response.to_dict(), indent=2))
    else:
        service = MixerService(response_cache=False)
        print(service.report(response))
        print(f"[{response.experiment} | design {response.design_fingerprint[:12]} "
              f"| {response.source} | {response.elapsed_s:.2f}s]")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.cli`` / ``tools/repro-cli``."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="One-shot requests against the paper's spec service.")
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list the registered experiments")
    list_parser.add_argument("--json", action="store_true",
                             help="print the registry metadata as JSON")
    list_parser.add_argument("--url", default=None,
                             help="read the listing from a running "
                                  "repro.serve instance (GET /v1/experiments)"
                                  " instead of the in-process registry")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = commands.add_parser(
        "run", help="run one experiment (in-process or via --url)")
    run_parser.add_argument("experiment",
                            help="registered experiment name (see 'list')")
    run_parser.add_argument("--design", default=None, metavar="FILE",
                            help="JSON design payload ('-' for stdin; "
                                 "default: the paper's design point)")
    run_parser.add_argument("--grid", action="append", metavar="NAME=VALUE",
                            help="override a grid parameter (repeatable)")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="sweep-engine worker processes")
    run_parser.add_argument("--spec-cache", default=None, metavar="DIR",
                            help="on-disk engine cache (local runs only)")
    run_parser.add_argument("--url", default=None,
                            help="send to a running repro.serve instance "
                                 "instead of running in-process")
    run_parser.add_argument("--job", action="store_true",
                            help="with --url: submit as an async job and "
                                 "poll /v1/jobs until it finishes "
                                 "(progress prints to stderr)")
    run_parser.add_argument("--json", action="store_true",
                            help="print the full JSON response instead of "
                                 "the text report")
    run_parser.set_defaults(handler=_cmd_run)

    metrics_parser = commands.add_parser(
        "metrics", help="print a running server's /v1/metrics snapshot")
    metrics_parser.add_argument("--url", required=True,
                                help="base URL of a repro.serve instance")
    metrics_parser.add_argument("--summary", action="store_true",
                                help="compact counters (requests, jobs, "
                                     "response cache) instead of the full "
                                     "JSON snapshot")
    metrics_parser.set_defaults(handler=_cmd_metrics)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RequestValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
