"""The output check: served replies against the in-process service.

Every reply must answer its request (experiment and design fingerprint at
the request's position, one response per request of a batch).  A
deterministic sample must be byte-equal to a solo
``MixerService(response_cache=False).submit`` of the same request, up to
the two fields that legitimately differ between any two answers: where the
answer came from (``source``) and how long it took (``elapsed_s``).
"""

from __future__ import annotations

import json
from typing import Any

from repro.api.request import SpecRequest
from servebench.workloads import SPEC, Op


def served_entries(op: Op, body: bytes) -> list[tuple[dict, bytes]]:
    """(parsed, exact bytes) of every response in one served reply.

    ``json`` round-trips the server's encoding exactly, so re-encoding a
    parsed batch entry gives the bytes the server wrote for it.
    """
    parsed = json.loads(body)
    if op.path == SPEC:
        return [(parsed, body)]
    return [(entry, json.dumps(entry, allow_nan=False).encode("utf-8"))
            for entry in parsed["responses"]]


def reference_bytes(service: Any, payload: dict, served: dict) -> bytes:
    """A solo in-process answer to ``payload``, with ``served``'s provenance."""
    expected = service.submit(SpecRequest.from_dict(payload)).to_dict()
    expected["source"] = served.get("source")
    expected["elapsed_s"] = served.get("elapsed_s")
    return json.dumps(expected, allow_nan=False).encode("utf-8")


def check_reply(op: Op, body: bytes, service: Any = None,
                positions: tuple[int, ...] = ()) -> list[str]:
    """Problems with one reply; ``positions`` are byte-checked via ``service``."""
    try:
        entries = served_entries(op, body)
    except (ValueError, KeyError, TypeError) as error:
        return [f"op {op.index}: unreadable reply ({error})"]
    if len(entries) != len(op.payloads):
        return [f"op {op.index}: {len(entries)} responses for "
                f"{len(op.payloads)} requests"]
    problems = []
    for position, ((entry, _), payload, design) in enumerate(
            zip(entries, op.payloads, op.designs)):
        if not isinstance(entry, dict) \
                or entry.get("experiment") != payload["experiment"] \
                or entry.get("design_fingerprint") != design.fingerprint():
            problems.append(f"op {op.index}: response {position} does not "
                            f"answer request {position}")
    if problems or service is None:
        return problems
    for position in positions:
        entry, raw = entries[position]
        if raw != reference_bytes(service, op.payloads[position], entry):
            problems.append(f"op {op.index}: response {position} differs "
                            "from an in-process submit")
    return problems
