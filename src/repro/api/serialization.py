"""Exact JSON encoding of experiment results (and back).

The service layer promises that a result served in-process, from the
response cache, or over HTTP is **bit-identical** to the one the underlying
``run_*`` driver returned.  That promise rests on this module: every result
dataclass is encoded into plain JSON types with enough structure tags to
rebuild the exact object, and every float survives because ``json`` emits
``repr``-round-trippable doubles and NumPy ``tolist()`` yields Python floats
bit-for-bit.

Encoding rules:

* primitives (``str``/``int``/``float``/``bool``/``None``) pass through;
  NumPy scalars are converted to their Python equivalents; **non-finite**
  floats become ``{"__float__": "inf" | "-inf" | "nan"}`` so the emitted
  JSON is strictly RFC-compliant (a bare ``Infinity`` token — what
  ``json.dumps`` would otherwise produce for an unreached compression
  point's ``inf`` — is rejected by non-Python parsers);
* ``numpy.ndarray`` becomes ``{"__ndarray__": [...]}`` (nested lists of
  floats) and decodes back to a float array of the same shape;
* :class:`~repro.core.config.MixerMode` becomes ``{"__mode__": "active"}``;
* registered result dataclasses become ``{"__dataclass__": name, "fields":
  {...}}``; only types explicitly registered through
  :func:`register_payload_type` (typically via the experiment registry)
  decode, so a payload can never instantiate an arbitrary class;
* lists/tuples encode as JSON arrays (and decode as lists), dictionaries
  with string keys encode as JSON objects.

The tags are chosen so a payload is still readable as plain JSON by non-
Python clients: an ndarray is one key away from its nested lists, a mode is
its label.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from typing import Any

import numpy as np

from repro.core.config import MixerMode

#: Registered payload dataclasses, by their class name.
_PAYLOAD_TYPES: dict[str, type] = {}


def register_payload_type(*types: type) -> None:
    """Allow dataclass ``types`` to appear in encoded payloads.

    Registration is idempotent; registering two different classes under one
    name is an error (payload names must stay unambiguous on the wire).
    """
    for cls in types:
        if not is_dataclass(cls) or not isinstance(cls, type):
            raise TypeError(f"{cls!r} is not a dataclass type")
        existing = _PAYLOAD_TYPES.get(cls.__name__)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"payload type name {cls.__name__!r} already registered "
                f"by {existing.__module__}")
        _PAYLOAD_TYPES[cls.__name__] = cls


def _tag_nonfinite(nested: Any) -> Any:
    """Replace non-finite floats in nested ``tolist()`` output with tags."""
    if isinstance(nested, list):
        return [_tag_nonfinite(item) for item in nested]
    if isinstance(nested, float) and not math.isfinite(nested):
        return {"__float__": repr(nested)}
    return nested


def encode(value: Any) -> Any:
    """Encode ``value`` into plain JSON types (see the module rules)."""
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(value)}
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    if isinstance(value, np.ndarray):
        nested = value.astype(float).tolist()
        if not np.all(np.isfinite(value)):
            # Measure arrays can legitimately carry -inf (an empty FFT
            # bin, an unreached compression point); element-wise tagging
            # keeps the nested lists strict JSON.
            nested = _tag_nonfinite(nested)
        return {"__ndarray__": nested}
    if isinstance(value, MixerMode):
        return {"__mode__": value.value}
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if _PAYLOAD_TYPES.get(name) is not type(value):
            raise TypeError(
                f"{name} is not a registered payload type; register it "
                f"with register_payload_type() before encoding")
        return {"__dataclass__": name,
                "fields": {f.name: encode(getattr(value, f.name))
                           for f in fields(value)}}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"payload dict keys must be strings, "
                                f"got {type(key).__name__}")
        return {key: encode(item) for key, item in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__} into a payload")


def decode(payload: Any) -> Any:
    """Rebuild the value :func:`encode` produced.

    Raises ``ValueError``/``TypeError``/``KeyError`` on malformed payloads;
    the response cache treats any of those as a corrupt entry and recomputes.
    """
    if payload is None or isinstance(payload, (str, bool, int, float)):
        return payload
    if isinstance(payload, list):
        return [decode(item) for item in payload]
    if isinstance(payload, dict):
        if "__float__" in payload:
            return float(payload["__float__"])
        if "__ndarray__" in payload:
            try:
                # Fast path: an all-finite array is plain nested lists.
                return np.asarray(payload["__ndarray__"], dtype=float)
            except (TypeError, ValueError):
                # Nested non-finite elements arrive tagged; decode() first.
                return np.asarray(decode(payload["__ndarray__"]), dtype=float)
        if "__mode__" in payload:
            return MixerMode(payload["__mode__"])
        if "__dataclass__" in payload:
            name = payload["__dataclass__"]
            cls = _PAYLOAD_TYPES.get(name)
            if cls is None:
                raise ValueError(f"unknown payload type {name!r}")
            raw = payload["fields"]
            if not isinstance(raw, dict):
                raise TypeError(f"fields of {name!r} must be a mapping")
            known = {f.name for f in fields(cls)}
            unknown = sorted(set(raw) - known)
            if unknown:
                raise ValueError(f"unknown fields for {name!r}: {unknown}")
            return cls(**{key: decode(item) for key, item in raw.items()})
        return {key: decode(item) for key, item in payload.items()}
    raise TypeError(f"cannot decode {type(payload).__name__}")
