"""Spec/result JSON round-trip and stable spec hashing.

Scenario specs travel three ways: to disk (reproducible run recipes),
to worker processes (the parallel runner pickles nothing but JSON
strings) and into the result cache key.  All three use the same
canonical dict form produced here, so a spec that round-trips through
JSON hashes identically to the original.

The hash deliberately covers every behavior-affecting field (kind,
seed, duration, collectors, every knob) but *not* ``description``,
which is pure documentation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import Any, Dict

from repro.scenarios.spec import (
    InternetSpec,
    LabSpec,
    MrtSpec,
    ScenarioSpec,
    ScenarioValidationError,
)


# ----------------------------------------------------------------------
# spec <-> dict / JSON
# ----------------------------------------------------------------------
def spec_to_dict(spec: ScenarioSpec) -> "Dict[str, Any]":
    """Canonical plain-data form of a spec (JSON-ready).

    The canonical form records only what the spec actually says:
    sections added after the original lab/internet pair are omitted
    when unset, and ``None`` fields inside sections (meaning "keep the
    base default") are omitted entirely.  That keeps spec hashes — and
    therefore sweep-cache keys — stable when a section later grows a
    new optional knob: a spec that does not use the knob hashes the
    same before and after the field exists.
    """
    data = _plain(asdict(spec))
    if data.get("mrt") is None:
        data.pop("mrt", None)
    for label in ("lab", "internet", "mrt"):
        section = data.get(label)
        if isinstance(section, dict):
            data[label] = {
                key: value
                for key, value in section.items()
                if value is not None
            }
    return data


def spec_from_dict(data: "Dict[str, Any]") -> ScenarioSpec:
    """Rebuild a spec from its dict form; strict about field names."""
    if not isinstance(data, dict):
        raise ScenarioValidationError(
            "<payload>", [f"spec payload must be an object, got {type(data).__name__}"]
        )
    payload = dict(data)
    errors = []
    lab = payload.pop("lab", None)
    internet = payload.pop("internet", None)
    mrt = payload.pop("mrt", None)
    known = {item.name for item in fields(ScenarioSpec)}
    unknown = set(payload) - known
    for key in sorted(unknown):
        errors.append(f"unknown spec field {key!r}")
        payload.pop(key)
    lab_spec = _section_from_dict(LabSpec, lab, "lab", errors)
    internet_spec = _section_from_dict(
        InternetSpec, internet, "internet", errors
    )
    mrt_spec = _section_from_dict(MrtSpec, mrt, "mrt", errors)
    for required in ("name", "kind"):
        if required not in payload:
            errors.append(f"missing required spec field {required!r}")
    if errors:
        raise ScenarioValidationError(
            str(data.get("name", "<unnamed>")), errors
        )
    if "collectors" in payload:
        payload["collectors"] = tuple(payload["collectors"])
    return ScenarioSpec(
        lab=lab_spec, internet=internet_spec, mrt=mrt_spec, **payload
    )


def _section_from_dict(cls, data, label, errors):
    if data is None:
        return None
    if not isinstance(data, dict):
        errors.append(f"{label} section must be an object, got {data!r}")
        return None
    known = {item.name for item in fields(cls)}
    payload = {}
    for key, value in data.items():
        if key not in known:
            errors.append(f"unknown {label} field {key!r}")
            continue
        payload[key] = _tuplify(value)
    return cls(**payload)


def _tuplify(value):
    """Lists (from JSON) become tuples so specs stay hashable/frozen."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def _plain(value):
    """Tuples become lists so the dict form is JSON-canonical."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def spec_to_json(spec: ScenarioSpec, *, indent: "int | None" = 2) -> str:
    """Serialize a spec to JSON text."""
    return json.dumps(spec_to_dict(spec), indent=indent, sort_keys=True)


def spec_from_json(text: str) -> ScenarioSpec:
    """Parse a spec from JSON text."""
    return spec_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
def spec_hash(spec: ScenarioSpec) -> str:
    """Stable short hash keying caches and result provenance."""
    data = spec_to_dict(spec)
    data.pop("description", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# result <-> dict / JSON
# ----------------------------------------------------------------------
def result_to_dict(result) -> "Dict[str, Any]":
    """Self-contained plain-data form of a :class:`ScenarioResult`.

    The optional fields are emitted only when set, so a result that
    does not use one serializes to the same bytes as before it existed.
    """
    payload = {
        "spec": spec_to_dict(result.spec),
        "spec_hash": result.spec_hash,
        "metrics": _plain(result.metrics),
    }
    if getattr(result, "spill_paths", None):
        payload["spill_paths"] = dict(result.spill_paths)
    if getattr(result, "reader_stats", None):
        payload["reader_stats"] = dict(result.reader_stats)
    if getattr(result, "metrics_report", None):
        payload["metrics_report"] = _plain(result.metrics_report)
    return payload


def result_from_dict(data: "Dict[str, Any]"):
    """Rebuild a :class:`ScenarioResult` from its dict form."""
    from repro.scenarios.engine import ScenarioResult

    spec = spec_from_dict(data["spec"])
    return ScenarioResult(
        spec=spec,
        spec_hash=data["spec_hash"],
        metrics=data["metrics"],
        spill_paths=dict(data.get("spill_paths", {})),
        reader_stats=dict(data.get("reader_stats", {})),
        metrics_report=dict(data.get("metrics_report", {})),
    )


def result_to_json(result, *, indent: "int | None" = None) -> str:
    """Serialize a result to JSON text."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def result_from_json(text: str):
    """Parse a result from JSON text."""
    return result_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# sweep failures <-> dict
# ----------------------------------------------------------------------
def failure_to_dict(failure) -> "Dict[str, Any]":
    """Plain-data form of a :class:`JobFailure` (manifest/JSON output)."""
    return {
        "name": failure.name,
        "spec_hash": failure.spec_hash,
        "error": failure.error,
        "traceback": failure.traceback,
        "attempts": failure.attempts,
    }


def failure_from_dict(data: "Dict[str, Any]"):
    """Rebuild a :class:`JobFailure` from its dict form."""
    from repro.scenarios.backends import JobFailure

    return JobFailure(
        name=str(data.get("name", "<unknown>")),
        spec_hash=str(data.get("spec_hash", "")),
        error=str(data.get("error", "unknown error")),
        traceback=str(data.get("traceback", "")),
        attempts=int(data.get("attempts", 1)),
    )
