"""Recording a trace from a browser: the page's performance entries, as the
snippet in README's "Recording a trace from a browser" collects them, are
converted here into a normalized trace, unthrottled. Nothing in the package
imports this module.
"""

from __future__ import annotations

from typing import Any
from urllib.parse import urlsplit

from .errors import ConversionError, SchemaError
from .trace import NormalizedTrace, _integer, _number, _object


def trace_from_performance_entries(payload: Any) -> NormalizedTrace:
    """Convert a dump of browser performance entries into a trace.

    Expects the object shape produced by the collection snippet: paint,
    element, longtask and resource entry lists plus navigation milestones,
    all in milliseconds relative to navigation start. Every number is read
    through the trace field readers, where 0 or null means absent; a bad
    one is a ConversionError at its JSON path, e.g. ``$.paint[0].startTime``.
    """
    try:
        document = _trace_document(payload)
    except SchemaError as exc:
        raise ConversionError(str(exc)) from exc
    try:
        return NormalizedTrace.from_dict(document)
    except SchemaError as exc:
        raise ConversionError(f"converted entries violate the trace schema: {exc}") from exc


def _trace_document(payload: Any) -> dict:
    """The trace document the entries in ``payload`` describe."""
    if not isinstance(payload, dict):
        raise ConversionError("performance entry payload must be an object")

    paints = []
    for i, entry in enumerate(_entries(payload, "paint")):
        name = entry.get("name")
        t = _entry_number(entry, "startTime", f"$.paint[{i}]")
        if name == "first-paint":
            paints.append({"t_ms": t, "kind": "first-paint"})
        elif name == "first-contentful-paint":
            paints.append({"t_ms": t, "kind": "contentful-paint"})
    for i, entry in enumerate(_entries(payload, "elements")):
        path = f"$.elements[{i}]"
        t = 0.0
        for key in ("renderTime", "loadTime", "startTime"):
            t = _entry_number(entry, key, path)
            if t > 0:
                break
        if t > 0:
            paints.append({"t_ms": t, "kind": "fmp-candidate", "significance": _entry_number(entry, "size", path)})

    longtasks = [
        (_entry_number(entry, "startTime", f"$.longtasks[{i}]"), _entry_number(entry, "duration", f"$.longtasks[{i}]"))
        for i, entry in enumerate(_entries(payload, "longtasks"))
    ]
    tasks = []
    for start, dur in sorted(longtasks, key=lambda task: task[0]):
        if tasks and start < tasks[-1]["start_ms"] + tasks[-1]["dur_ms"]:
            prev_end = tasks[-1]["start_ms"] + tasks[-1]["dur_ms"]
            # The main thread cannot overlap itself; tolerate timer jitter
            # only.
            if start < prev_end - 0.1:
                raise ConversionError(f"long tasks overlap at {start} ms")
            dur = max(0.0, start + dur - prev_end)
            start = prev_end
        if dur > 0:
            tasks.append({"start_ms": start, "dur_ms": dur})

    requests = []
    for i, entry in enumerate(_entries(payload, "resources")):
        path = f"$.resources[{i}]"
        end = _entry_number(entry, "responseEnd", path)
        if end <= 0:
            continue  # still in flight or failed; carries no interval
        discovered = max(0.0, _entry_number(entry, "startTime", path))
        start = _entry_number(entry, "requestStart", path)
        if start <= 0:
            start = discovered  # opaque cross-origin timing
        start = min(max(start, discovered), end)
        origin = ""
        name = entry.get("name")
        if isinstance(name, str):
            parts = urlsplit(name)
            if parts.scheme and parts.netloc:
                origin = f"{parts.scheme}://{parts.netloc}"
        requests.append(
            {
                "discovered_ms": discovered,
                "start_ms": start,
                "end_ms": max(end, start),
                "bytes": _integer(entry, "transferSize", path, minimum=0, default=0),
                "origin": origin,
            }
        )

    # The entries hold no pixel data; approximate visual progress by ramping
    # linearly across the observed render milestones.
    navigation = _object(payload, "navigation", "$", default={})
    milestones = {p["t_ms"] for p in paints}
    for key in ("domContentLoaded", "loadEventEnd"):
        t = _entry_number(navigation, key, "$.navigation")
        if t > 0:
            milestones.add(t)
    ordered = sorted(milestones)
    visual = [
        {"t_ms": t, "fraction": (i + 1) / len(ordered)}
        for i, t in enumerate(ordered)
    ]

    return {
        "nav_start": 0.0,
        "paint_events": paints,
        "tasks": tasks,
        "requests": requests,
        "visual_progress": visual,
    }


def _entry_number(entry: dict, key: str, path: str) -> float:
    """The number at ``entry[key]``, read as a trace field is; 0 where it is absent or null."""
    return _number(entry, key, path, default=0.0)


def _entries(payload: dict, key: str) -> list:
    """The entry objects listed at ``payload[key]``; none where it is absent."""
    entries = payload.get(key, [])
    if type(entries) is not list or not all(type(entry) is dict for entry in entries):
        raise ConversionError(f"performance entry payload: {key} must be a list of objects")
    return entries
