"""Normalized page-load trace model and its JSON document format.

A trace is one recorded page load: paint events, main-thread tasks, network
requests, and visual-progress samples, all timed in milliseconds relative to
navigation start (which is defined to be 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .errors import SchemaError

PAINT_KINDS = ("first-paint", "contentful-paint", "fmp-candidate")


@dataclass(frozen=True)
class PaintEvent:
    """A paint-timeline event; ``significance`` is set only for fmp-candidate."""

    t_ms: float
    kind: str
    significance: float | None = None


@dataclass(frozen=True)
class MainThreadTask:
    """A main-thread task occupying [start_ms, start_ms + dur_ms)."""

    start_ms: float
    dur_ms: float

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.dur_ms


@dataclass(frozen=True)
class NetworkRequest:
    """A network fetch: discovered, then in flight over [start_ms, end_ms)."""

    discovered_ms: float
    start_ms: float
    end_ms: float
    bytes: int
    origin: str


@dataclass(frozen=True)
class VisualSample:
    """Fraction of the final frame painted at time t_ms."""

    t_ms: float
    fraction: float


@dataclass(frozen=True)
class NormalizedTrace:
    nav_start: float = 0.0
    paint_events: tuple[PaintEvent, ...] = ()
    tasks: tuple[MainThreadTask, ...] = ()
    requests: tuple[NetworkRequest, ...] = ()
    visual_progress: tuple[VisualSample, ...] = ()

    @classmethod
    def from_dict(cls, data: Any) -> "NormalizedTrace":
        """Build a validated trace from a parsed JSON document.

        Raises SchemaError (with a field path) on any invariant the schema
        does not permit repairing. The one permitted repair: visual-progress
        fractions that regress are clamped to the running maximum.
        """
        if not isinstance(data, dict):
            raise SchemaError("$", "trace document must be an object")

        nav_start = _number(data, "nav_start", "$")
        if nav_start != 0:
            raise SchemaError("$.nav_start", "must be 0 (all times are relative to it)")

        # One guard per item: exact types, and chained comparisons that NaN,
        # infinities and ints beyond float range fail. It is stricter than the
        # field readers below it, which read an item that fails it or lacks a
        # key, and name the bad field or accept the item.
        paints = []
        for i, item in enumerate(_array(data, "paint_events", "$.paint_events")):
            try:
                t, kind = item["t_ms"], item["kind"]
                if type(t) in _REAL and 0.0 <= t <= _FLOAT_MAX:
                    if kind == "first-paint" or kind == "contentful-paint":
                        paints.append(PaintEvent(float(t), kind))
                        continue
                    s = item["significance"]
                    if kind == "fmp-candidate" and type(s) in _REAL and 0.0 <= s <= _FLOAT_MAX:
                        paints.append(PaintEvent(float(t), kind, float(s)))
                        continue
            except (KeyError, TypeError):
                pass
            path = f"$.paint_events[{i}]"
            t = _number(item, "t_ms", path, minimum=0.0)
            kind = item.get("kind")
            if kind not in PAINT_KINDS:
                raise SchemaError(f"{path}.kind", f"must be one of {', '.join(PAINT_KINDS)}")
            significance = _number(item, "significance", path, minimum=0.0) if kind == "fmp-candidate" else None
            paints.append(PaintEvent(t, kind, significance))

        tasks = []
        prev_end = 0.0
        for i, item in enumerate(_array(data, "tasks", "$.tasks")):
            try:
                start, dur = item["start_ms"], item["dur_ms"]
                if (
                    type(start) in _REAL and type(dur) in _REAL
                    and prev_end <= start <= _FLOAT_MAX and 0.0 < dur <= _FLOAT_MAX
                ):
                    start, dur = float(start), float(dur)
                    prev_end = start + dur
                    tasks.append(MainThreadTask(start, dur))
                    continue
            except (KeyError, TypeError):
                pass
            path = f"$.tasks[{i}]"
            start = _number(item, "start_ms", path, minimum=0.0)
            dur = _number(item, "dur_ms", path)
            if dur <= 0:
                raise SchemaError(f"{path}.dur_ms", "must be > 0")
            if start < prev_end:
                raise SchemaError(path, "tasks must be sorted by start_ms and non-overlapping")
            prev_end = start + dur
            tasks.append(MainThreadTask(start, dur))

        requests = []
        for i, item in enumerate(_array(data, "requests", "$.requests")):
            try:
                discovered, start, end = item["discovered_ms"], item["start_ms"], item["end_ms"]
                nbytes, origin = item["bytes"], item["origin"]
                if (
                    type(discovered) in _REAL and type(start) in _REAL and type(end) in _REAL
                    and 0.0 <= discovered <= start <= end <= _FLOAT_MAX
                    and type(nbytes) is int and 0 <= nbytes <= _FLOAT_MAX_INT and type(origin) is str
                ):
                    requests.append(NetworkRequest(float(discovered), float(start), float(end), nbytes, origin))
                    continue
            except (KeyError, TypeError):
                pass
            path = f"$.requests[{i}]"
            discovered = _number(item, "discovered_ms", path, minimum=0.0)
            start = _number(item, "start_ms", path, minimum=0.0)
            end = _number(item, "end_ms", path, minimum=0.0)
            if not discovered <= start <= end:
                raise SchemaError(path, "must satisfy discovered_ms <= start_ms <= end_ms")
            nbytes = _integer(item, "bytes", path, minimum=0)
            origin = item.get("origin")
            if not isinstance(origin, str):
                raise SchemaError(f"{path}.origin", "must be a string")
            requests.append(NetworkRequest(discovered, start, end, nbytes, origin))

        samples = []
        prev_t = 0.0
        for i, item in enumerate(_array(data, "visual_progress", "$.visual_progress")):
            try:
                t, fraction = item["t_ms"], item["fraction"]
                if (
                    type(t) in _REAL and type(fraction) in _REAL
                    and prev_t <= t <= _FLOAT_MAX and 0.0 <= fraction <= 1.0
                ):
                    prev_t = float(t)
                    samples.append(VisualSample(prev_t, float(fraction)))
                    continue
            except (KeyError, TypeError):
                pass
            path = f"$.visual_progress[{i}]"
            t = _number(item, "t_ms", path, minimum=0.0)
            fraction = _number(item, "fraction", path)
            if not 0.0 <= fraction <= 1.0:
                raise SchemaError(f"{path}.fraction", "must be within [0, 1]")
            if t < prev_t:
                raise SchemaError(f"{path}.t_ms", "visual_progress must be sorted by t_ms")
            prev_t = t
            samples.append(VisualSample(t, fraction))

        return cls(
            nav_start=nav_start,
            paint_events=tuple(paints),
            tasks=tuple(tasks),
            requests=tuple(requests),
            visual_progress=clamp_visual_progress(samples),
        )

    def to_dict(self) -> dict:
        """Exact inverse of from_dict for a valid trace."""
        paints = []
        for p in self.paint_events:
            item: dict[str, Any] = {"t_ms": p.t_ms, "kind": p.kind}
            if p.kind == "fmp-candidate":
                item["significance"] = p.significance
            paints.append(item)
        return {
            "nav_start": self.nav_start,
            "paint_events": paints,
            "tasks": [{"start_ms": t.start_ms, "dur_ms": t.dur_ms} for t in self.tasks],
            "requests": [
                {
                    "discovered_ms": r.discovered_ms,
                    "start_ms": r.start_ms,
                    "end_ms": r.end_ms,
                    "bytes": r.bytes,
                    "origin": r.origin,
                }
                for r in self.requests
            ],
            "visual_progress": [{"t_ms": v.t_ms, "fraction": v.fraction} for v in self.visual_progress],
        }


def clamp_visual_progress(samples: Iterable[VisualSample]) -> tuple[VisualSample, ...]:
    """Clamp fraction regressions (reflows) to the running maximum."""
    out = []
    running = 0.0
    for s in samples:
        running = max(running, s.fraction)
        out.append(s if s.fraction == running else VisualSample(s.t_ms, running))
    return tuple(out)


_REQUIRED = object()
_REAL = (int, float)  # exact JSON number types: a bool is neither
_FLOAT_MAX = 1.7976931348623157e308  # the largest float
_FLOAT_MAX_INT = int(_FLOAT_MAX)


def _number(item: Any, key: str, path: str, minimum: float | None = None, default: Any = _REQUIRED) -> Any:
    """Read a finite number at ``item[key]``, at least ``minimum`` if given.

    With a default, a missing or null value yields the default unchecked.
    Trace, calibration, throttle-profile and plan documents read their
    numbers through here, so each bad value is a SchemaError with the
    field's JSON path.
    """
    if default is not _REQUIRED and isinstance(item, dict) and item.get(key) is None:
        return default
    if not isinstance(item, dict) or key not in item:
        raise SchemaError(f"{path}.{key}" if isinstance(item, dict) else path, "missing field")
    value = item[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}", "must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(f"{path}.{key}", "must be within float range") from None
    if not math.isfinite(value):
        raise SchemaError(f"{path}.{key}", "must be finite")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}.{key}", f"must be >= {minimum:g}")
    return value


def _integer(item: Any, key: str, path: str, minimum: int | None = None, default: Any = _REQUIRED) -> Any:
    """Read a JSON integer at ``item[key]``, as _number reads a number; a bool
    or a float is not one."""
    if default is not _REQUIRED and isinstance(item, dict) and item.get(key) is None:
        return default
    value = item.get(key) if isinstance(item, dict) else None
    if type(value) is not int:  # excludes bool, a subclass of int
        _number(item, key, path)  # names a missing field or a non-number
        raise SchemaError(f"{path}.{key}", "must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}.{key}", f"must be >= {minimum}")
    if not -_FLOAT_MAX_INT <= value <= _FLOAT_MAX_INT:  # counts take part in float arithmetic
        raise SchemaError(f"{path}.{key}", "must be within float range")
    return value


def _array(data: dict, key: str, path: str) -> Sequence[Any]:
    if key not in data:
        raise SchemaError(path, "missing field")
    value = data[key]
    if not isinstance(value, list):
        raise SchemaError(path, "must be an array")
    return value
