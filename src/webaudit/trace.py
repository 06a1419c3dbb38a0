"""Normalized page-load trace model and its JSON document format.

A trace is one recorded page load: paint events, main-thread tasks, network
requests, and visual-progress samples, all timed in milliseconds relative to
navigation start (which is defined to be 0).
"""

from __future__ import annotations

import json
import math
from datetime import date
from typing import Any, Collection, Iterable, NamedTuple, Sequence

from .errors import ParseError, SchemaError

PAINT_KINDS = ("first-paint", "contentful-paint", "fmp-candidate")


class PaintEvent(NamedTuple):
    """A paint-timeline event; ``significance`` is set only for fmp-candidate."""

    t_ms: float
    kind: str
    significance: float | None = None


class MainThreadTask(NamedTuple):
    """A main-thread task occupying [start_ms, start_ms + dur_ms)."""

    start_ms: float
    dur_ms: float

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.dur_ms


class NetworkRequest(NamedTuple):
    """A network fetch: discovered, then in flight over [start_ms, end_ms)."""

    discovered_ms: float
    start_ms: float
    end_ms: float
    bytes: int
    origin: str


class VisualSample(NamedTuple):
    """Fraction of the final frame painted at time t_ms."""

    t_ms: float
    fraction: float


class NormalizedTrace(NamedTuple):
    """A trace; navigation start is 0 by definition, so it is not stored."""

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

        if _number(data, "nav_start", "$") != 0:
            raise SchemaError("$.nav_start", "must be 0 (all times are relative to it)")

        # One guard per item: exact types, and chained comparisons that NaN,
        # infinities and ints beyond float range fail. It is stricter than the
        # field readers below it, which read an item that fails it or lacks a
        # key, and name the bad field or accept the item.
        paints = []
        for i, item in enumerate(_array(data, "paint_events", "$")):
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
            kind = _string(item, "kind", path, choices=PAINT_KINDS)
            significance = _number(item, "significance", path, minimum=0.0) if kind == "fmp-candidate" else None
            paints.append(PaintEvent(t, kind, significance))

        tasks = []
        prev_end = 0.0
        for i, item in enumerate(_array(data, "tasks", "$")):
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
        for i, item in enumerate(_array(data, "requests", "$")):
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
            origin = _string(item, "origin", path)
            requests.append(NetworkRequest(discovered, start, end, nbytes, origin))

        samples = []
        prev_t = 0.0
        for i, item in enumerate(_array(data, "visual_progress", "$")):
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
            "nav_start": 0.0,
            "paint_events": paints,
            "tasks": [t._asdict() for t in self.tasks],
            "requests": [r._asdict() for r in self.requests],
            "visual_progress": [v._asdict() for v in self.visual_progress],
        }


def clamp_visual_progress(samples: Iterable[VisualSample]) -> tuple[VisualSample, ...]:
    """Clamp fraction regressions (reflows) to the running maximum."""
    out = []
    running = 0.0
    for sample in samples:
        t_ms, fraction = sample
        if fraction > running:
            running = fraction
        out.append(sample if fraction == running else VisualSample(t_ms, running))
    return tuple(out)


def _checked_record(fields: type) -> type:
    """The named tuple ``fields``, subclassed so that every record is built
    through ``_check`` (by the constructor, ``_make``, ``_replace``, copy and
    pickle). ``_check`` raises on a bad field and returns None, or the values
    to build the record from where some fields derive from the others."""

    def __new__(cls, *args, **kwargs):
        record = fields.__new__(cls, *args, **kwargs)
        values = record._check()
        return record if values is None else tuple.__new__(cls, values)

    namespace = {"__doc__": fields.__doc__, "__module__": fields.__module__, "__slots__": (), "__new__": __new__}
    return type(fields.__name__, (fields,), {**namespace, "_make": classmethod(lambda cls, values: cls(*values))})


def _parse_json(text: str | bytes, source: Any, line: int | None = None) -> Any:
    """The JSON document in ``text``, a str or UTF-8 bytes. One that is not
    UTF-8 or not JSON, or that nests deeper than the decoder can recurse, is
    a ParseError naming ``source``, and ``line`` where given."""
    try:
        return json.loads(text.decode("utf-8") if type(text) is bytes else text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        where = source if line is None else f"{source}, line {line}"
        raise ParseError(f"{where}: {exc}") from exc


_REQUIRED = object()
_REAL = (int, float)  # exact JSON number types: a bool is neither
_FLOAT_MAX = 1.7976931348623157e308  # the largest float
_FLOAT_MAX_INT = int(_FLOAT_MAX)

# The field readers. Trace, calibration, throttle-profile, plan, results and
# aggregates documents read every keyed field through these, so each bad
# value is a SchemaError at the field's JSON path, worded one way.


def _field(item: Any, key: str, path: str, default: Any = _REQUIRED) -> Any:
    """``item[key]``, by the rule every reader below shares: an item that is
    not an object is a SchemaError at ``path``, a key it lacks one at
    ``path.key``. With a default, a missing or null value is the default,
    which the reader returns unchecked."""
    if not isinstance(item, dict):
        raise SchemaError(path, "must be an object")
    value = item.get(key, default)
    if value is None and default is not _REQUIRED:
        return default
    if value is _REQUIRED:
        raise SchemaError(f"{path}.{key}", "missing field")
    return value


def _number(
    item: Any, key: str, path: str, minimum: float | None = None, maximum: float | None = None, default: Any = _REQUIRED
) -> Any:
    """Read a finite number at ``item[key]``, within ``minimum`` and ``maximum``
    where given."""
    value = _field(item, key, path, default)
    if value is default:
        return value
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
    if maximum is not None and value > maximum:
        raise SchemaError(f"{path}.{key}", f"must be <= {maximum!r}")
    return value


def _integer(item: Any, key: str, path: str, minimum: int | None = None, default: Any = _REQUIRED) -> Any:
    """Read a JSON integer at ``item[key]``, as _number reads a number; a bool
    or a float is not one."""
    value = _field(item, key, path, default)
    if value is default:
        return value
    if type(value) is not int:  # excludes bool, a subclass of int
        _number(item, key, path)  # names a non-number
        raise SchemaError(f"{path}.{key}", "must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}.{key}", f"must be >= {minimum}")
    if not -_FLOAT_MAX_INT <= value <= _FLOAT_MAX_INT:  # counts take part in float arithmetic
        raise SchemaError(f"{path}.{key}", "must be within float range")
    return value


def _string(
    item: Any,
    key: str,
    path: str,
    choices: Sequence[str] | None = None,
    nonempty: bool = False,
    default: Any = _REQUIRED,
) -> Any:
    """Read a string at ``item[key]``, as _number reads a number: one of
    ``choices`` where given, and not empty where ``nonempty`` is set."""
    value = _field(item, key, path, default)
    if value is default:
        return value
    if choices is not None:
        if value not in choices:
            raise SchemaError(f"{path}.{key}", f"must be one of {', '.join(choices)}")
    elif type(value) is not str or (nonempty and not value):
        raise SchemaError(f"{path}.{key}", "must be a non-empty string" if nonempty else "must be a string")
    return value


def _date(item: Any, key: str, path: str, default: Any = _REQUIRED) -> Any:
    """Read an ISO date string (YYYY-MM-DD) at ``item[key]``, as _number reads
    a number."""
    value = _field(item, key, path, default)
    return value if value is default else iso_date(value, f"{path}.{key}")


def iso_date(text: Any, path: str) -> date:
    """The date a canonical YYYY-MM-DD string names; anything else is a SchemaError at path."""
    try:
        value = date.fromisoformat(text)
        if value.isoformat() == text:  # Python 3.11 also parses forms such as 20190825
            return value
    except (TypeError, ValueError):
        pass
    raise SchemaError(path, "must be an ISO date string (YYYY-MM-DD)")


def _array(item: Any, key: str, path: str) -> list:
    """Read a JSON array at ``item[key]``, as _number reads a number."""
    value = _field(item, key, path)
    if type(value) is not list:
        raise SchemaError(f"{path}.{key}", "must be an array")
    return value


def _object(item: Any, key: str, path: str, default: Any = _REQUIRED) -> Any:
    """Read a JSON object at ``item[key]``, as _number reads a number."""
    value = _field(item, key, path, default)
    if type(value) is not dict and value is not default:
        raise SchemaError(f"{path}.{key}", "must be an object")
    return value


def _known_keys(item: dict, keys: Collection[str], path: str) -> None:
    """A SchemaError at the first key of ``item``, in sorted order, that ``keys`` lacks."""
    unknown = sorted(item.keys() - keys)
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "unknown field")
