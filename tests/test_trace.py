"""Trace model: JSON round trips, schema rejection paths, clamping."""

import copy
import json
import random
from collections import Counter

import pytest

from conftest import random_trace
from oracles import from_dict_fieldwise
from webaudit.errors import SchemaError
from webaudit.trace import (
    MainThreadTask,
    NormalizedTrace,
    VisualSample,
    clamp_visual_progress,
)


def valid_doc() -> dict:
    return {
        "nav_start": 0,
        "paint_events": [
            {"t_ms": 300, "kind": "first-paint"},
            {"t_ms": 800, "kind": "contentful-paint"},
            {"t_ms": 1200, "kind": "fmp-candidate", "significance": 7.5},
        ],
        "tasks": [
            {"start_ms": 100, "dur_ms": 40},
            {"start_ms": 900, "dur_ms": 200},
        ],
        "requests": [
            {"discovered_ms": 0, "start_ms": 10, "end_ms": 700, "bytes": 52000, "origin": "https://a.test"},
        ],
        "visual_progress": [
            {"t_ms": 800, "fraction": 0.4},
            {"t_ms": 2700, "fraction": 1.0},
        ],
    }


def test_round_trip_through_json():
    trace = NormalizedTrace.from_dict(valid_doc())
    again = NormalizedTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert again == trace


def test_task_end_is_start_plus_duration():
    assert MainThreadTask(100.0, 40.0).end_ms == 140.0


def test_visual_regression_clamped_to_running_max():
    samples = [VisualSample(0.0, 0.5), VisualSample(10.0, 0.3), VisualSample(20.0, 0.8)]
    clamped = clamp_visual_progress(samples)
    assert [s.fraction for s in clamped] == [0.5, 0.5, 0.8]
    # from_dict applies the same repair instead of rejecting
    doc = valid_doc()
    doc["visual_progress"] = [{"t_ms": t, "fraction": f} for t, f in ((0, 0.5), (10, 0.3), (20, 1.0))]
    trace = NormalizedTrace.from_dict(doc)
    assert [s.fraction for s in trace.visual_progress] == [0.5, 0.5, 1.0]


@pytest.mark.parametrize(
    "mutate, path_part",
    [
        (lambda d: d.update(nav_start=5), "nav_start"),
        (lambda d: d["paint_events"].append({"t_ms": 1, "kind": "mystery-paint"}), "kind"),
        (lambda d: d["paint_events"].append({"t_ms": 1, "kind": "fmp-candidate"}), "significance"),
        (lambda d: d["tasks"].append({"start_ms": 2000, "dur_ms": 0}), "dur_ms"),
        (lambda d: d["tasks"].insert(0, {"start_ms": 120, "dur_ms": 40}), "tasks"),
        (lambda d: d["requests"].append({"discovered_ms": 50, "start_ms": 20, "end_ms": 90, "bytes": 1, "origin": "x"}), "requests"),
        (lambda d: d["requests"].append({"discovered_ms": 0, "start_ms": 0, "end_ms": 1, "bytes": -1, "origin": "x"}), "bytes"),
        (lambda d: d["requests"].append({"discovered_ms": 0, "start_ms": 0, "end_ms": 1, "bytes": True, "origin": "x"}), "bytes"),
        (lambda d: d["requests"].append({"discovered_ms": 0, "start_ms": 0, "end_ms": 1, "bytes": 1, "origin": 3}), "origin"),
        (lambda d: d["visual_progress"].append({"t_ms": 9000, "fraction": 1.5}), "fraction"),
        (lambda d: d["visual_progress"].insert(0, {"t_ms": 9000, "fraction": 0.1}), "t_ms"),
        (lambda d: d["paint_events"].append({"t_ms": float("nan"), "kind": "first-paint"}), "t_ms"),
        (lambda d: d["tasks"].append({"start_ms": -1, "dur_ms": 5}), "start_ms"),
    ],
)
def test_schema_violations_carry_a_field_path(mutate, path_part):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        NormalizedTrace.from_dict(doc)
    assert path_part in str(exc.value)


@pytest.mark.parametrize(
    "mutate, path_part",
    [
        (lambda d: d["requests"].append({"discovered_ms": 0, "start_ms": 0, "end_ms": 1, "bytes": 1.5, "origin": "x"}), "bytes"),
        (lambda d: d["requests"].append({"discovered_ms": 0, "start_ms": 0, "end_ms": 1, "bytes": 10**400, "origin": "x"}), "bytes"),
        (lambda d: d["tasks"].append({"start_ms": 10**400, "dur_ms": 5}), "start_ms"),
    ],
    ids=["fractional-bytes", "bytes-beyond-float-range", "time-beyond-float-range"],
)
def test_counts_are_integers_and_numbers_fit_a_float(mutate, path_part):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        NormalizedTrace.from_dict(doc)
    assert path_part in str(exc.value)


def test_non_object_document_rejected():
    with pytest.raises(SchemaError):
        NormalizedTrace.from_dict([1, 2, 3])


# Values a mutation writes into a field: non-finite, beyond float range, bools,
# numeric strings, null, negative, fractional, and in-range edge values the
# reader must accept. int(max float) + 1 rounds to the largest float, so the
# field readers accept it where the guard's exact comparison does not.
MUTANT_VALUES = (
    float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), True, False, "5", "1e3", "NaN",
    None, -1, -0.5, -0.0, 0, 0.0, 1.5, 1, 2**53 + 1, 1e308, 1.7976931348623157e308,
    int(1.7976931348623157e308) + 1, [1], {"v": 1},
)
ITEM_FIELDS = {
    "paint_events": ("t_ms", "kind", "significance"),
    "tasks": ("start_ms", "dur_ms"),
    "requests": ("discovered_ms", "start_ms", "end_ms", "bytes", "origin"),
    "visual_progress": ("t_ms", "fraction"),
}


def integral(value):
    """The document with every whole float written as a JSON integer."""
    if isinstance(value, dict):
        return {key: integral(v) for key, v in value.items()}
    if isinstance(value, list):
        return [integral(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def is_number(value) -> bool:
    return type(value) in (int, float)


def mutate(rng: random.Random, doc: dict) -> str:
    """Apply one seeded mutation to ``doc`` in place and return its name,
    or "none" when the document has nothing it applies to."""
    name = rng.choice(
        ("value", "value", "value", "missing-key", "non-object", "swap", "paint-kind",
         "discovered-after-start", "bytes", "origin", "overlap", "nav-start", "list")
    )
    key = {
        "paint-kind": "paint_events",
        "discovered-after-start": "requests",
        "bytes": "requests",
        "origin": "requests",
        "overlap": "tasks",
        "swap": rng.choice(("tasks", "visual_progress")),
    }.get(name) or rng.choice(list(ITEM_FIELDS))
    if name == "nav-start":
        doc["nav_start"] = rng.choice((0, 0.0, -0.0, 5, None, True, float("nan"), "0"))
        return name
    if name == "list":
        doc[key] = rng.choice((None, {}, "x", 3))
        return name
    items = doc.get(key)
    if not isinstance(items, list) or not items:
        return "none"
    i = rng.randrange(len(items))
    item = items[i] if isinstance(items[i], dict) else None
    if name == "non-object":
        items[i] = rng.choice(([1], [], "t_ms", 3, None, True))
    elif name == "swap" and len(items) > 1:
        j = rng.randrange(len(items) - 1)
        items[j], items[j + 1] = items[j + 1], items[j]
    elif item is None:
        return "none"
    elif name == "value":
        item[rng.choice(ITEM_FIELDS[key])] = rng.choice(MUTANT_VALUES)
    elif name == "missing-key":
        item.pop(rng.choice(ITEM_FIELDS[key]), None)
    elif name == "paint-kind":
        item["kind"] = rng.choice(
            ("mystery-paint", "FIRST-PAINT", None, 3, ["first-paint"], "fmp-candidate", "first-paint")
        )
    elif name == "discovered-after-start" and is_number(item.get("start_ms")):
        item["discovered_ms"] = item["start_ms"] + rng.choice((1, 0.5, 1e-9))
    elif name == "bytes":
        item["bytes"] = rng.choice((1.5, 2.0, -1, -0.5, True, "10", None, 10**400))
    elif name == "origin":
        item["origin"] = rng.choice((3, None, ["a"], {"a": 1}, True, ""))
    elif name == "overlap" and i > 0 and isinstance(items[i - 1], dict):
        prev = items[i - 1]
        if not (is_number(prev.get("start_ms")) and is_number(prev.get("dur_ms"))):
            return "none"
        item["start_ms"] = prev["start_ms"] + prev["dur_ms"] - rng.choice((1, 0, 1e-9, 0.5))
    else:
        return "none"
    return name


def outcome(read, doc) -> tuple:
    """The trace read, or the class, path and message of what was raised."""
    try:
        return ("trace", repr(read(doc)))  # repr tells 1 from 1.0 and 0.0 from -0.0
    except Exception as exc:
        return (type(exc).__name__, getattr(exc, "path", None), str(exc))


class TestFromDictOracle:
    """The guarded reader gives the field-by-field reader's trace or error."""

    def test_mutations_match_the_fieldwise_reader(self):
        rng = random.Random(0x7ACE)
        seen: Counter = Counter()
        outcomes: Counter = Counter()
        for case in range(3000):
            doc = random_trace(rng).to_dict()
            if rng.random() < 0.5:
                doc = integral(doc)
            for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
                seen[mutate(rng, doc)] += 1
            expected = outcome(from_dict_fieldwise, copy.deepcopy(doc))
            assert outcome(NormalizedTrace.from_dict, doc) == expected, (case, doc)
            outcomes[expected[0]] += 1
        assert outcomes["SchemaError"] >= 1500 and outcomes["trace"] >= 500, outcomes
        del seen["none"]
        assert sum(seen.values()) >= 2000 and seen["value"] >= 600, seen
        for name in ("missing-key", "non-object", "swap", "paint-kind", "discovered-after-start",
                     "bytes", "origin", "overlap", "nav-start", "list"):
            assert seen[name] >= 100, (name, seen)
