"""Trace model: JSON round trips, schema rejection paths, clamping."""

import json

import pytest

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


def test_trace_end_covers_every_event_family(simple_trace):
    assert simple_trace.end_ms() == 2700.0
    assert NormalizedTrace().end_ms() == 0.0


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
