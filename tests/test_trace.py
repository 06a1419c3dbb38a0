"""Trace model: JSON round trips, schema rejection paths, clamping."""

import copy
import hashlib
import json
import math
import pickle
import random
from collections import Counter
from datetime import date

import pytest

import webaudit.trace
from conftest import random_trace
from oracles import from_dict_fieldwise
from webaudit.collector import load_trace, write_trace
from webaudit.config import DeviceMode, OutlierBounds, load_calibration, resolve_throttle
from webaudit.corpus import AuditResult, SiteRecord
from webaudit.errors import SchemaError
from webaudit.metrics import QuietWindow
from webaudit.netsim import UNTHROTTLED, ThrottleProfile, apply_throttle, replay_link, replay_mode
from webaudit.scoring import CategoryBands, ScoreCurve, WeightTable
from webaudit.synth import build_demo_trace
from webaudit.trace import (
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
    _array,
    _date,
    _integer,
    _known_keys,
    _number,
    _object,
    _string,
    clamp_visual_progress,
    records,
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


class TestRecords:
    """The four trace records are immutable named tuples."""

    def test_positional_and_keyword_construction_agree(self):
        assert PaintEvent(300.0, "first-paint") == PaintEvent(t_ms=300.0, kind="first-paint", significance=None)
        assert PaintEvent(1.0, "fmp-candidate", 7.5) == PaintEvent(kind="fmp-candidate", significance=7.5, t_ms=1.0)
        assert MainThreadTask(100.0, 40.0) == MainThreadTask(dur_ms=40.0, start_ms=100.0)
        assert NetworkRequest(0.0, 10.0, 700.0, 52000, "https://a.test") == NetworkRequest(
            origin="https://a.test", bytes=52000, end_ms=700.0, start_ms=10.0, discovered_ms=0.0
        )
        assert VisualSample(800.0, 0.4) == VisualSample(fraction=0.4, t_ms=800.0)

    def test_significance_defaults_to_none(self):
        assert PaintEvent(300.0, "contentful-paint").significance is None

    def test_fields_read_by_name_in_order(self):
        request = NetworkRequest(0.0, 10.0, 700.0, 52000, "https://a.test")
        assert (request.discovered_ms, request.start_ms, request.end_ms, request.bytes, request.origin) == tuple(request)
        assert NetworkRequest._fields == ("discovered_ms", "start_ms", "end_ms", "bytes", "origin")
        assert PaintEvent._fields == ("t_ms", "kind", "significance")
        assert MainThreadTask._fields == ("start_ms", "dur_ms")
        assert VisualSample._fields == ("t_ms", "fraction")
        task = MainThreadTask(100.0, 40.0)
        assert (task.start_ms, task.dur_ms, task.end_ms) == (100.0, 40.0, 140.0)
        sample = VisualSample(800.0, 0.4)
        assert (sample.t_ms, sample.fraction) == (800.0, 0.4)

    @pytest.mark.parametrize(
        "record,field",
        [
            (PaintEvent(300.0, "first-paint"), "t_ms"),
            (MainThreadTask(100.0, 40.0), "dur_ms"),
            (MainThreadTask(100.0, 40.0), "end_ms"),
            (NetworkRequest(0.0, 10.0, 700.0, 52000, "https://a.test"), "bytes"),
            (VisualSample(800.0, 0.4), "fraction"),
        ],
    )
    def test_setting_a_field_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)

    def test_a_record_is_a_tuple_of_its_values(self):
        assert VisualSample(800.0, 0.4) == (800.0, 0.4)
        assert json.dumps(VisualSample(800.0, 0.4)) == "[800.0, 0.4]"

    def test_replace_makes_a_new_record(self):
        task = MainThreadTask(100.0, 40.0)
        assert task._replace(dur_ms=60.0) == MainThreadTask(100.0, 60.0)
        assert task == MainThreadTask(100.0, 40.0)

    def test_demo_documents_keep_their_bytes(self):
        # sha256 of json.dumps(to_dict()) of the twelve demo traces, one line
        # each, as written when the records were frozen dataclasses.
        text = "".join(json.dumps(build_demo_trace(i).to_dict()) + "\n" for i in range(12))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "c14eb4627e5fcabfefd0fd643722501395c3d9ace618c31586b1f68e5f25c553"
        )


MOBILE = DeviceMode("mobile", 4.0)
FAILED = AuditResult(
    SiteRecord(1, "A", "provinsi", "Kab. Garut", "https://a.test"),
    "mobile", "failed", None, None, date(2019, 8, 25), False, "Unreachable: refused",
)  # fmt: skip

# A valid record of each type whose constructor checks its fields, and a
# change that the check rejects.
CHECKED = [
    (MOBILE, {"kind": "tablet"}),
    (MOBILE, {"cpu_multiplier": 0.5}),
    (OutlierBounds(99.0, 1.0), {"lower": 99.0}),
    (QuietWindow(50.0, 5000.0, 2), {"max_inflight_requests": -1}),
    (ScoreCurve(4000.0, 2000.0), {"podr_ms": 4000.0}),
    (WeightTable(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), {"fcp": math.nan}),
    (CategoryBands(90.0, 50.0), {"average_min": 90.0}),
    (ThrottleProfile(150.0, 1638.4), {"downlink_kbps": math.nan}),
    (FAILED, {"failure_reason": None}),
    (FAILED, {"status": "skipped"}),
]
CHECKED_IDS = [f"{type(record).__name__}.{next(iter(changes))}" for record, changes in CHECKED]


class TestCheckedRecords:
    """Every way of building a checked record runs its constructor's checks."""

    @pytest.mark.parametrize("record,changes", CHECKED, ids=CHECKED_IDS)
    def test_replace_rejects_what_the_constructor_rejects(self, record, changes):
        with pytest.raises(ValueError) as built:
            type(record)(**(record._asdict() | changes))
        with pytest.raises(type(built.value)) as replaced:
            record._replace(**changes)
        assert str(replaced.value) == str(built.value)
        with pytest.raises(type(built.value)):
            type(record)._make((record._asdict() | changes).values())

    @pytest.mark.parametrize("record", [record for record, _ in CHECKED], ids=CHECKED_IDS)
    def test_a_valid_record_survives_replace_copy_and_pickle(self, record):
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is type(record) and restored == record == copy.copy(record) == record._replace()


# One valid record of each trace record type, built by its class call.
TRACE_RECORDS = [
    PaintEvent(300.0, "first-paint"),
    PaintEvent(1200.0, "fmp-candidate", 7.5),
    MainThreadTask(100.0, 40.0),
    NetworkRequest(0.0, 10.0, 700.0, 52000, "https://a.test"),
    VisualSample(800.0, 0.4),
]
TRACE_RECORD_IDS = [f"{type(record).__name__}-{i}" for i, record in enumerate(TRACE_RECORDS)]


class TestRecordsHelper:
    """records(cls, rows) builds what the class call builds, for each trace record."""

    @pytest.mark.parametrize("record", TRACE_RECORDS, ids=TRACE_RECORD_IDS)
    def test_equals_the_class_call(self, record):
        cls = type(record)
        (built,) = records(cls, [tuple(record)])
        assert type(built) is cls and built == record and len(built) == len(cls._fields)
        assert built._asdict() == record._asdict()
        assert built._replace() == record._replace() and type(built._replace()) is cls
        restored = pickle.loads(pickle.dumps(built))
        assert type(restored) is cls and restored == record
        assert type(copy.copy(built)) is cls and copy.copy(built) == record
        assert repr(built) == repr(record)

    def test_rows_of_any_iterable_keep_their_order(self):
        rows = [(float(i), 0.5) for i in range(5)]
        assert records(VisualSample, iter(rows)) == tuple(VisualSample(*row) for row in rows)
        assert records(MainThreadTask, []) == ()

    @pytest.mark.parametrize("cls", [type(record) for record, _ in CHECKED], ids=CHECKED_IDS)
    def test_a_checked_record_is_refused(self, cls):
        with pytest.raises(TypeError, match="checks its fields"):
            records(cls, [])


RECORD_TYPES = {
    "paint_events": PaintEvent,
    "tasks": MainThreadTask,
    "requests": NetworkRequest,
    "visual_progress": VisualSample,
}


def assert_exact_records(trace) -> None:
    """Each item of each trace tuple is its record class, not a plain tuple
    (which would compare equal), and holds every field."""
    assert type(trace) is NormalizedTrace
    for name, cls in RECORD_TYPES.items():
        items = getattr(trace, name)
        assert type(items) is tuple
        for item in items:
            assert type(item) is cls and len(item) == len(cls._fields), (name, item)


def regressing_trace() -> NormalizedTrace:
    """valid_doc with a visual sample that regresses, so clamping builds one."""
    doc = valid_doc()
    doc["visual_progress"].insert(1, {"t_ms": 1000, "fraction": 0.2})
    return NormalizedTrace.from_dict(doc)


def record_traces() -> list[NormalizedTrace]:
    rng = random.Random(20)
    return [random_trace(rng) for _ in range(60)] + [build_demo_trace(i) for i in range(12)] + [regressing_trace()]


class TestExactRecordTypes:
    """Every path that builds trace records yields the record classes."""

    @pytest.fixture(scope="class")
    def traces(self):
        return record_traces()

    @pytest.mark.parametrize("path", ["fast", "slow"])
    def test_load_trace(self, tmp_path, monkeypatch, traces, path):
        if path == "slow":
            # No value passes the per-item guard's exact-type test, so every
            # item is read by the field readers.
            monkeypatch.setattr(webaudit.trace, "_REAL", ())
        file = tmp_path / "trace.json"
        for trace in traces:
            write_trace(trace, file)
            loaded = load_trace(file)
            assert loaded == trace
            assert_exact_records(loaded)

    def test_apply_throttle_under_4g_and_identity(self, traces):
        calibration = load_calibration()
        profile = resolve_throttle("4g", calibration, calibration.mode("mobile"))
        for trace in traces:
            assert_exact_records(apply_throttle(trace, profile))
            assert_exact_records(apply_throttle(trace, UNTHROTTLED))

    def test_each_mode_of_one_link_replay(self, traces):
        calibration = load_calibration()
        profiles = [resolve_throttle("4g", calibration, calibration.mode(kind)) for kind in sorted(calibration.modes)]
        for trace in traces:
            link = replay_link(trace, profiles[0])
            assert_exact_records(link)
            for profile in profiles:
                assert_exact_records(replay_mode(link, profile.cpu_multiplier))


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


@pytest.mark.parametrize(
    "read, item, message",
    [
        (lambda item: _string(item, "k", "$.x"), {}, "$.x.k: missing field"),
        (lambda item: _string(item, "k", "$.x"), [1], "$.x: must be an object"),
        (lambda item: _string(item, "k", "$.x"), {"k": 3}, "$.x.k: must be a string"),
        (lambda item: _string(item, "k", "$.x"), {"k": None}, "$.x.k: must be a string"),
        (lambda item: _string(item, "k", "$.x", choices=("a", "b")), {"k": "c"}, "$.x.k: must be one of a, b"),
        (lambda item: _string(item, "k", "$.x", choices=("a", "b")), {"k": ["a"]}, "$.x.k: must be one of a, b"),
        (lambda item: _string(item, "k", "$.x", choices=("a", "b")), {}, "$.x.k: missing field"),
        (lambda item: _string(item, "k", "$.x", nonempty=True), {"k": ""}, "$.x.k: must be a non-empty string"),
        (lambda item: _string(item, "k", "$.x", nonempty=True), {"k": 3}, "$.x.k: must be a non-empty string"),
        (lambda item: _object(item, "k", "$.x"), {"k": []}, "$.x.k: must be an object"),
        (lambda item: _object(item, "k", "$.x"), {}, "$.x.k: missing field"),
        (lambda item: _object(item, "k", "$.x", default={}), "k", "$.x: must be an object"),
        (lambda item: _array(item, "k", "$.x"), {"k": {}}, "$.x.k: must be an array"),
        (lambda item: _array(item, "k", "$.x"), {}, "$.x.k: missing field"),
        (lambda item: _number(item, "k", "$.x"), 5, "$.x: must be an object"),
        (lambda item: _number(item, "k", "$.x", default=0.0), None, "$.x: must be an object"),
        (lambda item: _integer(item, "k", "$.x"), {"k": 1.5}, "$.x.k: must be an integer"),
        (lambda item: _integer(item, "k", "$.x"), {}, "$.x.k: missing field"),
        (lambda item: _date(item, "k", "$.x"), [], "$.x: must be an object"),
        (lambda item: _known_keys(item, {"a"}, "$.x"), {"a": 1, "c": 2, "b": 3}, "$.x.b: unknown field"),
    ],
)
def test_field_readers_word_each_rule_one_way(read, item, message):
    with pytest.raises(SchemaError) as exc:
        read(item)
    assert str(exc.value) == message


def test_field_readers_return_the_value_or_the_default():
    assert _string({"k": "a"}, "k", "$", choices=("a", "b")) == "a"
    assert _string({"k": ""}, "k", "$") == ""
    assert _string({"k": None}, "k", "$", default="d") == "d"
    assert _string({}, "k", "$", default=None) is None
    assert _object({"k": None}, "k", "$", default={}) == {}
    assert _object({"k": {"a": 1}}, "k", "$") == {"a": 1}
    assert _array({"k": [1]}, "k", "$") == [1]
    assert _number({}, "k", "$", default=2.5) == 2.5
    assert _known_keys({"a": 1}, {"a", "b"}, "$") is None


def test_an_item_that_is_not_an_object_is_named():
    doc = valid_doc()
    doc["tasks"].append(5)
    message = f"$.tasks[{len(doc['tasks']) - 1}]: must be an object"
    for read in (NormalizedTrace.from_dict, from_dict_fieldwise):
        with pytest.raises(SchemaError) as exc:
            read(doc)
        assert str(exc.value) == message


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

    @pytest.mark.parametrize(
        "tasks, index",
        [
            ([{"start_ms": 1.4e308, "dur_ms": 9e307}], 0),
            ([{"start_ms": 10, "dur_ms": 5}, {"start_ms": 1.7976931348623157e308, "dur_ms": 1e292}], 1),
            ([{"start_ms": 10**308, "dur_ms": 10**308}], 0),
        ],
        ids=["floats", "second-task", "integers"],
    )
    def test_a_task_that_ends_beyond_float_range_is_refused_at_its_duration(self, tasks, index):
        doc = valid_doc()
        doc["tasks"] = tasks
        path = f"$.tasks[{index}].dur_ms"
        expected = ("SchemaError", path, f"{path}: start_ms + dur_ms must be within float range")
        assert outcome(from_dict_fieldwise, copy.deepcopy(doc)) == expected
        assert outcome(NormalizedTrace.from_dict, doc) == expected

    def test_a_task_that_ends_at_the_largest_float_is_read(self):
        doc = valid_doc()
        doc["tasks"] = [{"start_ms": 1.7976931348623157e308, "dur_ms": 1e291}]  # under half an ulp: rounds back
        assert outcome(NormalizedTrace.from_dict, doc) == outcome(from_dict_fieldwise, copy.deepcopy(doc))
        assert NormalizedTrace.from_dict(doc).tasks[0].end_ms == 1.7976931348623157e308
