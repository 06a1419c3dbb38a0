"""Trace file IO (webaudit.collector), and performance-entry conversion
(webaudit.capture)."""

import json
import re

import pytest

from webaudit.capture import trace_from_performance_entries
from webaudit.collector import load_trace, write_trace
from webaudit.errors import ConversionError, ParseError, SchemaError


class TestTraceFiles:
    def test_write_then_load_round_trip(self, tmp_path, simple_trace):
        p = tmp_path / "trace.json"
        write_trace(simple_trace, p)
        assert load_trace(p) == simple_trace

    def test_files_end_with_a_newline(self, tmp_path, simple_trace):
        p = tmp_path / "trace.json"
        write_trace(simple_trace, p)
        assert p.read_bytes().endswith(b"\n")

    def test_unparsable_file(self, tmp_path):
        p = tmp_path / "trace.json"
        p.write_text("{nope", "utf-8")
        with pytest.raises(ParseError):
            load_trace(p)

    @pytest.mark.parametrize("prefix", [b"\xff\xfe", b"\xef\xbb\xbf"], ids=["not-utf8", "byte-order-mark"])
    def test_a_file_that_is_not_utf8_json_names_its_path(self, tmp_path, simple_trace, prefix):
        p = tmp_path / "trace.json"
        write_trace(simple_trace, p)
        p.write_bytes(prefix + p.read_bytes())
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: "):
            load_trace(p)

    def test_crlf_line_ends_and_utf8_text_are_read(self, tmp_path, simple_trace):
        p = tmp_path / "trace.json"
        write_trace(simple_trace, p)
        document = json.loads(p.read_text("utf-8"))
        document["requests"][0]["origin"] = "https://é.test"
        p.write_bytes(json.dumps(document, ensure_ascii=False, indent=2).replace("\n", "\r\n").encode("utf-8"))
        assert load_trace(p).requests[0].origin == "https://é.test"

    def test_schema_violation_surfaces(self, tmp_path):
        p = tmp_path / "trace.json"
        p.write_text('{"nav_start": 7}', "utf-8")
        with pytest.raises(SchemaError):
            load_trace(p)


class TestPerformanceEntryConversion:
    def payload(self) -> dict:
        return {
            "paint": [
                {"name": "first-paint", "startTime": 120.0},
                {"name": "first-contentful-paint", "startTime": 180.0},
            ],
            "elements": [
                {"renderTime": 450.0, "size": 12000},
                {"renderTime": 0, "loadTime": 520.0, "size": 3000},
            ],
            "longtasks": [
                {"startTime": 300.0, "duration": 80.0},
                {"startTime": 600.0, "duration": 55.0},
            ],
            "resources": [
                {
                    "name": "https://site.test/app.js",
                    "startTime": 10.0,
                    "requestStart": 15.0,
                    "responseEnd": 200.0,
                    "transferSize": 48000,
                },
                {"name": "https://cdn.test/x.png", "startTime": 50.0, "responseEnd": 0},
            ],
            "navigation": {"domContentLoaded": 400.0, "loadEventEnd": 700.0},
        }

    def test_full_payload_converts(self):
        trace = trace_from_performance_entries(self.payload())
        kinds = [p.kind for p in trace.paint_events]
        assert kinds == ["first-paint", "contentful-paint", "fmp-candidate", "fmp-candidate"]
        assert [t.start_ms for t in trace.tasks] == [300.0, 600.0]
        # the unfinished resource carries no interval and is dropped
        assert len(trace.requests) == 1
        assert trace.requests[0].origin == "https://site.test"
        assert trace.visual_progress[-1].fraction == 1.0

    def test_visual_ramp_spans_observed_milestones(self):
        trace = trace_from_performance_entries(self.payload())
        times = [v.t_ms for v in trace.visual_progress]
        assert times == sorted(times)
        assert 700.0 in times  # loadEventEnd closes the ramp
        fractions = [v.fraction for v in trace.visual_progress]
        assert fractions == sorted(fractions)

    def test_small_longtask_overlap_is_trimmed(self):
        payload = self.payload()
        payload["longtasks"] = [
            {"startTime": 300.0, "duration": 80.0},
            {"startTime": 379.95, "duration": 50.0},  # 0.05 ms of jitter
        ]
        trace = trace_from_performance_entries(payload)
        assert trace.tasks[1].start_ms == 380.0
        assert trace.tasks[1].dur_ms == pytest.approx(49.95)

    def test_large_longtask_overlap_rejected(self):
        payload = self.payload()
        payload["longtasks"] = [
            {"startTime": 300.0, "duration": 80.0},
            {"startTime": 340.0, "duration": 50.0},
        ]
        with pytest.raises(ConversionError):
            trace_from_performance_entries(payload)

    def test_opaque_timing_falls_back_to_discovery(self):
        payload = self.payload()
        payload["resources"] = [
            {"name": "https://cdn.test/font", "startTime": 30.0, "requestStart": 0, "responseEnd": 90.0}
        ]
        trace = trace_from_performance_entries(payload)
        assert trace.requests[0].start_ms == 30.0

    def test_non_object_payload_rejected(self):
        with pytest.raises(ConversionError):
            trace_from_performance_entries([1, 2])

    @pytest.mark.parametrize("entries", [[1], 5, None], ids=["not-objects", "not-a-list", "null"])
    def test_an_entry_list_that_is_not_a_list_of_objects_is_rejected(self, entries):
        payload = self.payload()
        payload["resources"] = entries
        with pytest.raises(ConversionError, match="resources must be a list of objects"):
            trace_from_performance_entries(payload)

    @pytest.mark.parametrize(
        "key, entry, message",
        [
            ("paint", {"name": "first-paint", "startTime": [1]}, "$.paint[0].startTime: must be a number"),
            ("elements", {"renderTime": {}}, "$.elements[0].renderTime: must be a number"),
            ("longtasks", {"startTime": 300.0, "duration": "80"}, "$.longtasks[0].duration: must be a number"),
            ("longtasks", {"startTime": True}, "$.longtasks[0].startTime: must be a number"),
            # json.loads reads the literal Infinity as float("inf"), which int() cannot convert
            ("resources", json.loads('{"responseEnd": 90, "transferSize": Infinity}'),
             "$.resources[0].transferSize: must be finite"),
            ("resources", {"responseEnd": 90, "transferSize": 1.5}, "$.resources[0].transferSize: must be an integer"),
            ("resources", {"responseEnd": 90, "transferSize": -1}, "$.resources[0].transferSize: must be >= 0"),
            ("resources", {"responseEnd": 1e400}, "$.resources[0].responseEnd: must be finite"),
        ],
        ids=["array-start", "object-render", "string-duration", "bool-start", "infinite-size", "fractional-size",
             "negative-size", "inf-end"],
    )  # fmt: skip
    def test_a_bad_entry_number_is_a_conversion_error_at_its_path(self, key, entry, message):
        payload = self.payload()
        payload[key] = [entry]
        with pytest.raises(ConversionError) as raised:
            trace_from_performance_entries(payload)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "navigation, message",
        [
            ({"loadEventEnd": "x"}, "$.navigation.loadEventEnd: must be a number"),
            ([700.0], "$.navigation: must be an object"),
        ],
        ids=["string-load-end", "not-an-object"],
    )
    def test_bad_navigation_milestones_are_a_conversion_error_at_their_path(self, navigation, message):
        payload = self.payload()
        payload["navigation"] = navigation
        with pytest.raises(ConversionError) as raised:
            trace_from_performance_entries(payload)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "key, entry",
        [
            ("paint", '{"name": "first-paint", "startTime": NaN}'),
            ("elements", '{"renderTime": NaN}'),
            ("elements", '{"loadTime": NaN}'),
            ("elements", '{"startTime": NaN}'),
            ("elements", '{"renderTime": 450, "size": NaN}'),
            ("longtasks", '{"startTime": NaN, "duration": 80}'),
            ("longtasks", '{"startTime": 300, "duration": NaN}'),
            ("resources", '{"responseEnd": NaN}'),
            ("resources", '{"responseEnd": 90, "startTime": NaN}'),
            ("resources", '{"responseEnd": 90, "requestStart": NaN}'),
            ("resources", '{"responseEnd": 90, "transferSize": NaN}'),
            ("navigation", '{"domContentLoaded": NaN}'),
            ("navigation", '{"loadEventEnd": NaN}'),
        ],
        ids=lambda value: value if value[0] != "{" else re.search(r'"(\w+)": NaN', value)[1],
    )
    def test_every_entry_number_refuses_nan_at_its_path(self, key, entry):
        # json.loads reads the literal NaN, which compares false with every
        # bound, so only a field reader keeps it out of the trace.
        payload = self.payload()
        field = re.search(r'"(\w+)": NaN', entry)[1]
        if key == "navigation":
            payload[key] = json.loads(entry)
            path = f"$.navigation.{field}"
        else:
            payload[key] = [json.loads(entry)]
            path = f"$.{key}[0].{field}"
        with pytest.raises(ConversionError) as raised:
            trace_from_performance_entries(payload)
        assert str(raised.value) == f"{path}: must be finite"

    def test_zero_and_null_numbers_mean_absent(self):
        payload = self.payload()
        payload["paint"][0]["startTime"] = None
        payload["elements"][0].update(renderTime=None, loadTime=0)
        payload["resources"][0].update(transferSize=None, requestStart=None)
        payload["navigation"] = None
        trace = trace_from_performance_entries(payload)
        assert trace.paint_events[0].t_ms == 0.0
        assert [p.t_ms for p in trace.paint_events if p.kind == "fmp-candidate"] == [520.0]
        assert (trace.requests[0].bytes, trace.requests[0].start_ms) == (0, 10.0)
        assert 700.0 not in [v.t_ms for v in trace.visual_progress]
