"""Trace file IO (webaudit.collector), and performance-entry conversion and
capture plumbing (webaudit.capture)."""

import socket

import pytest

from webaudit.capture import (
    CaptureRequest,
    _decode_frame,
    _encode_frame,
    capture_live,
    trace_from_performance_entries,
)
from webaudit.collector import load_trace, write_trace
from webaudit.config import DeviceMode, Viewport
from webaudit.errors import ConversionError, ParseError, SchemaError, Unreachable

MOBILE = DeviceMode(kind="mobile", viewport=Viewport(360, 640), cpu_multiplier=4.0)


def capture_request(url: str = "https://site.test", timeout_ms: float = 300.0) -> CaptureRequest:
    return CaptureRequest(url=url, mode=MOBILE, timeout_ms=timeout_ms)


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


class TestFrameCodec:
    @pytest.mark.parametrize("size", [0, 5, 125, 126, 400, 65535, 65536])
    @pytest.mark.parametrize("mask", [True, False])
    def test_round_trip_across_length_encodings(self, size, mask):
        payload = bytes(i % 251 for i in range(size))
        buf = _encode_frame(0x2, payload, mask=mask)
        decoded = _decode_frame(buf)
        assert decoded is not None
        opcode, out, consumed = decoded
        assert (opcode, out, consumed) == (0x2, payload, len(buf))

    def test_partial_buffer_yields_none(self):
        buf = _encode_frame(0x1, b"hello world", mask=True)
        for cut in range(len(buf)):
            assert _decode_frame(buf[:cut]) is None

    def test_back_to_back_frames_consume_exactly_one(self):
        first = _encode_frame(0x1, b"one", mask=False)
        second = _encode_frame(0x1, b"two", mask=False)
        opcode, payload, consumed = _decode_frame(first + second)
        assert payload == b"one"
        assert consumed == len(first)


class TestCaptureLive:
    def test_no_endpoint_configured(self, monkeypatch):
        monkeypatch.delenv("AUDIT_BROWSER_ENDPOINT", raising=False)
        with pytest.raises(Unreachable, match="AUDIT_BROWSER_ENDPOINT"):
            capture_live(capture_request())

    def test_dead_endpoint(self):
        # grab a free port and close it again: nothing is listening there
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(Unreachable):
            capture_live(capture_request(), endpoint=f"127.0.0.1:{port}")

    def test_env_var_supplies_the_endpoint(self, monkeypatch):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        monkeypatch.setenv("AUDIT_BROWSER_ENDPOINT", f"127.0.0.1:{port}")
        with pytest.raises(Unreachable):
            capture_live(capture_request())


class TestCaptureRequest:
    def test_validation(self):
        capture_request()  # valid
        with pytest.raises(ValueError):
            capture_request(url="ftp://site.test")
        with pytest.raises(ValueError):
            capture_request(url="/relative/path")
        with pytest.raises(ValueError):
            capture_request(timeout_ms=0.0)
