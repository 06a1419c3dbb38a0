"""Trace file IO (webaudit.collector), and performance-entry conversion and
capture plumbing (webaudit.capture)."""

import io
import json
import re
import socket
import time
import urllib.request

import pytest

from webaudit.capture import (
    CaptureRequest,
    _decode_frame,
    _encode_frame,
    _evaluate,
    _open_target,
    _rpc,
    capture_live,
    trace_from_performance_entries,
)
from webaudit.cli import main
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


DEEP = "[" * 100_000 + "]" * 100_000  # nests deeper than the JSON decoder can recurse


class StandInSocket:
    """A debugger socket that answers every call with ``reply(call_id)``."""

    def __init__(self, reply):
        self.reply = reply
        self.call_id = None

    def send_text(self, payload: str) -> None:
        self.call_id = json.loads(payload)["id"]

    def recv_text(self, timeout_s: float) -> str:
        return self.reply(self.call_id)


def evaluated(value):
    """A reply whose page evaluation returned ``value``."""
    return lambda call_id: json.dumps({"id": call_id, "result": {"result": {"value": value}}})


class TestBrowserReplies:
    """A browser reply that is not the JSON object the code reads is a
    ConversionError, or Unreachable from the target endpoint (both
    AuditErrors, which the CLI maps to exit 2), never a traceback."""

    @pytest.mark.parametrize(
        "reply",
        [
            lambda call_id: DEEP,
            lambda call_id: json.dumps([{"id": call_id, "result": {}}]),
            lambda call_id: json.dumps({"id": call_id, "result": [1]}),
        ],
        ids=["deep", "array", "non-object-result"],
    )
    def test_rpc(self, reply):
        with pytest.raises(ConversionError, match="^Page.enable returned a malformed reply: "):
            _rpc(StandInSocket(reply), "Page.enable", {}, time.monotonic() + 5)

    @pytest.mark.parametrize(
        "reply",
        [
            evaluated(DEEP),
            evaluated("[1, 2]"),
            lambda call_id: json.dumps({"id": call_id, "result": {"result": [1]}}),
        ],
        ids=["deep", "array", "non-object-result"],
    )
    def test_evaluate(self, reply):
        with pytest.raises(ConversionError, match="^page evaluation returned "):
            _evaluate(StandInSocket(reply), "1", time.monotonic() + 5)

    @pytest.mark.parametrize(
        "body",
        [DEEP, '[{"webSocketDebuggerUrl": "ws://127.0.0.1:9/page"}]', '{"webSocketDebuggerUrl": ["ws://x"]}'],
        ids=["deep", "array", "non-string-socket"],
    )
    def test_open_target(self, monkeypatch, body):
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body.encode("utf-8")))
        with pytest.raises(Unreachable, match="^127.0.0.1:9 returned "):
            _open_target("127.0.0.1:9", time.monotonic() + 5)

    @pytest.mark.parametrize("body", [DEEP, "[]"], ids=["deep", "array"])
    def test_audit_command_exits_two(self, monkeypatch, capsys, body):
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body.encode("utf-8")))
        assert main(["audit", "https://site.test", "--endpoint", "127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 127.0.0.1:9 returned a malformed target: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestCaptureRequest:
    def test_validation(self):
        capture_request()  # valid
        with pytest.raises(ValueError):
            capture_request(url="ftp://site.test")
        with pytest.raises(ValueError):
            capture_request(url="/relative/path")
        with pytest.raises(ValueError):
            capture_request(timeout_ms=0.0)
