"""Live capture: record a trace from a running browser.

`capture_live` drives a browser over its debugging wire protocol on a local
socket (a small JSON-RPC client on a hand-written websocket) and converts
the page's performance entries into a normalized trace, unthrottled. Only
`webaudit audit` without `--trace-in` uses this module; the CLI imports it
there, so the replay pipeline never loads `urllib.request` or `socket`.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import struct
import time
import urllib.error
import urllib.request
from typing import Any, NamedTuple
from urllib.parse import urlsplit

from .config import DeviceMode
from .errors import ConversionError, NavigationTimeout, SchemaError, Unreachable
from .trace import NormalizedTrace, _checked_record

# Environment variable naming the browser debugging endpoint (host:port).
ENDPOINT_ENV = "AUDIT_BROWSER_ENDPOINT"


@_checked_record
class CaptureRequest(NamedTuple):
    url: str
    mode: DeviceMode
    timeout_ms: float = 60000.0

    def _check(self):
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"url must be absolute http/https, got {self.url!r}")
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {self.timeout_ms!r}")


def trace_from_performance_entries(payload: Any) -> NormalizedTrace:
    """Convert a dump of browser performance entries into a trace.

    Expects the object shape produced by the capture script: paint,
    element, longtask and resource entry lists plus navigation milestones,
    all in milliseconds relative to navigation start.
    """
    if not isinstance(payload, dict):
        raise ConversionError("performance entry payload must be an object")

    paints = []
    for entry in payload.get("paint", []):
        name = entry.get("name")
        t = float(entry.get("startTime", 0.0))
        if name == "first-paint":
            paints.append({"t_ms": t, "kind": "first-paint"})
        elif name == "first-contentful-paint":
            paints.append({"t_ms": t, "kind": "contentful-paint"})
    for entry in payload.get("elements", []):
        t = 0.0
        for key in ("renderTime", "loadTime", "startTime"):
            t = float(entry.get(key) or 0.0)
            if t > 0:
                break
        if t > 0:
            paints.append({"t_ms": t, "kind": "fmp-candidate", "significance": float(entry.get("size") or 0.0)})

    tasks = []
    for entry in sorted(payload.get("longtasks", []), key=lambda e: float(e.get("startTime", 0.0))):
        start = float(entry.get("startTime", 0.0))
        dur = float(entry.get("duration", 0.0))
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
    for entry in payload.get("resources", []):
        end = float(entry.get("responseEnd") or 0.0)
        if end <= 0:
            continue  # still in flight or failed; carries no interval
        discovered = max(0.0, float(entry.get("startTime") or 0.0))
        start = float(entry.get("requestStart") or 0.0)
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
                "bytes": int(entry.get("transferSize") or 0),
                "origin": origin,
            }
        )

    # No pixel data travels over the wire here; approximate visual progress
    # by ramping linearly across the observed render milestones.
    navigation = payload.get("navigation", {}) if isinstance(payload.get("navigation"), dict) else {}
    milestones = {p["t_ms"] for p in paints}
    for key in ("domContentLoaded", "loadEventEnd"):
        t = float(navigation.get(key) or 0.0)
        if t > 0:
            milestones.add(t)
    ordered = sorted(milestones)
    visual = [
        {"t_ms": t, "fraction": (i + 1) / len(ordered)}
        for i, t in enumerate(ordered)
    ]

    document = {
        "nav_start": 0.0,
        "paint_events": paints,
        "tasks": tasks,
        "requests": requests,
        "visual_progress": visual,
    }
    try:
        return NormalizedTrace.from_dict(document)
    except SchemaError as exc:
        raise ConversionError(f"converted entries violate the trace schema: {exc}") from exc


def capture_live(req: CaptureRequest, endpoint: str | None = None) -> NormalizedTrace:
    """Navigate a headless browser to req.url and record a trace.

    The endpoint (host:port of the browser's debugging socket) comes from
    the argument or the AUDIT_BROWSER_ENDPOINT environment variable. The
    trace is returned as recorded; throttling is the caller's step.
    """
    endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise Unreachable(
            f"no browser endpoint configured (pass one or set {ENDPOINT_ENV})"
        )
    deadline = time.monotonic() + req.timeout_ms / 1000.0
    ws_url = _open_target(endpoint, deadline)
    ws = _WebSocket(ws_url, timeout_s=_remaining(deadline))
    try:
        mobile = req.mode.kind == "mobile"
        _rpc(
            ws,
            "Emulation.setDeviceMetricsOverride",
            {
                "width": req.mode.viewport.width_px,
                "height": req.mode.viewport.height_px,
                "deviceScaleFactor": 1,
                "mobile": mobile,
            },
            deadline,
        )
        _rpc(ws, "Page.enable", {}, deadline)
        _rpc(ws, "Page.navigate", {"url": req.url}, deadline)
        while True:
            if time.monotonic() >= deadline:
                raise NavigationTimeout(f"{req.url} did not finish loading within {req.timeout_ms} ms")
            probe = _evaluate(ws, _PROBE_JS, deadline)
            if probe.get("ready") == "complete" and float(probe.get("loadEventEnd") or 0.0) > 0:
                break
            time.sleep(0.1)
        payload = _evaluate(ws, _COLLECT_JS, deadline)
    finally:
        ws.close()
    return trace_from_performance_entries(payload)


_PROBE_JS = """
(() => {
  const nav = performance.getEntriesByType('navigation')[0];
  return JSON.stringify({
    ready: document.readyState,
    loadEventEnd: nav ? nav.loadEventEnd : 0,
  });
})()
"""

_COLLECT_JS = """
(() => {
  const grab = (type) => performance.getEntriesByType(type).map((e) => e.toJSON());
  let longtasks = [];
  try {
    const obs = new PerformanceObserver(() => {});
    obs.observe({type: 'longtask', buffered: true});
    longtasks = obs.takeRecords().map((e) => ({startTime: e.startTime, duration: e.duration}));
    obs.disconnect();
  } catch (err) {}
  const nav = performance.getEntriesByType('navigation')[0] || {};
  return JSON.stringify({
    paint: grab('paint'),
    elements: grab('element'),
    longtasks: longtasks,
    resources: grab('resource'),
    navigation: {
      domContentLoaded: nav.domContentLoadedEventEnd || 0,
      loadEventEnd: nav.loadEventEnd || 0,
    },
  });
})()
"""


def _remaining(deadline: float) -> float:
    return max(0.05, deadline - time.monotonic())


def _open_target(endpoint: str, deadline: float) -> str:
    """Ask the browser's HTTP endpoint for a fresh page target."""
    if "://" in endpoint:
        endpoint = urlsplit(endpoint).netloc
    base = f"http://{endpoint}"
    for method in ("PUT", "GET"):  # newer browsers require PUT, older only GET
        request = urllib.request.Request(f"{base}/json/new?about:blank", method=method)
        try:
            with urllib.request.urlopen(request, timeout=_remaining(deadline)) as response:
                target = json.loads(response.read().decode("utf-8"))
            url = target.get("webSocketDebuggerUrl")
            if not url:
                raise Unreachable(f"{endpoint} returned a target without a debugger socket")
            return url
        except urllib.error.HTTPError:
            continue
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise Unreachable(f"browser endpoint {endpoint} is not reachable: {exc}") from exc
    raise Unreachable(f"browser endpoint {endpoint} rejected target creation")


_rpc_counter = 0


def _rpc(ws: "_WebSocket", method: str, params: dict, deadline: float) -> dict:
    global _rpc_counter
    _rpc_counter += 1
    call_id = _rpc_counter
    ws.send_text(json.dumps({"id": call_id, "method": method, "params": params}))
    while True:
        if time.monotonic() >= deadline:
            raise NavigationTimeout(f"browser did not answer {method} in time")
        message = json.loads(ws.recv_text(_remaining(deadline)))
        if message.get("id") != call_id:
            continue  # unsolicited event traffic
        if "error" in message:
            raise ConversionError(f"{method} failed: {message['error']}")
        return message.get("result", {})


def _evaluate(ws: "_WebSocket", expression: str, deadline: float) -> dict:
    result = _rpc(ws, "Runtime.evaluate", {"expression": expression, "returnByValue": True}, deadline)
    value = result.get("result", {}).get("value")
    if not isinstance(value, str):
        raise ConversionError(f"page evaluation returned no value: {result!r}")
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConversionError(f"page evaluation returned malformed data: {exc}") from exc


def _encode_frame(opcode: int, payload: bytes, mask: bool = True) -> bytes:
    """Encode one websocket frame (FIN set; client frames are masked)."""
    head = bytes([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        head += bytes([mask_bit | length])
    elif length < 1 << 16:
        head += bytes([mask_bit | 126]) + struct.pack(">H", length)
    else:
        head += bytes([mask_bit | 127]) + struct.pack(">Q", length)
    if not mask:
        return head + payload
    key = os.urandom(4)
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return head + key + masked


def _decode_frame(buf: bytes) -> tuple[int, bytes, int] | None:
    """Decode one frame from buf; None while incomplete.

    Returns (opcode, payload, bytes consumed).
    """
    if len(buf) < 2:
        return None
    opcode = buf[0] & 0x0F
    masked = bool(buf[1] & 0x80)
    length = buf[1] & 0x7F
    offset = 2
    if length == 126:
        if len(buf) < 4:
            return None
        (length,) = struct.unpack(">H", buf[2:4])
        offset = 4
    elif length == 127:
        if len(buf) < 10:
            return None
        (length,) = struct.unpack(">Q", buf[2:10])
        offset = 10
    key = b""
    if masked:
        if len(buf) < offset + 4:
            return None
        key = buf[offset : offset + 4]
        offset += 4
    if len(buf) < offset + length:
        return None
    payload = buf[offset : offset + length]
    if masked:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload, offset + length


class _WebSocket:
    """Just enough of a websocket client for local JSON-RPC traffic."""

    def __init__(self, url: str, timeout_s: float):
        parts = urlsplit(url)
        if parts.scheme != "ws":
            raise Unreachable(f"unsupported debugger socket scheme {parts.scheme!r}")
        host = parts.hostname or "127.0.0.1"
        port = parts.port or 80
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_s)
        except OSError as exc:
            raise Unreachable(f"cannot connect to {host}:{port}: {exc}") from exc
        self._buf = b""
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        handshake = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        )
        self._sock.sendall(handshake.encode("ascii"))
        self._read_handshake()

    def _read_handshake(self) -> None:
        while b"\r\n\r\n" not in self._buf:
            chunk = self._recv_chunk()
            if not chunk:
                raise Unreachable("debugger socket closed during handshake")
            self._buf += chunk
        head, self._buf = self._buf.split(b"\r\n\r\n", 1)
        status = head.split(b"\r\n", 1)[0]
        if b"101" not in status:
            raise Unreachable(f"websocket upgrade refused: {status.decode('latin-1')}")

    def _recv_chunk(self) -> bytes:
        try:
            return self._sock.recv(65536)
        except socket.timeout as exc:
            raise NavigationTimeout("debugger socket read timed out") from exc
        except OSError as exc:
            raise Unreachable(f"debugger socket failed: {exc}") from exc

    def send_text(self, payload: str) -> None:
        self._sock.sendall(_encode_frame(0x1, payload.encode("utf-8")))

    def recv_text(self, timeout_s: float) -> str:
        self._sock.settimeout(timeout_s)
        while True:
            frame = _decode_frame(self._buf)
            if frame is None:
                chunk = self._recv_chunk()
                if not chunk:
                    raise Unreachable("debugger socket closed")
                self._buf += chunk
                continue
            opcode, payload, consumed = frame
            self._buf = self._buf[consumed:]
            if opcode == 0x1:
                return payload.decode("utf-8")
            if opcode == 0x9:  # ping
                self._sock.sendall(_encode_frame(0xA, payload))
            elif opcode == 0x8:
                raise Unreachable("debugger socket closed")
            # other frame types carry nothing we need

    def close(self) -> None:
        try:
            self._sock.sendall(_encode_frame(0x8, b""))
        except OSError:
            pass
        self._sock.close()
