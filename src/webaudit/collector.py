"""Stored trace files: the replay path every audit reads.

Stored trace files make every audit reproducible. Live capture, which
records new ones from a browser, lives in `webaudit.capture`.
"""

from __future__ import annotations

import json
from pathlib import Path

from .trace import NormalizedTrace, _parse_json


def load_trace(path: str | Path) -> NormalizedTrace:
    """Read and validate a stored trace file; a file that is not UTF-8 JSON
    is a ParseError naming it."""
    with open(path, "rb") as handle:
        raw = handle.read()
    return NormalizedTrace.from_dict(_parse_json(raw, path))


def write_trace(trace: NormalizedTrace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
