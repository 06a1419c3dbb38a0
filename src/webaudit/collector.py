"""Stored trace files: the replay path every audit reads.

Stored trace files make every audit reproducible. Live capture, which
records new ones from a browser, lives in `webaudit.capture`.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError
from .trace import NormalizedTrace


def load_trace(path: str | Path) -> NormalizedTrace:
    """Read and validate a stored trace file; a file that is not UTF-8 JSON
    is a ParseError naming it."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return NormalizedTrace.from_dict(data)


def write_trace(trace: NormalizedTrace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
