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
    """Read and validate a stored trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return NormalizedTrace.from_dict(data)


def write_trace(trace: NormalizedTrace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
