"""Stored trace files: the one way into the pipeline.

Every audit reads a stored trace, so every audit is reproducible.
`webaudit.capture` converts the performance entries recorded in a browser
into a trace that `write_trace` stores.
"""

from __future__ import annotations

from pathlib import Path

from .trace import NormalizedTrace, _json_text, _read_json


def load_trace(path: str | Path) -> NormalizedTrace:
    """Read and validate a stored trace file; a file that is not UTF-8 JSON
    is a ParseError naming it."""
    return NormalizedTrace.from_dict(_read_json(path))


def write_trace(trace: NormalizedTrace, path: str | Path) -> None:
    Path(path).write_text(_json_text(trace.to_dict()), "utf-8")
