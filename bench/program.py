"""Locates the webaudit sources of the checkout the benchmark sits in.

The benchmark runs the program from source: ``src/`` next to ``bench/``
goes first on ``sys.path``. Without it the benchmark stops with a non-zero
exit code before printing any result.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def add_program_to_path() -> None:
    if not (SRC / "webaudit" / "__init__.py").is_file():
        sys.exit(f"bench: no webaudit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
