"""A fixed piece of interpreter work that measures the machine, not the program.

The reference machine is a 2-vCPU VM on a shared host. Contention from
other tenants slows all code alike, by up to 2x, coming and going within
a second at a level that drifts over minutes. So every round's timings
are divided by the mean time of passes of this loop made during the round
and multiplied by ``REFERENCE_S``: a timing reads as seconds on a machine
that runs the loop in ``REFERENCE_S``. The loop does the kind of work the
program does (JSON parsing, frozen dataclasses, sorting, float and dict
work) and uses only the standard library, so no change to the program
changes it.
"""

from __future__ import annotations

import gc
import json
import math
import random
from dataclasses import dataclass
from time import perf_counter

# The loop's fastest time on an idle core of the reference machine
# (Python 3.11, 2 vCPUs); a fixed scale, not a setting.
REFERENCE_S = 0.010

_rng = random.Random(0)
_DOCUMENT = json.dumps(
    [
        {
            "a": _rng.random() * 1000,
            "b": _rng.random() * 5000,
            "c": _rng.randint(100, 90000),
            "o": f"https://h{_rng.randint(0, 40)}.example",
        }
        for _ in range(4000)
    ]
)


@dataclass(frozen=True)
class _Row:
    a: float
    b: float
    c: int
    o: str


def reference_seconds(repeats: int = 3) -> float:
    """The fastest of repeats passes of the loop, in seconds.

    The cyclic garbage collector is off meanwhile, so the size of the
    program's heap in the same process cannot slow the loop.
    """
    best = math.inf
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = perf_counter()
            rows = [_Row(float(d["a"]), float(d["b"]), int(d["c"]), str(d["o"])) for d in json.loads(_DOCUMENT)]
            rows.sort(key=lambda r: (r.b, r.a))
            totals: dict[str, float] = {}
            for r in rows:
                totals[r.o] = totals.get(r.o, 0.0) + math.log1p(r.c) * (r.b - r.a)
            json.dumps(sorted(totals.items()))
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best
