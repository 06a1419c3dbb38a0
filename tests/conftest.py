"""Shared fixtures and randomized generators.

Generators emit integer-millisecond times so the 1 ms grid oracles in
oracles.py are exact, and take an explicit random.Random so every test run
is reproducible from its seed.
"""

from __future__ import annotations

import csv
import io
import os
import random
import signal
from datetime import date

# numpy, which oracles.py imports, would otherwise start a BLAS thread per
# CPU, and run_batch never forks in a process with a second thread; the
# oracles do no BLAS work that a second thread would speed up.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest

from webaudit.config import Calibration, load_calibration
from webaudit.errors import ParseError
from webaudit.netsim import ThrottleProfile
from webaudit.trace import (
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
    clamp_visual_progress,
)
from webaudit.report import REPORT_COLUMNS

# filled by the acceptance tests; echoed after the run so the verdict per
# criterion survives output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus: int, config) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def call_within(seconds: float, fn, *args, **kwargs):
    """fn(*args, **kwargs), failing the test once it has run for ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"{fn.__name__} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_trace(rng: random.Random) -> NormalizedTrace:
    """A small valid trace: integer times, guaranteed FCP and full paint."""
    fcp = rng.randint(0, 2000)
    paints = [PaintEvent(float(fcp), "contentful-paint")]
    if rng.random() < 0.5:
        paints.insert(0, PaintEvent(float(rng.randint(0, fcp)), "first-paint"))
    for _ in range(rng.randint(0, 3)):
        paints.append(
            PaintEvent(
                float(rng.randint(fcp, fcp + 4000)),
                "fmp-candidate",
                significance=float(rng.randint(0, 40)),
            )
        )

    tasks = []
    cursor = rng.randint(0, 500)
    for _ in range(rng.randint(0, 10)):
        start = cursor + rng.randint(0, 1500)
        # mix of short tasks, exactly-50 edge cases, and long tasks
        dur = rng.choice((rng.randint(1, 49), 50, rng.randint(51, 400)))
        tasks.append(MainThreadTask(float(start), float(dur)))
        cursor = start + dur

    requests = []
    for _ in range(rng.randint(0, 6)):
        discovered = rng.randint(0, 4000)
        start = discovered + rng.randint(0, 400)
        end = start + rng.randint(0, 3000)  # zero-length allowed
        requests.append(
            NetworkRequest(float(discovered), float(start), float(end), rng.randint(0, 200000), "https://x.test")
        )

    n_samples = rng.randint(1, 50)
    times = sorted(rng.sample(range(0, 12001), n_samples))
    fractions = sorted(round(rng.random(), 3) for _ in range(n_samples))
    fractions[-1] = 1.0
    visual = clamp_visual_progress(
        VisualSample(float(t), f) for t, f in zip(times, fractions)
    )

    return NormalizedTrace(
        paint_events=tuple(sorted(paints, key=lambda p: p.t_ms)),
        tasks=tuple(tasks),
        requests=tuple(requests),
        visual_progress=visual,
    )


def random_plan(rng: random.Random) -> tuple[list[int], list[float], list[int]]:
    """(parents, offsets, sizes) of up to 5 requests; parents precede children."""
    n = rng.randint(1, 5)
    parents, offsets, sizes = [], [], []
    for i in range(n):
        parents.append(-1 if i == 0 or rng.random() < 0.4 else rng.randrange(i))
        offsets.append(float(rng.randint(0, 800)))
        sizes.append(rng.choice((0, rng.randint(1, 400000))))
    return parents, offsets, sizes


def random_profile(rng: random.Random) -> ThrottleProfile:
    downlink = rng.choice((float("inf"), float(rng.randint(200, 20000))))
    return ThrottleProfile(
        rtt_ms=float(rng.randint(0, 400)),
        downlink_kbps=downlink,
        cpu_multiplier=1.0,
    )


NOT_UTF8_CORPUS_ERROR = "line 754: 'utf-8' codec can't decode byte 0xff in position 44828: invalid start byte"


def write_not_utf8_corpus(path) -> None:
    """A 1000-row corpus whose byte 44828, on line 754, is not UTF-8: far past
    the first chunk a text stream decodes, whose own position an error from
    the stream would give."""
    rows = [f"{n},Diskominfo {n},provinsi,Kota Bandung,https://s{n}.go.id\n" for n in range(1, 1001)]
    data = bytearray(("no,institution,tier,region,url\n" + "".join(rows)).encode("utf-8"))
    data[44828] = 0xFF
    path.write_bytes(data)


def parse_report_csv(text: str) -> list[dict]:
    """Parse a CSV report back into its row values.

    Returns dicts with region, mean_mobile, mean_web, test_date; the
    inverse of the projection _emit_csv applies to the aggregates.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ParseError("empty report") from None
    if header != REPORT_COLUMNS:
        raise ParseError(f"unexpected header {header!r}")
    rows = []
    for row in reader:
        if not row:
            continue
        rows.append(
            {
                "region": row[1],
                "mean_mobile": float(row[2]) if row[2] else None,
                "mean_web": float(row[3]) if row[3] else None,
                "test_date": date.fromisoformat(row[4]) if row[4] else None,
            }
        )
    return rows


# Reference per-region mean scores (mobile, web) for the 12 member regions,
# in member-list order. The report pipeline must reproduce their overall
# averages of 38.7 and 63.6 at 1-decimal rounding.
REFERENCE_REGION_MEANS = (
    ("Web SKPD Provinsi", 26.98, 47.51),
    ("Kab. Bogor", 11.94, 40.28),
    ("Kab. Bandung", 53.10, 72.21),
    ("Kab. Indramayu", 48.42, 76.77),
    ("Kota Bogor", 32.83, 76.33),
    ("Kota Bandung", 84.61, 98.68),
    ("Kota Bekasi", 22.79, 47.62),
    ("Kota Cimahi", 65.20, 79.70),
    ("Kota Depok", 46.90, 74.50),
    ("Kota Sukabumi", 40.86, 83.00),
    ("Kota Cirebon", 29.62, 64.46),
    ("Kab. Cirebon", 1.40, 1.81),
)


@pytest.fixture(scope="session")
def calibration() -> Calibration:
    """The packaged calibration: the quiet window, weights and bands the pipeline uses."""
    return load_calibration()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA0D17)


@pytest.fixture
def simple_trace() -> NormalizedTrace:
    """Hand-checkable trace used by several unit tests.

    fcp=800, fmp=1500, si = 800*1 + 700*0.6 + 1200*0.2 = 1460,
    one long task [900, 1100) so tti=fci=1100, max_fid=200.
    """
    return NormalizedTrace(
        paint_events=(
            PaintEvent(300.0, "first-paint"),
            PaintEvent(800.0, "contentful-paint"),
            PaintEvent(1500.0, "fmp-candidate", significance=9.0),
            PaintEvent(1200.0, "fmp-candidate", significance=4.0),
        ),
        tasks=(
            MainThreadTask(100.0, 40.0),
            MainThreadTask(900.0, 200.0),
        ),
        requests=(
            NetworkRequest(0.0, 10.0, 700.0, 52000, "https://a.test"),
            NetworkRequest(700.0, 720.0, 1300.0, 18000, "https://a.test"),
        ),
        visual_progress=(
            VisualSample(800.0, 0.4),
            VisualSample(1500.0, 0.8),
            VisualSample(2700.0, 1.0),
        ),
    )
