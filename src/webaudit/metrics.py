"""Six page-load metrics computed from a normalized trace.

All six are pure functions of the trace: first contentful paint, first
meaningful paint, speed index, time to interactive, first CPU idle, and max
potential first-input delay. Interactivity metrics use a quiet-window search:
the page counts as interactive once a window of ``window_ms`` after FCP is
free of long tasks (and, for TTI, of heavy network activity).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .errors import IncompleteVisualProgress, NoContentfulPaint
from .trace import MainThreadTask, NetworkRequest, NormalizedTrace


@dataclass(frozen=True)
class QuietWindow:
    """Quiet-window parameters for the interactivity metrics.

    A task is "long" when its duration strictly exceeds ``long_task_ms``.
    The network is quiet while at most ``max_inflight_requests`` requests
    are in flight.
    """

    long_task_ms: float = 50.0
    window_ms: float = 5000.0
    max_inflight_requests: int = 2

    def __post_init__(self):
        if self.long_task_ms < 0:
            raise ValueError(f"long_task_ms must be >= 0, got {self.long_task_ms!r}")
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {self.window_ms!r}")
        if self.max_inflight_requests < 0:
            raise ValueError(f"max_inflight_requests must be >= 0, got {self.max_inflight_requests!r}")


DEFAULT_QUIET_WINDOW = QuietWindow()

METRIC_KEYS = ("fcp", "fmp", "si", "tti", "fci", "max_fid")


@dataclass(frozen=True)
class MetricSet:
    """The six metric values, in milliseconds, for one audit."""

    fcp_ms: float
    fmp_ms: float
    speed_index_ms: float
    tti_ms: float
    fci_ms: float
    max_fid_ms: float

    def as_dict(self) -> dict[str, float]:
        """Values keyed by the short metric keys used for scoring."""
        return {
            "fcp": self.fcp_ms,
            "fmp": self.fmp_ms,
            "si": self.speed_index_ms,
            "tti": self.tti_ms,
            "fci": self.fci_ms,
            "max_fid": self.max_fid_ms,
        }


def compute_fcp(trace: NormalizedTrace) -> float:
    """Earliest contentful-paint event; raises NoContentfulPaint if none."""
    times = [p.t_ms for p in trace.paint_events if p.kind == "contentful-paint"]
    if not times:
        raise NoContentfulPaint("trace has no contentful-paint event")
    return min(times)


def compute_fmp(trace: NormalizedTrace, fcp: float | None = None) -> float:
    """Meaningful-paint moment: the candidate with maximum significance.

    Ties break to the earliest candidate. Without candidates the metric
    falls back to FCP; either way the result is clamped to >= FCP.
    """
    if fcp is None:
        fcp = compute_fcp(trace)
    candidates = [p for p in trace.paint_events if p.kind == "fmp-candidate"]
    if not candidates:
        return fcp
    best = max(candidates, key=lambda p: (p.significance, -p.t_ms))
    return max(best.t_ms, fcp)


def compute_speed_index(trace: NormalizedTrace) -> float:
    """Integral of visual incompleteness until the page is fully painted.

    Visual completeness is the step function through the samples (0 before
    the first one); the integral runs from 0 to the first time completeness
    reaches 1.0. Raises IncompleteVisualProgress when it never does.
    """
    area = 0.0
    prev_t = 0.0
    prev_fraction = 0.0
    for sample in trace.visual_progress:
        area += (sample.t_ms - prev_t) * (1.0 - prev_fraction)
        prev_t = sample.t_ms
        prev_fraction = sample.fraction
        if sample.fraction >= 1.0:
            return area
    raise IncompleteVisualProgress("visual progress never reached 1.0")


def compute_tti(trace: NormalizedTrace, fcp: float, quiet: QuietWindow = DEFAULT_QUIET_WINDOW) -> float:
    """Time to interactive under the quiet-window rule.

    Finds the earliest window start w >= fcp whose [w, w + window_ms) holds
    no part of any long task and never has more than the allowed number of
    requests in flight, then returns the end of the last long task ending at
    or before w (at least fcp). Traces are treated as quiet past their end,
    so a window always exists.
    """
    blockers = _long_task_intervals(trace.tasks, quiet.long_task_ms)
    blockers += _overload_intervals(trace.requests, quiet.max_inflight_requests)
    w = _earliest_quiet_start(blockers, fcp, quiet.window_ms)
    return _last_long_task_end(trace.tasks, quiet.long_task_ms, w, fcp)


def compute_fci(trace: NormalizedTrace, fcp: float, quiet: QuietWindow = DEFAULT_QUIET_WINDOW) -> float:
    """First CPU idle: like TTI but ignoring network activity entirely."""
    blockers = _long_task_intervals(trace.tasks, quiet.long_task_ms)
    w = _earliest_quiet_start(blockers, fcp, quiet.window_ms)
    return _last_long_task_end(trace.tasks, quiet.long_task_ms, w, fcp)


def compute_max_fid(trace: NormalizedTrace, fcp: float, tti: float) -> float:
    """Longest task overlapping [fcp, tti]; 0.0 when no task overlaps."""
    best = 0.0
    for task in trace.tasks:
        if task.start_ms <= tti and task.end_ms >= fcp:
            best = max(best, task.dur_ms)
    return best


def compute_all(trace: NormalizedTrace, quiet: QuietWindow = DEFAULT_QUIET_WINDOW) -> MetricSet:
    """All six metrics in dependency order."""
    fcp = compute_fcp(trace)
    fmp = compute_fmp(trace, fcp)
    speed_index = compute_speed_index(trace)
    tti = compute_tti(trace, fcp, quiet)
    fci = compute_fci(trace, fcp, quiet)
    max_fid = compute_max_fid(trace, fcp, tti)
    return MetricSet(fcp, fmp, speed_index, tti, fci, max_fid)


def _long_task_intervals(tasks: Sequence[MainThreadTask], long_task_ms: float) -> list[tuple[float, float]]:
    return [(t.start_ms, t.end_ms) for t in tasks if t.dur_ms > long_task_ms]


def _overload_intervals(requests: Sequence[NetworkRequest], max_inflight: int) -> list[tuple[float, float]]:
    """Half-open intervals during which more than max_inflight requests are in flight.

    A request is in flight over [start_ms, end_ms). Events at equal times are
    merged so that a request ending exactly when another starts does not
    produce a spurious overload.
    """
    events = []
    for r in requests:
        if r.end_ms > r.start_ms:
            events.append((r.start_ms, 1))
            events.append((r.end_ms, -1))
    events.sort(key=lambda e: e[0])

    out = []
    count = 0
    over_since = None
    for t, grouped in groupby(events, key=lambda e: e[0]):
        count += sum(delta for _, delta in grouped)
        if count > max_inflight and over_since is None:
            over_since = t
        elif count <= max_inflight and over_since is not None:
            out.append((over_since, t))
            over_since = None
    return out


def _earliest_quiet_start(blockers: Iterable[tuple[float, float]], origin: float, window_ms: float) -> float:
    """Earliest w >= origin with no blocker intersecting [w, w + window_ms).

    A single pass over start-sorted blockers suffices: once w advances past a
    blocker, no earlier-starting blocker can intersect the shifted window.
    """
    w = origin
    for start, end in sorted(blockers):
        if start < w + window_ms and end > w:
            w = end
    return w


def _last_long_task_end(
    tasks: Sequence[MainThreadTask], long_task_ms: float, w: float, fcp: float
) -> float:
    ends = [t.end_ms for t in tasks if t.dur_ms > long_task_ms and t.end_ms <= w]
    # Clamped to fcp so the fcp <= fci <= tti ordering always holds.
    return max(ends + [fcp])
