"""Six page-load metrics computed from a normalized trace.

All six are pure functions of the trace: first contentful paint, first
meaningful paint, speed index, time to interactive, first CPU idle, and max
potential first-input delay. Interactivity metrics use a quiet-window search:
the page counts as interactive once a window of ``window_ms`` after FCP is
free of long tasks (and, for TTI, of heavy network activity).

``link_metrics`` computes what every device mode on one link shares, and
``mode_metrics`` adds what one mode's main-thread tasks decide.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from .errors import IncompleteVisualProgress, NoContentfulPaint
from .trace import MainThreadTask, NetworkRequest, NormalizedTrace, _checked_record

_START_MS = operator.attrgetter("start_ms")
_END_MS = operator.attrgetter("end_ms")

# What a trace's link alone fixes: FCP, FMP, speed index and TTI's network blockers.
LinkMetrics = tuple[float, float, float, list[tuple[float, float]]]


@_checked_record
class QuietWindow(NamedTuple):
    """Quiet-window parameters for the interactivity metrics.

    A task is "long" when its duration strictly exceeds ``long_task_ms``.
    The network is quiet while at most ``max_inflight_requests`` requests
    are in flight.
    """

    long_task_ms: float
    window_ms: float
    max_inflight_requests: int

    def _check(self):
        if self.long_task_ms < 0:
            raise ValueError(f"long_task_ms must be >= 0, got {self.long_task_ms!r}")
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {self.window_ms!r}")
        if self.max_inflight_requests < 0:
            raise ValueError(f"max_inflight_requests must be >= 0, got {self.max_inflight_requests!r}")


class MetricSet(NamedTuple):
    """The six metric values of one audit, in milliseconds, named by their scoring keys."""

    fcp: float
    fmp: float
    si: float
    tti: float
    fci: float
    max_fid: float

    def as_dict(self) -> dict[str, float]:
        return self._asdict()


METRIC_KEYS = MetricSet._fields


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
    for t_ms, fraction in trace.visual_progress:
        area += (t_ms - prev_t) * (1.0 - prev_fraction)
        prev_t = t_ms
        prev_fraction = fraction
        if fraction >= 1.0:
            return area
    raise IncompleteVisualProgress("visual progress never reached 1.0")


def compute_tti(trace: NormalizedTrace, fcp: float, quiet: QuietWindow) -> float:
    """Time to interactive under the quiet-window rule.

    Finds the earliest window start w >= fcp whose [w, w + window_ms) holds
    no part of any long task and never has more than the allowed number of
    requests in flight, then returns the end of the last long task ending at
    or before w (at least fcp). Traces are treated as quiet past their end,
    so a window always exists.
    """
    overloads = _overload_intervals(trace.requests, quiet.max_inflight_requests)
    return _tti(_long_task_intervals(trace.tasks, quiet.long_task_ms), overloads, fcp, quiet)


def compute_fci(trace: NormalizedTrace, fcp: float, quiet: QuietWindow) -> float:
    """First CPU idle: like TTI but ignoring network activity entirely."""
    return _tti(_long_task_intervals(trace.tasks, quiet.long_task_ms), [], fcp, quiet)


def _tti(
    long_tasks: list[tuple[float, float]], overloads: list[tuple[float, float]], fcp: float, quiet: QuietWindow
) -> float:
    """The quiet-window rule over the long tasks and network blockers; FCI is it with no blockers."""
    w = _earliest_quiet_start(long_tasks + overloads, fcp, quiet.window_ms)
    return _last_long_task_end(long_tasks, w, fcp)


def compute_max_fid(trace: NormalizedTrace, fcp: float, tti: float) -> float:
    """Longest task overlapping [fcp, tti]; 0.0 when no task overlaps."""
    best = 0.0
    for start, dur in trace.tasks:
        if start <= tti and start + dur >= fcp:
            best = max(best, dur)
    return best


def link_metrics(trace: NormalizedTrace, quiet: QuietWindow) -> LinkMetrics:
    """The metrics the tasks do not move: (fcp, fmp, si, overload intervals).

    Every mode replayed on one link shares them.
    """
    fcp = compute_fcp(trace)
    fmp = compute_fmp(trace, fcp)
    speed_index = compute_speed_index(trace)
    return fcp, fmp, speed_index, _overload_intervals(trace.requests, quiet.max_inflight_requests)


def mode_metrics(link: LinkMetrics, trace: NormalizedTrace, quiet: QuietWindow) -> MetricSet:
    """All six metrics from a link's metrics and the tasks of one mode's trace on that link."""
    fcp, fmp, speed_index, overloads = link
    # TTI and FCI share the long tasks.
    long_tasks = _long_task_intervals(trace.tasks, quiet.long_task_ms)
    tti = _tti(long_tasks, overloads, fcp, quiet)
    fci = _tti(long_tasks, [], fcp, quiet)
    return MetricSet(fcp, fmp, speed_index, tti, fci, compute_max_fid(trace, fcp, tti))


def compute_all(trace: NormalizedTrace, quiet: QuietWindow | None = None) -> MetricSet:
    """All six metrics in dependency order; ``quiet`` defaults to the packaged calibration's."""
    if quiet is None:
        from .config import load_calibration  # config imports this module

        quiet = load_calibration().quiet_window
    return mode_metrics(link_metrics(trace, quiet), trace, quiet)


def _long_task_intervals(tasks: Sequence[MainThreadTask], long_task_ms: float) -> list[tuple[float, float]]:
    return [(start, start + dur) for start, dur in tasks if dur > long_task_ms]


def _overload_intervals(requests: Sequence[NetworkRequest], max_inflight: int) -> list[tuple[float, float]]:
    """Half-open intervals during which more than max_inflight requests are in flight.

    A request is in flight over [start_ms, end_ms), and start_ms <= end_ms
    (the trace schema's rule). With S the sorted starts, E the sorted ends
    and k = max_inflight, the count in flight at t is
    #{S <= t} - #{E <= t}, which exceeds k exactly on the union of the
    pieces [S[k+m], E[m]). Both bounds ascend with m, so consecutive pieces
    merge unless one starts strictly after the previous one ends: a request
    ending exactly when another starts leaves no gap, and a zero-length
    request adds as much to S as to E. Each run of merged pieces is one
    interval, kept when it is not empty.
    """
    lows = sorted(map(_START_MS, requests))[max_inflight:]  # piece m is [lows[m], ends[m])
    if not lows:
        return []
    ends = sorted(map(_END_MS, requests))
    tail = lows[1:]
    gaps = list(map(operator.gt, tail, ends))  # gaps[m]: piece m+1 starts after piece m ends
    firsts = [lows[0], *compress(tail, gaps)]
    lasts = [*compress(ends, gaps), ends[len(tail)]]
    return list(compress(zip(firsts, lasts), map(operator.lt, firsts, lasts)))


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


def _last_long_task_end(long_tasks: Sequence[tuple[float, float]], w: float, fcp: float) -> float:
    ends = [end for _, end in long_tasks if end <= w]
    # Clamped to fcp so the fcp <= fci <= tti ordering always holds.
    return max(ends + [fcp])
