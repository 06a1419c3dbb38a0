"""Independent reference implementations used to check the real ones.

Each oracle recomputes a quantity by brute force or exact arithmetic,
sharing no code with the package. Slow and simple on purpose. The one
exception is from_dict_fieldwise, which checks the guard in front of the
trace field readers and so calls those readers.

result_to_dict is a result as the object of its results line:
write_results must write the bytes json.dumps writes from it.

A second kind pins bits rather than values: the scoring formulas and the
GPS kernel as first written, with every float and decimal operation in the
order the package must keep (metric_score_per_call, aggregate_per_call,
waterfall_times_minmax).
"""

from __future__ import annotations

import heapq
import math
from decimal import Decimal
from fractions import Fraction
from itertools import groupby
from typing import Sequence

import mpmath
import numpy as np

from webaudit.errors import CyclicPlan, SchemaError, ThrottleOverflow
from webaudit.netsim import ThrottleProfile, _check_finite
from webaudit.trace import (
    PAINT_KINDS,
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
    _FLOAT_MAX,
    _array,
    _integer,
    _number,
    _string,
    clamp_visual_progress,
)

mpmath.mp.dps = 50


def normal_cdf_oracle(z: float) -> float:
    """Standard normal CDF at 50 significant digits."""
    return float(0.5 * (1 + mpmath.erf(mpmath.mpf(z) / mpmath.sqrt(2))))


def z90_oracle() -> float:
    """The 0.9 quantile of the standard normal, via mpmath's inverse erf."""
    return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf("0.9") - 1))


def metric_score_oracle(value_ms: float, median_ms: float, podr_ms: float) -> float:
    """Log-normal curve score recomputed in high precision."""
    if value_ms == 0:
        return 100.0
    mu = mpmath.log(median_ms)
    sigma = (mu - mpmath.log(podr_ms)) / (mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf("0.9") - 1))
    z = (mpmath.log(value_ms) - mu) / sigma
    phi = 0.5 * (1 + mpmath.erf(z / mpmath.sqrt(2)))
    return float(100 * (1 - phi))


def metric_score_per_call(value_ms: float, median_ms: float, podr_ms: float) -> float:
    """metric_score with the curve's mu and sigma derived on every call."""
    if value_ms < 0:
        raise ValueError(f"metric value must be >= 0, got {value_ms!r}")
    if value_ms == 0:
        return 100.0
    mu = math.log(median_ms)
    sigma = (mu - math.log(podr_ms)) / 1.2815515655446004
    z = (math.log(value_ms) - mu) / sigma
    return 100.0 * (1.0 - 0.5 * math.erfc(-z / math.sqrt(2.0)))


def aggregate_per_call(scores: dict[str, float], weights: dict[str, float]) -> float:
    """aggregate with each weight's decimal value read on every call;
    weights maps the metric keys, in scoring order, to their weights."""
    total = Decimal(0)
    for key, weight in weights.items():
        total += Decimal(repr(weight)) * Decimal(repr(float(scores[key])))
    return float(total)


def speed_index_riemann(trace: NormalizedTrace) -> float:
    """Left-endpoint Riemann sum of (1 - completeness) on a 1 ms grid.

    Exact when sample times are integers, since the step function only
    changes value at sample times. Returns None if completeness never
    reaches 1.0.
    """
    times = np.array([s.t_ms for s in trace.visual_progress], dtype=float)
    fractions = np.array([s.fraction for s in trace.visual_progress], dtype=float)
    done = np.nonzero(fractions >= 1.0)[0]
    if done.size == 0:
        return None
    horizon = float(times[done[0]])

    whole = int(math.floor(horizon))
    grid = np.arange(whole, dtype=float)
    # index of the latest sample at or before each grid point; -1 means none
    idx = np.searchsorted(times, grid, side="right") - 1
    vc = np.where(idx >= 0, fractions[np.clip(idx, 0, None)], 0.0)
    area = float(np.sum(1.0 - vc))
    if horizon > whole:
        idx_tail = int(np.searchsorted(times, float(whole), side="right")) - 1
        vc_tail = fractions[idx_tail] if idx_tail >= 0 else 0.0
        area += (horizon - whole) * (1.0 - vc_tail)
    return area


def _violation_cells(trace: NormalizedTrace, horizon: int, consider_network: bool) -> np.ndarray:
    """Boolean per-millisecond cells where the quiet condition fails.

    Cell t covers [t, t+1); requires integer event times to be exact.
    """
    cells = np.zeros(horizon, dtype=bool)
    for task in trace.tasks:
        if task.dur_ms > 50:
            cells[int(task.start_ms) : int(task.end_ms)] = True
    if consider_network:
        inflight = np.zeros(horizon + 1, dtype=int)
        for r in trace.requests:
            if r.end_ms > r.start_ms:
                inflight[int(r.start_ms)] += 1
                inflight[int(r.end_ms)] -= 1
        cells |= np.cumsum(inflight)[:horizon] > 2
    return cells


def quiet_window_scan(trace: NormalizedTrace, fcp: float, consider_network: bool) -> float:
    """Brute-force TTI/FCI: try every integer window start from fcp upward.

    All trace times must be integers. A window of 5000 ms starting at w
    qualifies when every cell in [w, w + 5000) is quiet; the trace is quiet
    past its end, so a qualifying start always exists.
    """
    last = int(max([fcp] + [t.end_ms for t in trace.tasks] + [r.end_ms for r in trace.requests]))
    window = 5000
    cells = _violation_cells(trace, last + window + 1, consider_network)
    bad = np.concatenate(([0], np.cumsum(cells)))

    w = None
    for cand in range(int(fcp), last + 1):
        if bad[cand + window] - bad[cand] == 0:
            w = cand
            break
    if w is None:
        w = last

    ends = [t.end_ms for t in trace.tasks if t.dur_ms > 50 and t.end_ms <= w]
    return float(max(ends + [fcp]))


def max_fid_brute(trace: NormalizedTrace, fcp: float, tti: float) -> float:
    """Longest task whose closed interval touches [fcp, tti]."""
    durations = [t.dur_ms for t in trace.tasks if t.start_ms <= tti and t.end_ms >= fcp]
    return float(max(durations, default=0.0))


def overload_intervals_groupby(requests: Sequence[NetworkRequest], max_inflight: int) -> list[tuple[float, float]]:
    """Intervals with more than max_inflight requests in flight, by sorting
    +1/-1 events on time and merging each run of equal times with groupby.

    Each interval bound is the time of the first event in its run, the
    stable sort keeping request order among equal times.
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


def parent_scan(requests: Sequence[NetworkRequest]) -> list[tuple[int | None, float]]:
    """(parent index, discovery offset) per request, by scanning every pair.

    The parent finished last at or before the discovery, the earliest
    request winning a tie, and precedes the child in (end_ms, index) order.
    """
    plan = []
    for i, req in enumerate(requests):
        parent = None
        best: tuple[float, int] | None = None
        for j, cand in enumerate(requests):
            if cand.end_ms > req.discovered_ms or (cand.end_ms, j) >= (req.end_ms, i):
                continue
            if best is None or (cand.end_ms, -j) > best:
                best = (cand.end_ms, -j)
                parent = j
        plan.append((parent, req.discovered_ms - (0.0 if parent is None else requests[parent].end_ms)))
    return plan


def shift_source_scan(requests: Sequence[NetworkRequest], t_ms: float) -> int | None:
    """Index of the latest request finished at or before t_ms, earliest on a tie."""
    source = None
    for j, req in enumerate(requests):
        if req.end_ms <= t_ms and (source is None or req.end_ms > requests[source].end_ms):
            source = j
    return source


def main_thread_march(
    trace: NormalizedTrace, replayed: Sequence[NetworkRequest], cpu_multiplier: float
) -> list[tuple[Fraction, Fraction]]:
    """(start, dur) of the trace's tasks in exact arithmetic, given its
    requests as replayed (replayed[j] is trace.requests[j] on the new link).

    A task is ready once the request that finished last at or before its
    recorded start (shift_source_scan) has finished on the new link, at its
    recorded offset from that finish; before every finish it is ready at its
    recorded start. The main thread's clock marches through the tasks in
    recorded order: each starts when it is ready or when the clock reaches
    the end of the task before it, whichever is later, and runs
    cpu_multiplier times its recorded duration.
    """
    clock = Fraction(0)
    out = []
    for task in trace.tasks:
        ready = Fraction(task.start_ms)
        j = shift_source_scan(trace.requests, task.start_ms)
        if j is not None:
            ready = Fraction(replayed[j].end_ms) + (ready - Fraction(trace.requests[j].end_ms))
        start = max(ready, clock)
        dur = Fraction(task.dur_ms) * Fraction(cpu_multiplier)
        out.append((start, dur))
        clock = start + dur
    return out


def share_rescan(
    parents: Sequence[int], offsets: Sequence[float], sizes: Sequence[int], profile: ThrottleProfile
) -> tuple[list[float], list[float]]:
    """Fair-share download simulation that tracks each flow's remainder.

    Takes waterfall_times' arrays: request i waits on parents[i] (-1 for
    none), is discovered offsets[i] ms after it and carries sizes[i] bytes.
    On every arrival or completion it drains all flows in flight by their
    equal share and retires those at or below 1e-9 kbit; a turn that lands
    on the next completion also retires every flow at or below the smallest
    remainder. Float arithmetic, O(n) per event. Returns (starts, ends).
    """
    rtt = profile.rtt_ms
    capacity = profile.downlink_kbps
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(parents):
        children.setdefault(parent, []).append(i)

    starts: dict[int, float] = {}
    ends: dict[int, float] = {}
    arrivals: list[tuple[float, int]] = []

    def schedule(i: int, parent_end: float) -> None:
        starts[i] = max(parent_end, 0.0) + offsets[i] + rtt
        heapq.heappush(arrivals, (starts[i], i))

    def finish(i: int, end: float) -> None:
        ends[i] = end
        for child in children.get(i, []):
            schedule(child, end)

    for i in children.get(-1, []):
        schedule(i, 0.0)

    active: dict[int, float] = {}  # index -> kilobits remaining
    now = 0.0
    while arrivals or active:
        t_complete = now + min(active.values()) * len(active) / capacity * 1000.0 if active else math.inf
        t_arrival = arrivals[0][0] if arrivals else math.inf
        t_next = min(t_complete, t_arrival)
        if active and t_next > now:
            drained = capacity / len(active) * (t_next - now) / 1000.0
            for i in active:
                active[i] -= drained
        now = t_next
        done_at = 1e-9
        if active and t_next == t_complete:
            done_at = max(done_at, min(active.values()))
        for i in sorted(i for i, left in active.items() if left <= done_at):
            del active[i]
            finish(i, now)
        while arrivals and arrivals[0][0] <= now:
            _, i = heapq.heappop(arrivals)
            kbits = sizes[i] * 8.0 / 1000.0
            if kbits <= 1e-9:
                finish(i, starts[i])
            else:
                active[i] = kbits

    return [starts[i] for i in range(len(parents))], [ends[i] for i in range(len(parents))]


def waterfall_times_minmax(
    parents: Sequence[int], offsets: Sequence[float], sizes: Sequence[int], profile: ThrottleProfile
) -> tuple[list[float], list[float]]:
    """waterfall_times as first written: each turn takes min() of the next
    completion and arrival and max() for done_at and child starts, and
    counts what it retires. Same arguments, results and exceptions."""
    eps = 1e-9
    n = len(parents)
    rtt = profile.rtt_ms
    capacity = profile.downlink_kbps
    instant = math.isinf(capacity)
    starts = [math.nan] * n
    ends = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    arrivals: list[tuple[float, int]] = []
    for i, parent in enumerate(parents):
        if parent < 0:
            start = 0.0 + offsets[i] + rtt
            starts[i] = start
            arrivals.append((start, i))
        else:
            children[parent].append(i)
    heapq.heapify(arrivals)

    tags: list[tuple[float, int]] = []
    virtual = 0.0
    now = 0.0
    started = 0
    while arrivals or tags:
        in_flight = len(tags)
        t_complete = now + (tags[0][0] - virtual) * in_flight / capacity * 1000.0 if tags else math.inf
        t_arrival = arrivals[0][0] if arrivals else math.inf
        t_next = min(t_complete, t_arrival)
        if tags and t_next > now:
            virtual += capacity / in_flight * (t_next - now) / 1000.0
        now = t_next
        done_at = virtual + eps
        if tags and t_next == t_complete:
            done_at = max(done_at, tags[0][0])
        retired = 0
        while tags and tags[0][0] <= done_at:
            i = heapq.heappop(tags)[1]
            ends[i] = now
            for child in children[i]:
                start = max(now, 0.0) + offsets[child] + rtt
                starts[child] = start
                heapq.heappush(arrivals, (start, child))
            retired += 1
        if not tags:
            virtual = 0.0
        while arrivals and arrivals[0][0] <= now:
            start, i = heapq.heappop(arrivals)
            kbits = sizes[i] * 8.0 / 1000.0
            if instant or kbits <= eps:
                ends[i] = start
                for child in children[i]:
                    child_start = max(start, 0.0) + offsets[child] + rtt
                    starts[child] = child_start
                    heapq.heappush(arrivals, (child_start, child))
            else:
                heapq.heappush(tags, (virtual + kbits, i))
            retired += 1
            started += 1
        if not retired:
            raise ThrottleOverflow(f"downlink simulation stalled at {now!r} ms with {in_flight} transfers in flight")
    if started < n:
        raise CyclicPlan(next(i for i, start in enumerate(starts) if math.isnan(start)))
    _check_finite(ends)
    return starts, ends


def waterfall_march(
    parents: Sequence[int], offsets: Sequence[float], sizes: Sequence[int], profile: ThrottleProfile
) -> tuple[list[float], list[float]]:
    """Time-marched fair-share download simulation in exact arithmetic.

    Takes waterfall_times' arrays. Advances at most 1 ms at a time, but
    lands exactly on every arrival and completion, so the Fraction
    bookkeeping never rounds. Returns (starts, ends).
    """
    rtt = Fraction(profile.rtt_ms)
    capacity = profile.downlink_kbps  # may be inf
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(parents):
        children.setdefault(parent, []).append(i)

    arrivals: list[tuple[Fraction, int]] = []
    for i in children.get(-1, []):
        heapq.heappush(arrivals, (Fraction(offsets[i]) + rtt, i))

    started: dict[int, Fraction] = {}
    finished: dict[int, Fraction] = {}
    remaining: dict[int, Fraction] = {}
    now = Fraction(0)

    def finish(i: int, t: Fraction) -> None:
        finished[i] = t
        for child in children.get(i, []):
            heapq.heappush(arrivals, (t + Fraction(offsets[child]) + rtt, child))

    while arrivals or remaining:
        candidates = [now + 1]
        if arrivals:
            candidates.append(arrivals[0][0])
        if remaining and not math.isinf(capacity):
            # capacity is kilobits per second; the clock runs in milliseconds
            share = Fraction(capacity) / len(remaining) / 1000
            candidates.append(now + min(remaining.values()) / share)
        step_to = min(t for t in candidates if t >= now)

        if remaining and not math.isinf(capacity) and step_to > now:
            drained = (Fraction(capacity) / len(remaining) / 1000) * (step_to - now)
            for i in remaining:
                remaining[i] -= drained
        now = step_to

        for i in [i for i, rem in remaining.items() if rem <= 0]:
            del remaining[i]
            finish(i, now)
        while arrivals and arrivals[0][0] <= now:
            _, i = heapq.heappop(arrivals)
            started[i] = now
            kbits = Fraction(sizes[i] * 8, 1000)
            if kbits == 0 or math.isinf(capacity):
                finish(i, now)
            else:
                remaining[i] = kbits

    return [float(started[i]) for i in range(len(parents))], [float(finished[i]) for i in range(len(parents))]


def from_dict_fieldwise(data) -> NormalizedTrace:
    """NormalizedTrace.from_dict read one field at a time, with no guard.

    It shares the field readers with the package, so it checks the guard
    in front of them: a document must give an equal trace, or the same
    SchemaError at the same path, either way.
    """
    if not isinstance(data, dict):
        raise SchemaError("$", "trace document must be an object")

    if _number(data, "nav_start", "$") != 0:
        raise SchemaError("$.nav_start", "must be 0 (all times are relative to it)")

    paints = []
    for i, item in enumerate(_array(data, "paint_events", "$")):
        path = f"$.paint_events[{i}]"
        t = _number(item, "t_ms", path, minimum=0.0)
        kind = _string(item, "kind", path, choices=PAINT_KINDS)
        significance = None
        if kind == "fmp-candidate":
            significance = _number(item, "significance", path, minimum=0.0)
        paints.append(PaintEvent(t, kind, significance))

    tasks = []
    prev_end = None
    for i, item in enumerate(_array(data, "tasks", "$")):
        path = f"$.tasks[{i}]"
        start = _number(item, "start_ms", path, minimum=0.0)
        dur = _number(item, "dur_ms", path)
        if dur <= 0:
            raise SchemaError(f"{path}.dur_ms", "must be > 0")
        if prev_end is not None and start < prev_end:
            raise SchemaError(path, "tasks must be sorted by start_ms and non-overlapping")
        prev_end = start + dur
        if prev_end > _FLOAT_MAX:
            raise SchemaError(f"{path}.dur_ms", "start_ms + dur_ms must be within float range")
        tasks.append(MainThreadTask(start, dur))

    requests = []
    for i, item in enumerate(_array(data, "requests", "$")):
        path = f"$.requests[{i}]"
        discovered = _number(item, "discovered_ms", path, minimum=0.0)
        start = _number(item, "start_ms", path, minimum=0.0)
        end = _number(item, "end_ms", path, minimum=0.0)
        if not discovered <= start <= end:
            raise SchemaError(path, "must satisfy discovered_ms <= start_ms <= end_ms")
        nbytes = _integer(item, "bytes", path, minimum=0)
        origin = _string(item, "origin", path)
        requests.append(NetworkRequest(discovered, start, end, nbytes, origin))

    samples = []
    prev_t = None
    for i, item in enumerate(_array(data, "visual_progress", "$")):
        path = f"$.visual_progress[{i}]"
        t = _number(item, "t_ms", path, minimum=0.0)
        fraction = _number(item, "fraction", path)
        if not 0.0 <= fraction <= 1.0:
            raise SchemaError(f"{path}.fraction", "must be within [0, 1]")
        if prev_t is not None and t < prev_t:
            raise SchemaError(f"{path}.t_ms", "visual_progress must be sorted by t_ms")
        prev_t = t
        samples.append(VisualSample(t, fraction))

    return NormalizedTrace(
        paint_events=tuple(paints),
        tasks=tuple(tasks),
        requests=tuple(requests),
        visual_progress=clamp_visual_progress(samples),
    )


def result_to_dict(result) -> dict:
    """A result as the JSON object of its results line, for
    json.dumps(..., sort_keys=True, separators=(",", ":"))."""
    ok = result.status == "ok"
    return {
        "site": result.site._asdict(),
        "mode": result.mode,
        "status": result.status,
        "failure_reason": result.failure_reason,
        "metrics": result.metrics._asdict() if ok else None,
        "scores": result.report.scores._asdict() if ok else None,
        "performance_score": result.report.performance_score if ok else None,
        "category": result.report.category if ok else None,
        "test_date": result.test_date.isoformat(),
        "outlier_flag": result.outlier_flag,
    }
