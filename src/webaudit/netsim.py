"""Network waterfall simulation for throttled replay.

The downlink is modeled as a single shared pipe split equally among all
requests in flight (processor sharing), simulated with a GPS virtual
clock and a heap of finish tags, O(log n) per arrival or completion. A
request becomes visible some fixed offset after its parent finishes,
then spends one round trip before its first byte arrives.

Applying a throttle to a recorded trace runs in two stages, each a trace
to a trace. The link stage (replay_link) rebuilds the request waterfall
under these rules and moves paints, visual samples and tasks with the
requests that preceded them; it reads only the link, so modes share it.
The mode stage (replay_mode) stretches the tasks by the CPU multiplier.
Both run the main thread one task at a time. Each stage returns its
input when its part of the profile changes nothing.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from typing import Any, NamedTuple, Sequence

from .errors import CyclicPlan, SchemaError, ThrottleOverflow
from .trace import (
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
    _checked_record,
    _integer,
    _known_keys,
    _number,
    _string,
    clamp_visual_progress,
    records,
)

_T_MS = operator.itemgetter(0)  # a paint's or visual sample's time

# A transfer counts as finished once the virtual clock is this close to its
# finish tag; soaks up float drift from summing the clock's advances.
_COMPLETION_EPS_KBITS = 1e-9


@_checked_record
class ThrottleProfile(NamedTuple):
    """Fully resolved throttling parameters (no deferred fields)."""

    rtt_ms: float
    downlink_kbps: float
    cpu_multiplier: float = 1.0

    # Each check is written so that NaN fails it.
    def _check(self):
        if not 0 <= self.rtt_ms < math.inf:
            raise ValueError(f"rtt_ms must be finite and >= 0, got {self.rtt_ms!r}")
        if not self.downlink_kbps > 0:
            raise ValueError(f"downlink_kbps must be > 0, got {self.downlink_kbps!r}")
        if not self.cpu_multiplier >= 1:
            raise ValueError(f"cpu_multiplier must be >= 1, got {self.cpu_multiplier!r}")


UNTHROTTLED = ThrottleProfile(rtt_ms=0.0, downlink_kbps=math.inf, cpu_multiplier=1.0)


def plan_from_dict(data: Any) -> tuple[list[str], list[int], list[float], list[int]]:
    """Read a plan document into waterfall_times' arrays: (ids, parents, offsets, sizes).

    A plan is a list of requests, or {"requests": [...]}, each with a string
    id and an optional parent_id (a string or null), discovery_offset_ms
    (>= 0, counted from the parent's completion or from navigation start)
    and bytes (an integer >= 0). Requests are numbered in id order, so
    simultaneous events are taken in id order. A bad value or another key
    is a SchemaError at its JSON path, a duplicate id or an unknown parent
    one at $.requests. Cycles are left to waterfall_times.
    """
    if isinstance(data, dict):
        _known_keys(data, ("requests",), "$")
        data = data.get("requests")
    if not isinstance(data, list):
        raise SchemaError("$", "plan must be a list of requests or {\"requests\": [...]}")
    rows = []
    for i, item in enumerate(data):
        where = f"$.requests[{i}]"
        rid = _string(item, "id", where)
        _known_keys(item, ("id", "parent_id", "discovery_offset_ms", "bytes"), where)
        offset = _number(item, "discovery_offset_ms", where, minimum=0.0, default=0.0)
        nbytes = _integer(item, "bytes", where, minimum=0, default=0)
        rows.append((rid, _string(item, "parent_id", where, default=None), offset, nbytes))
    seen: set[str] = set()
    for rid, _, _, _ in rows:
        if rid in seen:
            raise SchemaError("$.requests", f"duplicate request id {rid!r}")
        seen.add(rid)
    for rid, parent_id, _, _ in rows:
        if parent_id is not None and parent_id not in seen:
            raise SchemaError("$.requests", f"request {rid!r} references unknown parent {parent_id!r}")
    rows.sort(key=lambda row: row[0])
    index = {row[0]: i for i, row in enumerate(rows)}
    return (
        [rid for rid, _, _, _ in rows],
        [-1 if parent_id is None else index[parent_id] for _, parent_id, _, _ in rows],
        [offset for _, _, offset, _ in rows],
        [nbytes for _, _, _, nbytes in rows],
    )


def waterfall_times(
    parents: Sequence[int], offsets: Sequence[float], sizes: Sequence[int], profile: ThrottleProfile
) -> tuple[list[float], list[float]]:
    """(starts, ends) of requests 0..n-1 played through the shared downlink.

    Request i waits on request parents[i], or on nothing when that is -1,
    and is discovered offsets[i] ms after it; sizes[i] is its payload in
    bytes. It starts at max(parent end, 0) + offset + rtt_ms and finishes
    once its payload has passed through its time-varying share of the
    downlink. Simultaneous events are taken in index order. Raises
    CyclicPlan if a request never starts, which happens exactly when the
    parents do not form a forest, and ThrottleOverflow if an event turn
    retires no arrival or completion or an end is not finite.
    """
    n = len(parents)
    rtt = profile.rtt_ms
    capacity = profile.downlink_kbps
    # Unlimited pipe: every transfer is instantaneous once started.
    instant = math.isinf(capacity)
    push, pop = heapq.heappush, heapq.heappop
    starts = [math.nan] * n  # NaN until the request starts
    ends = [0.0] * n
    children: list[list[int] | None] = [None] * n  # a list only where there are children
    arrivals: list[tuple[float, int]] = []  # heap: (first-byte time, index)
    for i, parent in enumerate(parents):
        if parent < 0:
            start = 0.0 + offsets[i] + rtt  # as if after a parent that ended at 0
            starts[i] = start
            arrivals.append((start, i))
        elif children[parent] is None:
            children[parent] = [i]
        else:
            children[parent].append(i)
    heapq.heapify(arrivals)

    # GPS virtual time: every flow in flight has received the same `virtual`
    # kilobits since the busy period began, so a flow finishes once `virtual`
    # reaches its tag, V(arrival) + size. Only the smallest tag matters, and
    # a heap keeps it. A turn advances the clock to the next completion, or
    # to the next arrival when that comes strictly sooner, then retires every
    # flow within _COMPLETION_EPS_KBITS of done and every arrival due.
    tags: list[tuple[float, int]] = []  # heap: (virtual finish tag, index)
    virtual = 0.0
    now = 0.0
    started = 0
    while arrivals or tags:
        in_flight = len(tags)
        if tags:
            top = tags[0][0]
            t_complete = now + (top - virtual) * in_flight / capacity * 1000.0
            if arrivals and arrivals[0][0] < t_complete:
                t_next = arrivals[0][0]
                completing = False
            else:
                t_next = t_complete
                completing = t_complete == t_complete  # a NaN clock completes nothing
            if t_next > now:
                virtual += capacity / in_flight * (t_next - now) / 1000.0
            now = t_next
            done_at = virtual + _COMPLETION_EPS_KBITS
            if completing and top > done_at:
                # now + the smallest tag's drain time may round to now.
                done_at = top
            base = 0.0 if now < 0.0 else now  # children start from here
            while tags and tags[0][0] <= done_at:
                i = pop(tags)[1]
                ends[i] = now
                if children[i] is not None:
                    for child in children[i]:
                        start = base + offsets[child] + rtt
                        starts[child] = start
                        push(arrivals, (start, child))
            if not tags:
                virtual = 0.0  # a new busy period starts from zero
        else:
            now = arrivals[0][0]  # the busy period is over, so virtual is 0
        if len(tags) == in_flight and not (arrivals and arrivals[0][0] <= now):
            raise ThrottleOverflow(f"downlink simulation stalled at {now!r} ms with {in_flight} transfers in flight")
        while arrivals and arrivals[0][0] <= now:
            start, i = pop(arrivals)
            kbits = sizes[i] * 8.0 / 1000.0
            if instant or kbits <= _COMPLETION_EPS_KBITS:
                ends[i] = start
                if children[i] is not None:
                    base = 0.0 if start < 0.0 else start
                    for child in children[i]:
                        child_start = base + offsets[child] + rtt
                        starts[child] = child_start
                        push(arrivals, (child_start, child))
            else:
                push(tags, (virtual + kbits, i))
            started += 1
    if started < n:
        # Roots start, and a child starts once its parent ends, so a request
        # that never started has a cycle on its parent chain.
        raise CyclicPlan(next(i for i, start in enumerate(starts) if math.isnan(start)))
    # A request's end bounds its start and discovery.
    _check_finite(ends)
    return starts, ends


def _finish_table(requests: Sequence[NetworkRequest]) -> tuple[list[float], list[int]]:
    """Distinct end times, ascending, each with the earliest request ending then.

    This is the replay parent rule: an event at time t belongs to entry
    bisect_right(ends, t) - 1, the request that finished last at or before
    t, the earliest request winning a tie. No entry means no such request.
    """
    first: dict[float, int] = {}
    for i, req in enumerate(requests):
        first.setdefault(req.end_ms, i)
    ends = sorted(first)
    return ends, [first[end] for end in ends]


def _parents(
    requests: Sequence[NetworkRequest], table: tuple[list[float], list[int]]
) -> tuple[list[int], list[float]]:
    """(parent index or -1, discovery offset) per request, by the finish table.

    A request's parent is the request that finished last at or before its
    discovery (ties keep the earliest request); the leftover gap becomes the
    discovery offset. A request never adopts itself, or two zero-length
    requests discovered at the same instant could adopt each other. Relies
    on discovered_ms <= end_ms, which the trace schema enforces.
    """
    ends, first = table
    parents = []
    offsets = []
    for i, req in enumerate(requests):
        k = bisect.bisect_right(ends, req.discovered_ms) - 1
        if k >= 0 and first[k] == i:
            # i ended at its own discovery; take the previous end instead.
            k -= 1
        if k >= 0:
            parents.append(first[k])
            offsets.append(req.discovered_ms - ends[k])
        else:
            parents.append(-1)
            offsets.append(req.discovered_ms)
    return parents, offsets


def apply_throttle(trace: NormalizedTrace, profile: ThrottleProfile) -> NormalizedTrace:
    """Rebuild a trace as if it had been recorded under the profile: its link
    stage, then its mode stage. UNTHROTTLED returns the trace itself."""
    return replay_mode(replay_link(trace, profile), profile.cpu_multiplier)


def replay_link(trace: NormalizedTrace, profile: ThrottleProfile) -> NormalizedTrace:
    """The link stage: the trace with its requests replayed on the profile's
    link, and its paints, visual samples and tasks moved with their parent
    requests. Reads only rtt_ms and downlink_kbps, so every mode on one link
    can share it. On the identity link (no round trip, unlimited downlink)
    it returns the trace."""
    # Recorded times already contain the recording network's delays, so even
    # a no-op re-simulation would move them: the identity link keeps them.
    if profile.rtt_ms == 0 and math.isinf(profile.downlink_kbps):
        return trace
    old = trace.requests
    table = _finish_table(old)
    parents, offsets = _parents(old, table)
    sizes = [r.bytes for r in old]
    starts, ends = waterfall_times(parents, offsets, sizes, profile)
    rtt = profile.rtt_ms
    new_requests = records(
        NetworkRequest, zip([start - rtt for start in starts], starts, ends, sizes, [r.origin for r in old])
    )

    # Paints, visual samples and tasks move with the request the parent rule
    # gives them: an event after k of the distinct finish times moves by
    # deltas[k], and one before them all by 0.0.
    finish_ends, first = table
    deltas = [0.0] + [ends[j] - old[j].end_ms for j in first]
    after = bisect.bisect_right
    paints = [(t + deltas[after(finish_ends, t)], kind, sig) for t, kind, sig in trace.paint_events]
    moved = [(t + deltas[after(finish_ends, t)], fraction) for t, fraction in trace.visual_progress]
    moved.sort(key=_T_MS)
    # A shift can carry an event past the largest float, as it can a request; the last sample is the latest.
    _check_finite([*map(_T_MS, paints), *map(_T_MS, moved[-1:])])
    visual = clamp_visual_progress(records(VisualSample, moved))
    tasks = _main_thread([(start + deltas[after(finish_ends, start)], dur) for start, dur in trace.tasks])
    return NormalizedTrace(records(PaintEvent, paints), tasks, new_requests, visual)


def replay_mode(trace: NormalizedTrace, cpu_multiplier: float) -> NormalizedTrace:
    """The mode stage: the trace with each task lasting cpu_multiplier times
    as long, run one at a time from its link-stage start. At cpu_multiplier
    1 it returns the trace."""
    if cpu_multiplier == 1:
        return trace
    return trace._replace(tasks=_main_thread([(start, dur * cpu_multiplier) for start, dur in trace.tasks]))


def _main_thread(tasks: list[tuple[float, float]]) -> tuple[MainThreadTask, ...]:
    """The tasks of (start, dur) pairs in recorded order, run one at a time:
    each starts at its start or once the task before it ends, if later."""
    placed = []
    free = 0.0
    for start, dur in tasks:
        start = start if start >= free else free
        free = start + dur
        placed.append((start, dur))
    # The last task's end bounds every task.
    _check_finite([free])
    return records(MainThreadTask, placed)


def _check_finite(times: list[float]) -> None:
    if not all(map(math.isfinite, times)):
        # Replay and simulate both check here; a trace's or a plan's own times can overflow too.
        raise ThrottleOverflow(f"throttle or input times too extreme to simulate: a time reached {max(times)!r}")
