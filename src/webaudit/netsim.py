"""Network waterfall simulation for throttled replay.

The downlink is modeled as a single shared pipe split equally among all
requests in flight (processor sharing), simulated with a GPS virtual
clock and a heap of finish tags, O(log n) per arrival or completion. A
request becomes visible some fixed offset after its parent finishes,
then spends one round trip before its first byte arrives. Applying a
throttle to a recorded trace rebuilds the request waterfall under these
rules, stretches main-thread tasks, and shifts paint/visual timestamps
along with the requests that preceded them.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import CyclicPlan, ThrottleOverflow
from .trace import (
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
    clamp_visual_progress,
)

# A transfer counts as finished once the virtual clock is this close to its
# finish tag; soaks up float drift from summing the clock's advances.
_COMPLETION_EPS_KBITS = 1e-9


@dataclass(frozen=True)
class ThrottleProfile:
    """Fully resolved throttling parameters (no deferred fields)."""

    rtt_ms: float
    downlink_kbps: float
    cpu_multiplier: float = 1.0

    # Each check is written so that NaN fails it.
    def __post_init__(self):
        if not 0 <= self.rtt_ms < math.inf:
            raise ValueError(f"rtt_ms must be finite and >= 0, got {self.rtt_ms!r}")
        if not self.downlink_kbps > 0:
            raise ValueError(f"downlink_kbps must be > 0, got {self.downlink_kbps!r}")
        if not self.cpu_multiplier >= 1:
            raise ValueError(f"cpu_multiplier must be >= 1, got {self.cpu_multiplier!r}")

    @property
    def is_identity(self) -> bool:
        """True when applying this profile must leave a trace untouched."""
        return self.rtt_ms == 0 and math.isinf(self.downlink_kbps) and self.cpu_multiplier == 1


UNTHROTTLED = ThrottleProfile(rtt_ms=0.0, downlink_kbps=math.inf, cpu_multiplier=1.0)


@dataclass(frozen=True)
class PlannedRequest:
    """One request in a dependency plan.

    discovery_offset_ms counts from the parent's completion, or from
    navigation start when there is no parent.
    """

    id: str
    parent_id: str | None
    discovery_offset_ms: float
    bytes: int

    def __post_init__(self):
        if self.bytes < 0:
            raise ValueError(f"bytes must be >= 0, got {self.bytes!r}")
        if not 0 <= self.discovery_offset_ms < math.inf:
            raise ValueError(f"discovery_offset_ms must be finite and >= 0, got {self.discovery_offset_ms!r}")


@dataclass(frozen=True)
class WaterfallPlan:
    """An acyclic forest of planned requests with unique ids."""

    requests: tuple[PlannedRequest, ...]

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(self.requests))
        by_id: dict[str, PlannedRequest] = {}
        for req in self.requests:
            if req.id in by_id:
                raise ValueError(f"duplicate request id {req.id!r}")
            by_id[req.id] = req
        for req in self.requests:
            if req.parent_id is not None and req.parent_id not in by_id:
                raise ValueError(f"request {req.id!r} references unknown parent {req.parent_id!r}")
        # Each node has at most one parent, so a cycle shows up as a repeat
        # on the walk up the parent chain.
        state: dict[str, int] = {}  # 1 = on the current chain, 2 = cleared
        for req in self.requests:
            chain = []
            node: str | None = req.id
            while node is not None and state.get(node) != 2:
                if state.get(node) == 1:
                    raise CyclicPlan(f"dependency cycle through request {node!r}")
                state[node] = 1
                chain.append(node)
                node = by_id[node].parent_id
            for visited in chain:
                state[visited] = 2


@dataclass(frozen=True)
class SimulatedRequest:
    id: str
    start_ms: float
    end_ms: float


def simulate_waterfall(plan: WaterfallPlan, profile: ThrottleProfile) -> list[SimulatedRequest]:
    """Play a plan through the shared-downlink model (see waterfall_times).

    The result is sorted by request id; requests are numbered in id order,
    so simultaneous events are taken in id order.
    """
    requests = sorted(plan.requests, key=lambda r: r.id)
    index = {r.id: i for i, r in enumerate(requests)}
    starts, ends = waterfall_times(
        [-1 if r.parent_id is None else index[r.parent_id] for r in requests],
        [r.discovery_offset_ms for r in requests],
        [r.bytes for r in requests],
        profile,
    )
    return [SimulatedRequest(r.id, start, end) for r, start, end in zip(requests, starts, ends)]


def waterfall_times(
    parents: Sequence[int], offsets: Sequence[float], sizes: Sequence[int], profile: ThrottleProfile
) -> tuple[list[float], list[float]]:
    """(starts, ends) of requests 0..n-1 played through the shared downlink.

    Request i waits on request parents[i], or on nothing when that is -1,
    and is discovered offsets[i] ms after it; sizes[i] is its payload in
    bytes. It starts at max(parent end, 0) + offset + rtt_ms and finishes
    once its payload has passed through its time-varying share of the
    downlink. The parents must form a forest. Simultaneous events are taken
    in index order. Raises ThrottleOverflow if an event turn retires no
    arrival or completion.
    """
    n = len(parents)
    rtt = profile.rtt_ms
    capacity = profile.downlink_kbps
    # Unlimited pipe: every transfer is instantaneous once started.
    instant = math.isinf(capacity)
    starts = [0.0] * n
    ends = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    arrivals: list[tuple[float, int]] = []  # heap: (first-byte time, index)
    for i, parent in enumerate(parents):
        if parent < 0:
            start = 0.0 + offsets[i] + rtt  # as if after a parent that ended at 0
            starts[i] = start
            arrivals.append((start, i))
        else:
            children[parent].append(i)
    heapq.heapify(arrivals)

    # GPS virtual time: every flow in flight has received the same `virtual`
    # kilobits since the busy period began, so a flow finishes once `virtual`
    # reaches its tag, V(arrival) + size. Only the smallest tag matters, and
    # a heap keeps it.
    tags: list[tuple[float, int]] = []  # heap: (virtual finish tag, index)
    virtual = 0.0
    now = 0.0
    while arrivals or tags:
        in_flight = len(tags)
        t_complete = now + (tags[0][0] - virtual) * in_flight / capacity * 1000.0 if tags else math.inf
        t_arrival = arrivals[0][0] if arrivals else math.inf
        t_next = min(t_complete, t_arrival)
        if tags and t_next > now:
            virtual += capacity / in_flight * (t_next - now) / 1000.0
        now = t_next
        done_at = virtual + _COMPLETION_EPS_KBITS
        if tags and t_next == t_complete:
            # now + the smallest tag's drain time may round to now.
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
            virtual = 0.0  # a new busy period starts from zero
        while arrivals and arrivals[0][0] <= now:
            start, i = heapq.heappop(arrivals)
            kbits = sizes[i] * 8.0 / 1000.0
            if instant or kbits <= _COMPLETION_EPS_KBITS:
                ends[i] = start
                for child in children[i]:
                    child_start = max(start, 0.0) + offsets[child] + rtt
                    starts[child] = child_start
                    heapq.heappush(arrivals, (child_start, child))
            else:
                heapq.heappush(tags, (virtual + kbits, i))
            retired += 1
        if not retired:
            raise ThrottleOverflow(f"downlink simulation stalled at {now!r} ms with {in_flight} transfers in flight")
    return starts, ends


def _plan_request_id(index: int) -> str:
    # Zero-padded so lexicographic id order equals trace request order.
    return f"{index:06d}"


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


def infer_plan(trace: NormalizedTrace) -> WaterfallPlan:
    """Reconstruct the dependency plan a recorded waterfall implies.

    Request i gets id _plan_request_id(i); its parent and discovery offset
    follow the replay parent rule (see _parents).
    """
    reqs = trace.requests
    parents, offsets = _parents(reqs, _finish_table(reqs))
    return WaterfallPlan(
        tuple(
            PlannedRequest(_plan_request_id(i), None if parent < 0 else _plan_request_id(parent), offset, req.bytes)
            for i, (parent, offset, req) in enumerate(zip(parents, offsets, reqs))
        )
    )


def apply_throttle(trace: NormalizedTrace, profile: ThrottleProfile) -> NormalizedTrace:
    """Rebuild a trace as if it had been recorded under the profile."""
    return throttler(trace)(profile)


def throttler(trace: NormalizedTrace) -> Callable[[ThrottleProfile], NormalizedTrace]:
    """``throttle(profile)``: the trace rebuilt as if recorded under the profile.

    The network replay reads only the link (rtt_ms, downlink_kbps), so it
    runs once per distinct link; tasks are retimed per profile.
    """
    networks: dict[tuple[float, float], tuple] = {}  # link -> (requests, paints, visual)

    def throttle(profile: ThrottleProfile) -> NormalizedTrace:
        # Recorded times already contain the recording network's delays, so even
        # a no-op re-simulation would move them: identity returns the trace as given.
        if profile.is_identity:
            return trace
        link = (profile.rtt_ms, profile.downlink_kbps)
        if link not in networks:
            networks[link] = _replay_network(trace, profile)
        requests, paints, visual = networks[link]
        scaled_tasks = []
        prev_old_end = prev_new_end = 0.0
        for old_start, old_dur in trace.tasks:
            start = prev_new_end + (old_start - prev_old_end)
            dur = old_dur * profile.cpu_multiplier
            scaled_tasks.append(MainThreadTask(start, dur))
            prev_old_end = old_start + old_dur
            prev_new_end = start + dur
        # The last task's end bounds every task.
        _check_finite([prev_new_end])
        return NormalizedTrace(
            nav_start=trace.nav_start,
            paint_events=paints,
            tasks=tuple(scaled_tasks),
            requests=requests,
            visual_progress=visual,
        )

    return throttle


def _replay_network(trace: NormalizedTrace, profile: ThrottleProfile) -> tuple:
    """The trace's (requests, paints, visual samples) replayed on the
    profile's link. Reads only rtt_ms and downlink_kbps."""
    old = trace.requests
    table = _finish_table(old)
    parents, offsets = _parents(old, table)
    starts, ends = waterfall_times(parents, offsets, [r.bytes for r in old], profile)
    rtt = profile.rtt_ms
    new_requests = tuple(
        NetworkRequest(start - rtt, start, end, req.bytes, req.origin) for req, start, end in zip(old, starts, ends)
    )
    # A request's end bounds its start and discovery.
    _check_finite(ends)

    # Paints and visual samples move with the request the parent rule gives them.
    finish_ends, first = table
    deltas = [ends[j] - old[j].end_ms for j in first]

    def shifted(t_ms: float) -> float:
        k = bisect.bisect_right(finish_ends, t_ms) - 1
        return t_ms + (deltas[k] if k >= 0 else 0.0)

    new_paints = tuple(PaintEvent(shifted(p.t_ms), p.kind, p.significance) for p in trace.paint_events)
    moved = sorted((VisualSample(shifted(s.t_ms), s.fraction) for s in trace.visual_progress), key=lambda s: s.t_ms)
    return new_requests, new_paints, clamp_visual_progress(moved)


def _check_finite(times: list[float]) -> None:
    if not all(map(math.isfinite, times)):
        raise ThrottleOverflow(f"throttle too extreme to simulate: a replayed time reached {max(times)!r}")
