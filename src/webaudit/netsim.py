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
    """Play a plan through the shared-downlink model.

    A request starts at max(parent end, 0) + discovery_offset_ms + rtt_ms
    and finishes once its payload has passed through its time-varying share
    of the downlink. The result is sorted by request id. Raises
    ThrottleOverflow if an event turn retires no arrival or completion.
    """
    requests = plan.requests
    if not requests:
        return []
    by_id = {r.id: r for r in requests}
    children: dict[str | None, list[PlannedRequest]] = {}
    for req in requests:
        children.setdefault(req.parent_id, []).append(req)

    starts: dict[str, float] = {}
    ends: dict[str, float] = {}
    arrivals: list[tuple[float, str]] = []  # heap: (first-byte time, id)

    def schedule(req: PlannedRequest, parent_end: float) -> None:
        start = max(parent_end, 0.0) + req.discovery_offset_ms + profile.rtt_ms
        starts[req.id] = start
        heapq.heappush(arrivals, (start, req.id))

    def finish(rid: str, end: float) -> None:
        ends[rid] = end
        for child in children.get(rid, []):
            schedule(child, end)

    for root in children.get(None, []):
        schedule(root, 0.0)

    if math.isinf(profile.downlink_kbps):
        # Unlimited pipe: every transfer is instantaneous once started.
        while arrivals:
            start, rid = heapq.heappop(arrivals)
            finish(rid, start)
    else:
        # GPS virtual time: every flow in flight has received the same
        # `virtual` kilobits since the busy period began, so a flow finishes
        # once `virtual` reaches its tag, V(arrival) + size. Only the
        # smallest tag matters, and a heap keeps it.
        capacity = profile.downlink_kbps
        tags: list[tuple[float, str]] = []  # heap: (virtual finish tag, id)
        virtual = 0.0
        now = 0.0
        while arrivals or tags:
            n = len(tags)
            t_complete = now + (tags[0][0] - virtual) * n / capacity * 1000.0 if tags else math.inf
            t_arrival = arrivals[0][0] if arrivals else math.inf
            t_next = min(t_complete, t_arrival)
            if tags and t_next > now:
                virtual += capacity / n * (t_next - now) / 1000.0
            now = t_next
            done_at = virtual + _COMPLETION_EPS_KBITS
            if tags and t_next == t_complete:
                # now + the smallest tag's drain time may round to now.
                done_at = max(done_at, tags[0][0])
            retired = 0
            while tags and tags[0][0] <= done_at:
                finish(heapq.heappop(tags)[1], now)
                retired += 1
            if not tags:
                virtual = 0.0  # a new busy period starts from zero
            while arrivals and arrivals[0][0] <= now:
                _, rid = heapq.heappop(arrivals)
                kbits = by_id[rid].bytes * 8.0 / 1000.0
                if kbits <= _COMPLETION_EPS_KBITS:
                    finish(rid, starts[rid])
                else:
                    heapq.heappush(tags, (virtual + kbits, rid))
                retired += 1
            if not retired:
                raise ThrottleOverflow(f"downlink simulation stalled at {now!r} ms with {n} transfers in flight")

    return sorted(
        (SimulatedRequest(rid, starts[rid], ends[rid]) for rid in starts),
        key=lambda sim: sim.id,
    )


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


def infer_plan(trace: NormalizedTrace) -> WaterfallPlan:
    """Reconstruct the dependency plan a recorded waterfall implies.

    A request's parent is the request that finished last at or before its
    discovery (ties keep the earliest request); the leftover gap becomes the
    discovery offset. A request never adopts itself, or two zero-length
    requests discovered at the same instant could adopt each other. Relies
    on discovered_ms <= end_ms, which the trace schema enforces.
    """
    reqs = trace.requests
    ends, first = _finish_table(reqs)
    planned = []
    for i, req in enumerate(reqs):
        k = bisect.bisect_right(ends, req.discovered_ms) - 1
        if k >= 0 and first[k] == i:
            # i ended at its own discovery; take the previous end instead.
            k -= 1
        parent = first[k] if k >= 0 else None
        parent_id = None if parent is None else _plan_request_id(parent)
        offset = req.discovered_ms - (0.0 if parent is None else reqs[parent].end_ms)
        planned.append(PlannedRequest(_plan_request_id(i), parent_id, offset, req.bytes))
    return WaterfallPlan(tuple(planned))


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
        for task in trace.tasks:
            start = prev_new_end + (task.start_ms - prev_old_end)
            dur = task.dur_ms * profile.cpu_multiplier
            scaled_tasks.append(MainThreadTask(start_ms=start, dur_ms=dur))
            prev_old_end = task.end_ms
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
    simulated = simulate_waterfall(infer_plan(trace), profile)
    # Plan ids are zero-padded indices, so the id-sorted output lines up
    # with the trace's request order.
    new_requests = tuple(
        NetworkRequest(
            discovered_ms=sim.start_ms - profile.rtt_ms,
            start_ms=sim.start_ms,
            end_ms=sim.end_ms,
            bytes=old.bytes,
            origin=old.origin,
        )
        for old, sim in zip(trace.requests, simulated)
    )
    # A request's end bounds its start and discovery.
    _check_finite([r.end_ms for r in new_requests])

    # Paints and visual samples move with the request the parent rule gives them.
    ends, first = _finish_table(trace.requests)
    deltas = [simulated[j].end_ms - trace.requests[j].end_ms for j in first]

    def shifted(t_ms: float) -> float:
        k = bisect.bisect_right(ends, t_ms) - 1
        return t_ms + (deltas[k] if k >= 0 else 0.0)

    new_paints = tuple(PaintEvent(shifted(p.t_ms), p.kind, p.significance) for p in trace.paint_events)
    moved = sorted((VisualSample(shifted(s.t_ms), s.fraction) for s in trace.visual_progress), key=lambda s: s.t_ms)
    return new_requests, new_paints, clamp_visual_progress(moved)


def _check_finite(times: list[float]) -> None:
    if not all(map(math.isfinite, times)):
        raise ThrottleOverflow(f"throttle too extreme to simulate: a replayed time reached {max(times)!r}")
