"""Waterfall simulation, plan inference, and trace throttling."""

import hashlib
import json
import math
import random

import pytest

from oracles import parent_scan, share_rescan, shift_source_scan, waterfall_march, waterfall_times_minmax
from conftest import call_within, random_plan, random_profile
from webaudit.config import load_calibration, resolve_throttle
from webaudit.errors import CyclicPlan, SchemaError, ThrottleOverflow
from webaudit.netsim import (
    ThrottleProfile,
    UNTHROTTLED,
    _finish_table,
    _parents,
    apply_throttle,
    plan_from_dict,
    replay_link,
    replay_mode,
    waterfall_times,
)
from webaudit.trace import (
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
)

FOUR_G = ThrottleProfile(rtt_ms=100.0, downlink_kbps=1000.0, cpu_multiplier=1.0)


def parent_rule(trace: NormalizedTrace) -> tuple[list[int], list[float]]:
    """(parents, offsets) of the trace's requests by the replay parent rule
    that the link stage hands to waterfall_times."""
    return _parents(trace.requests, _finish_table(trace.requests))


def times(*reqs, profile=FOUR_G) -> list[tuple[float, float]]:
    """(start, end) per request of (parent, offset, bytes) rows, by waterfall_times."""
    parents, offsets, sizes = zip(*reqs)
    return list(zip(*waterfall_times(parents, offsets, sizes, profile)))


class TestProfiles:
    def test_validation(self):
        for bad in (
            dict(rtt_ms=-1.0, downlink_kbps=1.0),
            dict(rtt_ms=0.0, downlink_kbps=0.0),
            dict(rtt_ms=0.0, downlink_kbps=1.0, cpu_multiplier=0.5),
            dict(rtt_ms=math.nan, downlink_kbps=1.0),
            dict(rtt_ms=math.inf, downlink_kbps=1.0),
            dict(rtt_ms=0.0, downlink_kbps=math.nan),
            dict(rtt_ms=0.0, downlink_kbps=1.0, cpu_multiplier=math.nan),
        ):
            with pytest.raises(ValueError):
                ThrottleProfile(**bad)

    def test_identity_detection(self):
        trace = NormalizedTrace(
            tasks=(MainThreadTask(200.0, 40.0),), requests=(NetworkRequest(0.0, 100.0, 600.0, 125000, "https://a.test"),)
        )
        assert apply_throttle(trace, UNTHROTTLED) is trace
        assert apply_throttle(trace, FOUR_G) is not trace
        assert apply_throttle(trace, ThrottleProfile(0.0, math.inf, 4.0)) is not trace
        # Each stage skips itself on its own part of the profile.
        assert replay_link(trace, ThrottleProfile(0.0, math.inf, 4.0)) is trace
        assert replay_link(trace, UNTHROTTLED) is trace
        assert type(replay_link(trace, FOUR_G)) is NormalizedTrace
        assert replay_mode(trace, 1.0) is trace


class TestPlanFromDict:
    def test_requests_numbered_in_id_order(self):
        ids, parents, offsets, sizes = plan_from_dict(
            [{"id": "z", "bytes": 1000}, {"id": "a", "parent_id": "z", "discovery_offset_ms": 5.0}]
        )
        assert (ids, parents, offsets, sizes) == (["a", "z"], [1, -1], [5.0, 0.0], [0, 1000])

    def test_wrapped_and_empty_plans(self):
        assert plan_from_dict({"requests": [{"id": "a"}]}) == (["a"], [-1], [0.0], [0])
        assert plan_from_dict([]) == ([], [], [], [])

    @pytest.mark.parametrize(
        "requests, where, message",
        [
            ([{"id": "a"}, {"id": "a"}], "$.requests", "duplicate request id 'a'"),
            ([{"id": "a", "parent_id": "ghost"}], "$.requests", "request 'a' references unknown parent 'ghost'"),
            ([{"id": "a", "discovery_offset_ms": -1.0}], "$.requests[0].discovery_offset_ms", "must be >= 0"),
            ([{"id": "a", "discovery_offset_ms": math.nan}], "$.requests[0].discovery_offset_ms", "must be finite"),
            ([{"id": "a", "discovery_offset_ms": math.inf}], "$.requests[0].discovery_offset_ms", "must be finite"),
            ([{"id": "a", "bytes": -10}], "$.requests[0].bytes", "must be >= 0"),
            ([{"id": "a", "parent_id": 5}], "$.requests[0].parent_id", "must be a string"),
            ([{"id": 5}], "$.requests[0].id", "must be a string"),
            ([{"bytes": 5}], "$.requests[0].id", "missing field"),
            ([5], "$.requests[0]", "must be an object"),
        ],
        ids=["duplicate-id", "unknown-parent", "negative-offset", "nan-offset", "inf-offset", "negative-bytes",
             "number-parent", "number-id", "missing-id", "number-request"],
    )
    def test_bad_plan_names_the_path(self, requests, where, message):
        with pytest.raises(SchemaError) as excinfo:
            plan_from_dict({"requests": requests})
        assert excinfo.value.path == where
        assert str(excinfo.value) == f"{where}: {message}"

    def test_a_field_error_comes_before_a_duplicate(self):
        with pytest.raises(SchemaError, match=r"^\$\.requests\[2\]\.bytes: "):
            plan_from_dict([{"id": "a"}, {"id": "a"}, {"id": "b", "bytes": -1}])


class TestCycles:
    def test_the_kernel_rejects_a_cycle(self):
        with pytest.raises(CyclicPlan) as excinfo:
            waterfall_times([1, 0], [0.0, 0.0], [10, 10], FOUR_G)
        assert excinfo.value.request == 0

    def test_a_request_below_a_cycle_never_starts_either(self):
        # 0 hangs off the cycle 1 <-> 2; 3 is a root and still runs
        with pytest.raises(CyclicPlan) as excinfo:
            waterfall_times([1, 2, 1, -1], [0.0] * 4, [10] * 4, UNTHROTTLED)
        assert excinfo.value.request == 0

    def test_a_plan_file_cycle_reaches_the_kernel(self):
        ids, parents, offsets, sizes = plan_from_dict(
            [{"id": "a", "parent_id": "b"}, {"id": "b", "parent_id": "a"}, {"id": "c"}]
        )
        with pytest.raises(CyclicPlan) as excinfo:
            waterfall_times(parents, offsets, sizes, FOUR_G)
        assert ids[excinfo.value.request] == "a"

    def test_apply_throttle_rejects_a_cyclic_trace(self):
        # Built by hand past the schema (the second request ends before it
        # starts), so by the parent rule each request waits on the other.
        trace = NormalizedTrace(requests=(NetworkRequest(10, 10, 20, 1000, "o"), NetworkRequest(25, 25, 8, 1000, "o")))
        assert parent_rule(trace) == ([1, 0], [2, 5])
        with pytest.raises(CyclicPlan):
            apply_throttle(trace, FOUR_G)


class TestWaterfallTimes:
    def test_single_request(self):
        # 500 kilobits through a 1000 kbps pipe after one 100 ms round trip
        assert times((-1, 0.0, 62500)) == [(100.0, 600.0)]

    def test_two_simultaneous_requests_share_the_pipe(self):
        assert times((-1, 0.0, 62500), (-1, 0.0, 62500)) == [(100.0, 1100.0), (100.0, 1100.0)]

    def test_chained_request_waits_for_parent(self):
        assert times((-1, 0.0, 62500), (0, 0.0, 25000)) == [(100.0, 600.0), (700.0, 900.0)]

    def test_zero_bytes_finish_instantly(self):
        assert times((-1, 40.0, 0)) == [(140.0, 140.0)]

    def test_infinite_downlink_transfers_instantly(self):
        profile = ThrottleProfile(50.0, math.inf, 1.0)
        assert times((-1, 0.0, 10**9), (0, 10.0, 10**9), profile=profile) == [(50.0, 50.0), (110.0, 110.0)]

    def test_empty_plan(self):
        assert waterfall_times([], [], [], FOUR_G) == ([], [])

    def test_late_arrival_slows_the_first_transfer(self):
        # b arrives at 600 when a still has 500 kbits left; they then share
        (_, a_end), (_, b_end) = times((-1, 0.0, 125000), (-1, 500.0, 62500))
        assert a_end == pytest.approx(1600.0, abs=1e-6)
        assert b_end == pytest.approx(1600.0, abs=1e-6)

    def test_matches_exact_oracle_on_random_plans(self, rng):
        for _ in range(200):
            p = random_plan(rng)
            profile = random_profile(rng)
            want_starts, want_ends = waterfall_march(*p, profile)
            starts, ends = waterfall_times(*p, profile)
            assert len(starts) == len(ends) == len(want_starts)
            for start, end, want_start, want_end in zip(starts, ends, want_starts, want_ends):
                assert start == pytest.approx(want_start, abs=1e-3)
                assert end == pytest.approx(want_end, abs=1e-3)

    def test_a_turn_that_retires_nothing_raises(self):
        # Validation rejects a NaN downlink; forced in, it makes every event
        # time NaN, so no turn can retire a transfer.
        profile = tuple.__new__(ThrottleProfile, (0.0, math.nan, 1.0))
        with pytest.raises(ThrottleOverflow, match="stalled"):
            call_within(10, waterfall_times, [-1], [0.0], [1000], profile)


class TestInferPlan:
    def test_parent_is_latest_request_done_by_discovery(self):
        trace = NormalizedTrace(
            requests=(
                NetworkRequest(0.0, 10.0, 600.0, 100, "https://a.test"),
                NetworkRequest(600.0, 620.0, 900.0, 100, "https://a.test"),
                NetworkRequest(300.0, 310.0, 450.0, 100, "https://a.test"),
            )
        )
        assert parent_rule(trace) == ([-1, 0, -1], [0.0, 0.0, 300.0])

    def test_tie_prefers_earliest_finisher(self):
        trace = NormalizedTrace(
            requests=(
                NetworkRequest(0.0, 0.0, 500.0, 100, "https://a.test"),
                NetworkRequest(0.0, 0.0, 500.0, 100, "https://a.test"),
                NetworkRequest(500.0, 510.0, 700.0, 100, "https://a.test"),
            )
        )
        assert parent_rule(trace)[0][2] == 0

    def test_simultaneous_zero_length_twins_stay_acyclic(self):
        # the naive rule would make these two adopt each other
        trace = NormalizedTrace(
            requests=(
                NetworkRequest(100.0, 100.0, 100.0, 0, "https://a.test"),
                NetworkRequest(100.0, 100.0, 100.0, 0, "https://a.test"),
            )
        )
        assert parent_rule(trace)[0] == [-1, 0]

    def test_indices_follow_trace_order(self, rng):
        from conftest import random_trace

        trace = random_trace(rng)
        reqs = trace.requests
        parents, offsets = parent_rule(trace)
        assert len(parents) == len(offsets) == len(reqs)
        for req, parent, offset in zip(reqs, parents, offsets):
            assert offset == req.discovered_ms - (0.0 if parent < 0 else reqs[parent].end_ms)


class TestApplyThrottle:
    def base_trace(self) -> NormalizedTrace:
        return NormalizedTrace(
            paint_events=(
                PaintEvent(50.0, "first-paint"),
                PaintEvent(650.0, "contentful-paint"),
            ),
            tasks=(MainThreadTask(200.0, 40.0), MainThreadTask(700.0, 100.0)),
            requests=(NetworkRequest(0.0, 100.0, 600.0, 125000, "https://a.test"),),
            visual_progress=(VisualSample(50.0, 0.3), VisualSample(650.0, 1.0)),
        )

    def test_identity_profile_returns_the_same_object(self):
        trace = self.base_trace()
        assert apply_throttle(trace, UNTHROTTLED) is trace

    def test_requests_resimulated_under_profile(self):
        profile = ThrottleProfile(100.0, 1000.0, 2.0)
        out = apply_throttle(self.base_trace(), profile)
        # 1000 kilobits at 1000 kbps: starts after rtt, takes a full second
        assert out.requests == (NetworkRequest(0.0, 100.0, 1100.0, 125000, "https://a.test"),)

    def test_tasks_scaled_and_repacked_preserving_gaps(self):
        profile = ThrottleProfile(100.0, 1000.0, 2.0)
        out = apply_throttle(self.base_trace(), profile)
        assert out.tasks == (MainThreadTask(200.0, 80.0), MainThreadTask(740.0, 200.0))

    def test_paints_shift_with_the_latest_finished_request(self):
        profile = ThrottleProfile(100.0, 1000.0, 2.0)
        out = apply_throttle(self.base_trace(), profile)
        # request end moved 600 -> 1100; the paint before any request end stays
        assert [p.t_ms for p in out.paint_events] == [50.0, 1150.0]
        assert [s.t_ms for s in out.visual_progress] == [50.0, 1150.0]

    def test_throttled_trace_still_validates(self, rng):
        from conftest import random_trace

        for _ in range(50):
            trace = random_trace(rng)
            out = apply_throttle(trace, FOUR_G)
            again = NormalizedTrace.from_dict(out.to_dict())
            assert again == out

    def test_a_cpu_only_profile_keeps_the_recorded_network(self):
        # The identity link leaves the recorded requests, paints and visual
        # samples as they are, since they already hold the recording
        # network's delays; only the tasks stretch.
        trace = self.base_trace()
        out = apply_throttle(trace, ThrottleProfile(0.0, math.inf, 4.0))
        assert out.tasks == (MainThreadTask(200.0, 160.0), MainThreadTask(820.0, 400.0))
        assert out._replace(tasks=trace.tasks) == trace
        assert out.requests is trace.requests and out.paint_events is trace.paint_events

    @pytest.mark.parametrize("shifted", ["paint", "visual sample"])
    def test_an_event_shifted_past_the_largest_float_is_an_overflow(self, shifted):
        # 10**300 bytes end ~1e297 ms later under 4g, which carries an event at the largest float to inf
        latest = 1.7976931348623157e308
        trace = NormalizedTrace(
            paint_events=(PaintEvent(latest if shifted == "paint" else 10.0, "contentful-paint"),),
            requests=(NetworkRequest(0.0, 0.0, 10.0, 10**300, "https://a.test"),),
            visual_progress=(VisualSample(latest if shifted == "visual sample" else 10.0, 1.0),),
        )
        with pytest.raises(ThrottleOverflow, match="a time reached inf"):
            apply_throttle(trace, FOUR_G)


def tied_requests(rng: random.Random) -> list[NetworkRequest]:
    """Requests on a grid of six instants: many zero-length requests, equal
    ends, and discoveries at some request's end, often the request's own.
    The grid step is not a binary fraction, so sums round as real times do."""
    requests = []
    for _ in range(rng.randint(0, 9)):
        if rng.random() < 0.3:
            discovered = start = end = rng.randint(0, 5) * 137.3
        else:
            discovered, start, end = sorted(rng.randint(0, 5) * 137.3 for _ in range(3))
        requests.append(NetworkRequest(discovered, start, end, rng.choice((0, 0, 500, 20000)), "https://a.test"))
    return requests


class TestParentRuleOracle:
    SETS = 2000

    def test_plan_matches_the_pairwise_scan(self):
        rng = random.Random(0x9A7E)
        for _ in range(self.SETS):
            requests = tied_requests(rng)
            parents, offsets = parent_rule(NormalizedTrace(requests=tuple(requests)))
            got = [(None if parent < 0 else parent, offset) for parent, offset in zip(parents, offsets)]
            assert got == parent_scan(requests), requests

    def test_paints_and_samples_shift_with_the_scanned_request(self):
        rng = random.Random(0x5417)
        for _ in range(self.SETS):
            requests = tied_requests(rng)
            # half-steps fall between the grid's end times; 0 may precede every end
            times = sorted(rng.randint(0, 12) * 137.3 / 2 for _ in range(rng.randint(1, 5)))
            trace = NormalizedTrace(
                paint_events=tuple(PaintEvent(t, "contentful-paint") for t in times),
                requests=tuple(requests),
                visual_progress=tuple(VisualSample(t, 1.0) for t in times),
            )
            out = apply_throttle(trace, FOUR_G)
            want = []
            for t in times:
                j = shift_source_scan(requests, t)
                want.append(t + (0.0 if j is None else out.requests[j].end_ms - requests[j].end_ms))
            assert [p.t_ms for p in out.paint_events] == want, requests
            assert [s.t_ms for s in out.visual_progress] == sorted(want), requests


def burst_plan(rng: random.Random) -> tuple[list[int], list[float], list[int]]:
    """(parents, offsets, sizes) of up to ~200 requests, discovered in bursts
    of up to 64 siblings.

    Sizes come from a palette of four per plan: 0 bytes, two whole numbers
    of kilobits and one odd size, so many flows share a finish tag and
    complete together. An offset of 0 under a zero round trip lands a
    child's arrival exactly on its parent's completion. A quarter of the
    plans open with one 200,000 kbit transfer that every later request
    waits on, so the virtual clock has run far before the bursts begin.
    """
    palette = [0, rng.choice((125, 12500, 62500)), rng.choice((125, 12500, 62500)) * rng.randint(2, 9)]
    palette.append(rng.randint(1, 100000))
    target = rng.randint(1, 200)
    parents: list[int] = []
    offsets: list[float] = []
    sizes: list[int] = []
    if rng.random() < 0.25:
        parents.append(-1)
        offsets.append(0.0)
        sizes.append(25_000_000)
    lone_opening = bool(parents)
    while len(parents) < target:
        burst = min(rng.choice((1, 1, 2, 4, rng.randint(1, 64))), target - len(parents))
        parent = -1 if not parents or (not lone_opening and rng.random() < 0.2) else rng.randrange(len(parents))
        offset = rng.choice((0.0, 0.0, float(rng.randint(0, 400)), rng.randint(0, 400) * 0.1))
        for _ in range(burst):
            parents.append(parent)
            offsets.append(offset)
            sizes.append(rng.choice(palette))
    return parents, offsets, sizes


class TestShareRescanOracle:
    """The virtual clock against the per-flow loop it replaced."""

    PLANS = 2000

    def test_ends_match_the_rescan(self):
        rng = random.Random(0x6B5)
        for i in range(self.PLANS):
            p = burst_plan(rng)
            profile = ThrottleProfile(
                rtt_ms=rng.choice((0.0, 0.0, 40.0, 150.0, 562.5)),
                downlink_kbps=rng.choice((1000.0, 1000.0, 1638.4, 9000.0, 1500.0)),
            )
            want_starts, want_ends = share_rescan(*p, profile)
            starts, ends = waterfall_times(*p, profile)
            for j, (start, end) in enumerate(zip(starts, ends)):
                assert abs(start - want_starts[j]) <= 1e-9, (i, j, start)
                assert abs(end - want_ends[j]) <= 1e-9, (i, j, end)

    def test_a_far_clock_still_retires_every_flow(self):
        # Past 1e7 ms, now + a flow's drain time can round back to now, and
        # the clock can stop short of the smallest tag.
        rng = random.Random(0xFA7)
        for i in range(200):
            p = burst_plan(rng)
            profile = ThrottleProfile(rtt_ms=rng.choice((1e7, 3e7)), downlink_kbps=rng.choice((750.0, 1000.0, 1638.0)))
            _, want_ends = share_rescan(*p, profile)
            _, ends = waterfall_times(*p, profile)
            for j, end in enumerate(ends):
                assert end == pytest.approx(want_ends[j], rel=1e-15, abs=0), (i, j, end)

    def test_wide_bursts_match_the_exact_march(self):
        rng = random.Random(0x3A9C)
        for i in range(8):
            n = rng.randint(30, 64)
            palette = (0, 12500, 12500, rng.randint(1, 40000))
            parents, offsets, sizes = [], [], []
            for k in range(n):
                parents.append(-1 if k < n // 2 or rng.random() < 0.3 else rng.randrange(k))
                offsets.append(rng.choice((0.0, 0.0, 5.0, rng.randint(0, 40) * 0.7)))
                sizes.append(rng.choice(palette))
            profile = ThrottleProfile(rtt_ms=rng.choice((0.0, 28.0)), downlink_kbps=rng.choice((20000.0, 16384.0)))
            _, want_ends = waterfall_march(parents, offsets, sizes, profile)
            _, ends = waterfall_times(parents, offsets, sizes, profile)
            for j, end in enumerate(ends):
                assert abs(end - want_ends[j]) <= 1e-6, (i, j, end)


def chain_plan(rng: random.Random) -> tuple[list[int], list[float], list[int]]:
    """(parents, offsets, sizes) of a chain up to 300 deep, with a few
    side branches; a tenth of the plans get a cycle somewhere."""
    n = rng.randint(2, 300)
    parents = [-1] + [i - 1 if rng.random() < 0.9 else rng.randrange(i) for i in range(1, n)]
    if rng.random() < 0.1:
        k = rng.randrange(n)
        parents[k] = rng.randrange(k, n)  # k waits on itself or on one below it
    offsets = [rng.choice((0.0, 0.0, 3.5, float(rng.randint(0, 90)))) for _ in range(n)]
    sizes = [rng.choice((0, 125, 12500, rng.randint(1, 90000))) for _ in range(n)]
    return parents, offsets, sizes


def kernel_case(rng: random.Random) -> tuple[list[int], list[float], list[int], ThrottleProfile]:
    """A plan and a profile: small random plans, bursts of up to 64 siblings
    with tied finish tags, deep chains and cycles, under links with a zero
    round trip, an unlimited downlink, a far clock, values near the float
    limit, or a NaN downlink forced past validation."""
    parents, offsets, sizes = rng.choice((random_plan, burst_plan, chain_plan))(rng)
    link = rng.choice(("plain", "plain", "zero-rtt", "unlimited", "far", "huge", "nan"))
    rtt = {"zero-rtt": 0.0, "far": rng.choice((1e7, 3e7)), "huge": 1e308}.get(link, float(rng.randint(0, 400)))
    downlink = {"unlimited": math.inf, "huge": 1e-300}.get(link, rng.choice((750.0, 1000.0, 1638.4, 20000.0)))
    if link == "huge":
        sizes = [rng.choice((size, 2**70)) for size in sizes]
    profile = ThrottleProfile(rtt, downlink)
    if link == "nan":
        profile = tuple.__new__(ThrottleProfile, (rtt, math.nan, 1.0))
    return parents, offsets, sizes, profile


def kernel_outcome(kernel, parents, offsets, sizes, profile):
    """The kernel's (starts, ends) as float.hex strings, which tell -0.0 from
    0.0 and match NaN with NaN, or the class and text of what it raised."""
    try:
        starts, ends = call_within(10, kernel, parents, offsets, sizes, profile)
    except (CyclicPlan, ThrottleOverflow) as exc:
        return type(exc), str(exc)
    return [x.hex() for x in starts], [x.hex() for x in ends]


class TestMinMaxKernelOracle:
    """The kernel's event loop against the min/max loop it replaced, bit for bit."""

    def test_outcomes_match_bit_for_bit(self):
        rng = random.Random(0xB17)
        raised = set()
        for i in range(1500):
            case = kernel_case(rng)
            want = kernel_outcome(waterfall_times_minmax, *case)
            assert kernel_outcome(waterfall_times, *case) == want, (i, case)
            if isinstance(want[0], type):
                raised.add(want[0])
        assert raised == {CyclicPlan, ThrottleOverflow}

    def test_large_replays_match_bit_for_bit(self):
        rng = random.Random(0xB18)
        for i in range(4):
            trace = burst_trace(rng, rng.randint(200, 1000))
            parents, offsets = parent_rule(trace)
            case = (parents, offsets, [req.bytes for req in trace.requests], FOUR_G)
            assert kernel_outcome(waterfall_times, *case) == kernel_outcome(waterfall_times_minmax, *case), i


def burst_trace(rng: random.Random, n: int) -> NormalizedTrace:
    """A recorded page of n requests discovered in bursts of up to 64 siblings.

    A burst is discovered at once, at the end of a request already placed
    plus a gap that is often zero; a fifth of the bursts start from
    navigation. Transfer times come from a palette of four and starts from
    two round trips, so siblings often end together. Zero-byte requests end
    as they start. Paints and visual samples sit on and between request ends.
    Two tasks: the second starts just after the first paint, or once the
    first task ends if that is later, so the trace is one the schema accepts.
    """
    durations = (0.0, 137.3, rng.choice((250.0, 562.5)), rng.randint(1, 40000) * 0.1)
    sizes = (0, 12500, 62500, rng.randint(1, 100000))
    requests: list[NetworkRequest] = []
    while len(requests) < n:
        burst = min(rng.choice((1, 1, 2, 4, rng.randint(1, 64))), n - len(requests))
        base = 0.0 if not requests or rng.random() < 0.2 else rng.choice(requests).end_ms
        discovered = base + rng.choice((0.0, 0.0, float(rng.randint(0, 400)), rng.randint(0, 400) * 0.1))
        for _ in range(burst):
            nbytes = rng.choice(sizes)
            start = discovered + rng.choice((0.0, 28.0))
            end = start + (0.0 if nbytes == 0 else rng.choice(durations))
            requests.append(NetworkRequest(discovered, start, end, nbytes, "https://a.test"))
    times = sorted(rng.choice(requests).end_ms + rng.choice((0.0, 0.0, 5.5)) for _ in range(12))
    first = MainThreadTask(10.0, 40.0)
    return NormalizedTrace(
        paint_events=tuple(PaintEvent(t, "contentful-paint") for t in times),
        tasks=(first, MainThreadTask(max(times[0] + 1.0, first.start_ms + first.dur_ms), 120.0)),
        requests=tuple(requests),
        visual_progress=tuple(VisualSample(t, (k + 1) / len(times)) for k, t in enumerate(times)),
    )


class TestLargeReplay:
    """The throttled replay of large, bursty pages."""

    def test_burst_traces_are_valid_traces(self):
        for seed, n in [*((seed, 100) for seed in range(200)), *self.PINNED]:
            trace = burst_trace(random.Random(seed), n)
            assert NormalizedTrace.from_dict(trace.to_dict()) == trace, seed

    def test_replay_matches_the_rescan_and_the_kernel(self):
        calibration = load_calibration()
        rng = random.Random(0x1A26E)
        for i in range(6):
            trace = burst_trace(rng, rng.randint(200, 1000))
            profile = resolve_throttle("4g", calibration, calibration.mode(("mobile", "desktop")[i % 2]))
            parents, offsets = parent_rule(trace)
            sizes = [req.bytes for req in trace.requests]
            out = apply_throttle(trace, profile).requests
            want_starts, want_ends = share_rescan(parents, offsets, sizes, profile)
            for j, new in enumerate(out):
                assert abs(new.start_ms - want_starts[j]) <= 1e-9, (i, j, new)
                assert abs(new.end_ms - want_ends[j]) <= 1e-9, (i, j, new)
            starts, ends = waterfall_times(parents, offsets, sizes, profile)
            assert out == tuple(
                NetworkRequest(start - profile.rtt_ms, start, end, old.bytes, old.origin)
                for old, start, end in zip(trace.requests, starts, ends)
            ), i

    # sha256 of the throttled trace document; any change in the order of
    # the replay's float operations changes these.
    PINNED = {
        (0xD16E57, 300): "aff2f26eb41a1ec7f4eb6207be574c08f2be5f5f1a3236a5f54a3a69695d6340",
        (0xD16E58, 700): "c5b6f7653eaac3af4e911b673b601be9cc8a6988651bcffc60d2dd21cdd88bcd",
        (0xD16E59, 1000): "b6e72464e2b88e98ad5859937a10a5c87cca59653eab893a8e6331fbf51b9f70",
    }

    @pytest.mark.parametrize("seed,n", sorted(PINNED), ids=lambda v: str(v))
    def test_throttled_documents_are_pinned(self, seed, n):
        out = apply_throttle(burst_trace(random.Random(seed), n), FOUR_G)
        text = json.dumps(out.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.PINNED[seed, n]
