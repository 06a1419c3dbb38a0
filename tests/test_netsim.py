"""Waterfall simulation, plan inference, and trace throttling."""

import hashlib
import json
import math
import random

import pytest

from oracles import parent_scan, share_rescan, shift_source_scan, waterfall_march
from conftest import call_within, random_plan, random_profile
from webaudit.config import load_calibration, resolve_throttle
from webaudit.errors import CyclicPlan, ThrottleOverflow
from webaudit.netsim import (
    PlannedRequest,
    ThrottleProfile,
    UNTHROTTLED,
    WaterfallPlan,
    apply_throttle,
    infer_plan,
    simulate_waterfall,
)
from webaudit.trace import (
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
)

FOUR_G = ThrottleProfile(rtt_ms=100.0, downlink_kbps=1000.0, cpu_multiplier=1.0)


def plan(*reqs) -> WaterfallPlan:
    return WaterfallPlan(tuple(PlannedRequest(*r) for r in reqs))


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
        assert UNTHROTTLED.is_identity
        assert not FOUR_G.is_identity
        assert not ThrottleProfile(0.0, math.inf, 4.0).is_identity


class TestPlanValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan(("a", None, 0.0, 10), ("a", None, 0.0, 10))

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="unknown parent"):
            plan(("a", "ghost", 0.0, 10))

    def test_cycle_rejected(self):
        with pytest.raises(CyclicPlan):
            plan(("a", "b", 0.0, 10), ("b", "a", 0.0, 10))

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            PlannedRequest("a", None, -1.0, 10)
        with pytest.raises(ValueError):
            PlannedRequest("a", None, 0.0, -10)
        for offset in (math.nan, math.inf):
            with pytest.raises(ValueError, match="discovery_offset_ms"):
                PlannedRequest("a", None, offset, 10)


class TestSimulateWaterfall:
    def test_single_request(self):
        # 500 kilobits through a 1000 kbps pipe after one 100 ms round trip
        sims = simulate_waterfall(plan(("a", None, 0.0, 62500)), FOUR_G)
        assert [(s.start_ms, s.end_ms) for s in sims] == [(100.0, 600.0)]

    def test_two_simultaneous_requests_share_the_pipe(self):
        sims = simulate_waterfall(
            plan(("a", None, 0.0, 62500), ("b", None, 0.0, 62500)), FOUR_G
        )
        assert [(s.start_ms, s.end_ms) for s in sims] == [(100.0, 1100.0), (100.0, 1100.0)]

    def test_chained_request_waits_for_parent(self):
        sims = simulate_waterfall(
            plan(("a", None, 0.0, 62500), ("b", "a", 0.0, 25000)), FOUR_G
        )
        assert [(s.start_ms, s.end_ms) for s in sims] == [(100.0, 600.0), (700.0, 900.0)]

    def test_results_sorted_by_id(self):
        sims = simulate_waterfall(
            plan(("z", None, 0.0, 1000), ("a", "z", 0.0, 1000)), FOUR_G
        )
        assert [s.id for s in sims] == ["a", "z"]

    def test_zero_bytes_finish_instantly(self):
        sims = simulate_waterfall(plan(("a", None, 40.0, 0)), FOUR_G)
        assert [(s.start_ms, s.end_ms) for s in sims] == [(140.0, 140.0)]

    def test_infinite_downlink_transfers_instantly(self):
        profile = ThrottleProfile(50.0, math.inf, 1.0)
        sims = simulate_waterfall(
            plan(("a", None, 0.0, 10**9), ("b", "a", 10.0, 10**9)), profile
        )
        assert [(s.start_ms, s.end_ms) for s in sims] == [(50.0, 50.0), (110.0, 110.0)]

    def test_empty_plan(self):
        assert simulate_waterfall(WaterfallPlan(()), FOUR_G) == []

    def test_late_arrival_slows_the_first_transfer(self):
        # b arrives at 600 when a still has 500 kbits left; they then share
        sims = simulate_waterfall(
            plan(("a", None, 0.0, 125000), ("b", None, 500.0, 62500)), FOUR_G
        )
        by_id = {s.id: s for s in sims}
        assert by_id["a"].end_ms == pytest.approx(1600.0, abs=1e-6)
        assert by_id["b"].end_ms == pytest.approx(1600.0, abs=1e-6)

    def test_matches_exact_oracle_on_random_plans(self, rng):
        for _ in range(200):
            p = random_plan(rng)
            profile = random_profile(rng)
            expected = waterfall_march(p, profile)
            for sim in simulate_waterfall(p, profile):
                want_start, want_end = expected[sim.id]
                assert sim.start_ms == pytest.approx(want_start, abs=1e-3)
                assert sim.end_ms == pytest.approx(want_end, abs=1e-3)

    def test_a_turn_that_retires_nothing_raises(self):
        # Validation rejects a NaN downlink; forced in, it makes every event
        # time NaN, so no turn can retire a transfer.
        profile = ThrottleProfile(0.0, 1000.0)
        object.__setattr__(profile, "downlink_kbps", math.nan)
        with pytest.raises(ThrottleOverflow, match="stalled"):
            call_within(10, simulate_waterfall, plan(("a", None, 0.0, 1000)), profile)


class TestInferPlan:
    def test_parent_is_latest_request_done_by_discovery(self):
        trace = NormalizedTrace(
            requests=(
                NetworkRequest(0.0, 10.0, 600.0, 100, "https://a.test"),
                NetworkRequest(600.0, 620.0, 900.0, 100, "https://a.test"),
                NetworkRequest(300.0, 310.0, 450.0, 100, "https://a.test"),
            )
        )
        p = infer_plan(trace)
        assert [r.parent_id for r in p.requests] == [None, "000000", None]
        assert [r.discovery_offset_ms for r in p.requests] == [0.0, 0.0, 300.0]

    def test_tie_prefers_earliest_finisher(self):
        trace = NormalizedTrace(
            requests=(
                NetworkRequest(0.0, 0.0, 500.0, 100, "https://a.test"),
                NetworkRequest(0.0, 0.0, 500.0, 100, "https://a.test"),
                NetworkRequest(500.0, 510.0, 700.0, 100, "https://a.test"),
            )
        )
        assert infer_plan(trace).requests[2].parent_id == "000000"

    def test_simultaneous_zero_length_twins_stay_acyclic(self):
        # the naive rule would make these two adopt each other
        trace = NormalizedTrace(
            requests=(
                NetworkRequest(100.0, 100.0, 100.0, 0, "https://a.test"),
                NetworkRequest(100.0, 100.0, 100.0, 0, "https://a.test"),
            )
        )
        p = infer_plan(trace)
        assert [r.parent_id for r in p.requests] == [None, "000000"]

    def test_ids_follow_trace_order(self, rng):
        from conftest import random_trace

        trace = random_trace(rng)
        p = infer_plan(trace)
        assert [r.id for r in p.requests] == sorted(r.id for r in p.requests)
        assert [r.bytes for r in p.requests] == [r.bytes for r in trace.requests]


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

    def test_unconstrained_network_collapses_recorded_network_time(self):
        # re-simulation attributes the recorded transfer time to the
        # recording network, so an infinite pipe pulls everything to 0
        profile = ThrottleProfile(0.0, math.inf, 4.0)
        out = apply_throttle(self.base_trace(), profile)
        assert out.requests == (NetworkRequest(0.0, 0.0, 0.0, 125000, "https://a.test"),)
        assert out.tasks == (MainThreadTask(200.0, 160.0), MainThreadTask(820.0, 400.0))
        assert [p.t_ms for p in out.paint_events] == [50.0, 50.0]


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
            plan = infer_plan(NormalizedTrace(requests=tuple(requests)))
            got = [
                (None if r.parent_id is None else int(r.parent_id), r.discovery_offset_ms) for r in plan.requests
            ]
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


def burst_plan(rng: random.Random) -> WaterfallPlan:
    """Up to ~200 requests, discovered in bursts of up to 64 siblings.

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
    requests: list[PlannedRequest] = []
    if rng.random() < 0.25:
        requests.append(PlannedRequest("r000", None, 0.0, 25_000_000))
    lone_opening = bool(requests)
    while len(requests) < target:
        burst = min(rng.choice((1, 1, 2, 4, rng.randint(1, 64))), target - len(requests))
        parent = None if not requests or (not lone_opening and rng.random() < 0.2) else rng.choice(requests).id
        offset = rng.choice((0.0, 0.0, float(rng.randint(0, 400)), rng.randint(0, 400) * 0.1))
        for _ in range(burst):
            requests.append(PlannedRequest(f"r{len(requests):03d}", parent, offset, rng.choice(palette)))
    return WaterfallPlan(tuple(requests))


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
            want = share_rescan(p, profile)
            for sim in simulate_waterfall(p, profile):
                assert abs(sim.start_ms - want[sim.id][0]) <= 1e-9, (i, sim)
                assert abs(sim.end_ms - want[sim.id][1]) <= 1e-9, (i, sim)

    def test_a_far_clock_still_retires_every_flow(self):
        # Past 1e7 ms, now + a flow's drain time can round back to now, and
        # the clock can stop short of the smallest tag.
        rng = random.Random(0xFA7)
        for i in range(200):
            p = burst_plan(rng)
            profile = ThrottleProfile(rtt_ms=rng.choice((1e7, 3e7)), downlink_kbps=rng.choice((750.0, 1000.0, 1638.0)))
            want = share_rescan(p, profile)
            for sim in simulate_waterfall(p, profile):
                assert sim.end_ms == pytest.approx(want[sim.id][1], rel=1e-15, abs=0), (i, sim)

    def test_wide_bursts_match_the_exact_march(self):
        rng = random.Random(0x3A9C)
        for i in range(8):
            n = rng.randint(30, 64)
            palette = (0, 12500, 12500, rng.randint(1, 40000))
            requests = []
            for k in range(n):
                parent = None if k < n // 2 or rng.random() < 0.3 else f"r{rng.randrange(k):02d}"
                offset = rng.choice((0.0, 0.0, 5.0, rng.randint(0, 40) * 0.7))
                requests.append(PlannedRequest(f"r{k:02d}", parent, offset, rng.choice(palette)))
            p = WaterfallPlan(tuple(requests))
            profile = ThrottleProfile(rtt_ms=rng.choice((0.0, 28.0)), downlink_kbps=rng.choice((20000.0, 16384.0)))
            want = waterfall_march(p, profile)
            for sim in simulate_waterfall(p, profile):
                assert abs(sim.end_ms - want[sim.id][1]) <= 1e-6, (i, sim)


def burst_trace(rng: random.Random, n: int) -> NormalizedTrace:
    """A recorded page of n requests discovered in bursts of up to 64 siblings.

    A burst is discovered at once, at the end of a request already placed
    plus a gap that is often zero; a fifth of the bursts start from
    navigation. Transfer times come from a palette of four and starts from
    two round trips, so siblings often end together. Zero-byte requests end
    as they start. Paints and visual samples sit on and between request ends.
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
    return NormalizedTrace(
        paint_events=tuple(PaintEvent(t, "contentful-paint") for t in times),
        tasks=(MainThreadTask(10.0, 40.0), MainThreadTask(times[0] + 1.0, 120.0)),
        requests=tuple(requests),
        visual_progress=tuple(VisualSample(t, (k + 1) / len(times)) for k, t in enumerate(times)),
    )


class TestLargeReplay:
    """The throttled replay of large, bursty pages."""

    def test_replay_matches_the_rescan_and_the_plan_adapters(self):
        calibration = load_calibration()
        rng = random.Random(0x1A26E)
        for i in range(6):
            trace = burst_trace(rng, rng.randint(200, 1000))
            profile = resolve_throttle("4g", calibration, calibration.mode(("mobile", "desktop")[i % 2]))
            plan = infer_plan(trace)
            out = apply_throttle(trace, profile).requests
            want = share_rescan(plan, profile)
            for planned, new in zip(plan.requests, out):
                assert abs(new.start_ms - want[planned.id][0]) <= 1e-9, (i, planned)
                assert abs(new.end_ms - want[planned.id][1]) <= 1e-9, (i, planned)
            sims = simulate_waterfall(plan, profile)
            assert out == tuple(
                NetworkRequest(sim.start_ms - profile.rtt_ms, sim.start_ms, sim.end_ms, old.bytes, old.origin)
                for old, sim in zip(trace.requests, sims)
            ), i

    # sha256 of the throttled trace document; any change in the order of
    # the replay's float operations changes these.
    PINNED = {
        (0xD16E57, 300): "aff2f26eb41a1ec7f4eb6207be574c08f2be5f5f1a3236a5f54a3a69695d6340",
        (0xD16E58, 700): "49db576bc23d8a77222cf0261fdc4295e4db4ae4e031e8676e32e6fdb7faad10",
        (0xD16E59, 1000): "a1137aaaa7064c8fa219ece920ee5aa3e515d21e64a2abeb64bada39f6cf1c4f",
    }

    @pytest.mark.parametrize("seed,n", sorted(PINNED), ids=lambda v: str(v))
    def test_throttled_documents_are_pinned(self, seed, n):
        out = apply_throttle(burst_trace(random.Random(seed), n), FOUR_G)
        text = json.dumps(out.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.PINNED[seed, n]
