"""Metric computations against hand-worked values and brute-force oracles."""

import json
import math
import random

import pytest

from oracles import max_fid_brute, overload_intervals_groupby, quiet_window_scan, speed_index_riemann
from conftest import random_trace
from webaudit import config, metrics
from webaudit.config import resolve_throttle
from webaudit.errors import IncompleteVisualProgress, NoContentfulPaint
from webaudit.metrics import (
    MetricSet,
    compute_all,
    compute_fci,
    compute_fcp,
    compute_fmp,
    compute_max_fid,
    compute_speed_index,
    compute_tti,
    link_metrics,
    mode_metrics,
    _overload_intervals,
)
from webaudit.netsim import ThrottleProfile, apply_throttle, replay_link, replay_mode
from webaudit.trace import (
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
)


def paints(*events):
    return NormalizedTrace(paint_events=tuple(PaintEvent(*e) for e in events))


class TestFcp:
    def test_earliest_contentful_event(self):
        t = paints((300.0, "first-paint"), (800.0, "contentful-paint"))
        assert compute_fcp(t) == 800.0

    def test_earliest_wins_when_several(self):
        t = paints((800.0, "contentful-paint"), (600.0, "contentful-paint"))
        assert compute_fcp(t) == 600.0

    def test_no_contentful_event_is_a_failure_not_a_zero(self):
        with pytest.raises(NoContentfulPaint):
            compute_fcp(paints((300.0, "first-paint")))


class TestFmp:
    def test_max_significance_wins(self):
        t = paints(
            (600.0, "contentful-paint"),
            (1000.0, "fmp-candidate", 5.0),
            (2000.0, "fmp-candidate", 12.0),
        )
        assert compute_fmp(t) == 2000.0

    def test_tie_breaks_to_earliest(self):
        t = paints(
            (600.0, "contentful-paint"),
            (2500.0, "fmp-candidate", 7.0),
            (1500.0, "fmp-candidate", 7.0),
        )
        assert compute_fmp(t) == 1500.0

    def test_falls_back_to_fcp_without_candidates(self):
        t = paints((800.0, "contentful-paint"))
        assert compute_fmp(t) == 800.0

    def test_clamped_up_to_fcp(self):
        t = paints((900.0, "contentful-paint"), (400.0, "fmp-candidate", 3.0))
        assert compute_fmp(t) == 900.0


class TestSpeedIndex:
    def test_single_step_to_complete(self):
        t = NormalizedTrace(visual_progress=(VisualSample(1000.0, 1.0),))
        assert compute_speed_index(t) == 1000.0

    def test_two_step_analytic_integral(self):
        t = NormalizedTrace(
            visual_progress=(VisualSample(1000.0, 0.5), VisualSample(3000.0, 1.0))
        )
        assert compute_speed_index(t) == 2000.0

    def test_never_complete_raises(self):
        t = NormalizedTrace(visual_progress=(VisualSample(1000.0, 0.9),))
        with pytest.raises(IncompleteVisualProgress):
            compute_speed_index(t)

    def test_empty_progress_raises(self):
        with pytest.raises(IncompleteVisualProgress):
            compute_speed_index(NormalizedTrace())

    def test_integration_stops_at_first_complete_sample(self):
        # the trailing sample after completeness must not add area
        t = NormalizedTrace(
            visual_progress=(VisualSample(400.0, 1.0), VisualSample(9000.0, 1.0))
        )
        assert compute_speed_index(t) == 400.0

    def test_matches_riemann_oracle_on_random_traces(self, rng):
        for _ in range(200):
            t = random_trace(rng)
            assert compute_speed_index(t) == pytest.approx(speed_index_riemann(t), abs=0.5)


@pytest.fixture
def quiet(calibration):
    return calibration.quiet_window


def quiet_trace(tasks=(), requests=()):
    return NormalizedTrace(
        paint_events=(PaintEvent(500.0, "contentful-paint"),),
        tasks=tuple(MainThreadTask(s, d) for s, d in tasks),
        requests=tuple(
            NetworkRequest(s, s, e, 1000, "https://x.test") for s, e in requests
        ),
    )


class TestTti:
    def test_no_activity_means_fcp(self, quiet):
        assert compute_tti(quiet_trace(), 500.0, quiet) == 500.0

    def test_single_long_task_sets_tti_at_its_end(self, quiet):
        t = quiet_trace(tasks=[(1000.0, 200.0)])
        assert compute_tti(t, 500.0, quiet) == 1200.0

    def test_network_overload_delays_window_but_not_result_without_tasks(self, quiet):
        t = quiet_trace(requests=[(0.0, 10000.0)] * 3)
        assert compute_tti(t, 500.0, quiet) == 500.0

    def test_exactly_fifty_ms_task_is_not_long(self, quiet):
        t = quiet_trace(tasks=[(1000.0, 50.0)])
        assert compute_tti(t, 500.0, quiet) == 500.0

    def test_overload_then_long_task_pushes_past_both(self, quiet):
        t = quiet_trace(tasks=[(11000.0, 100.0)], requests=[(0.0, 10000.0)] * 3)
        assert compute_tti(t, 500.0, quiet) == 11100.0

    def test_two_inflight_requests_are_fine(self, quiet):
        t = quiet_trace(requests=[(0.0, 10000.0)] * 2, tasks=[(600.0, 60.0)])
        assert compute_tti(t, 500.0, quiet) == 660.0

    def test_window_width_is_configurable(self, quiet):
        t = quiet_trace(tasks=[(600.0, 100.0), (1500.0, 100.0)])
        # the packaged window spans both tasks; a 300 ms window fits between them
        assert compute_tti(t, 500.0, quiet) == 1600.0
        assert compute_tti(t, 500.0, quiet._replace(window_ms=300.0)) == 700.0


class TestFci:
    def test_ignores_network_entirely(self, quiet):
        t = quiet_trace(tasks=[(1000.0, 200.0)], requests=[(0.0, 10000.0)] * 3)
        assert compute_fci(t, 500.0, quiet) == 1200.0
        assert compute_fci(t, 500.0, quiet) <= compute_tti(t, 500.0, quiet)

    def test_no_tasks_means_fcp(self, quiet):
        assert compute_fci(quiet_trace(), 500.0, quiet) == 500.0


class TestMaxFid:
    def test_no_overlapping_task_gives_zero(self):
        t = quiet_trace(tasks=[(30.0, 40.0)])
        assert compute_max_fid(t, 500.0, 500.0) == 0.0

    def test_longest_overlapping_task_wins(self):
        t = quiet_trace(tasks=[(600.0, 80.0), (800.0, 120.0), (7000.0, 300.0)])
        assert compute_max_fid(t, 500.0, 920.0) == 120.0

    def test_endpoints_touch_counts_as_overlap(self):
        t = quiet_trace(tasks=[(400.0, 100.0), (900.0, 60.0)])
        # first ends exactly at fcp, second starts exactly at tti
        assert compute_max_fid(t, 500.0, 900.0) == 100.0


class TestAgainstOracles:
    """Randomized agreement with the brute-force window scan and Riemann sum."""

    def test_interactivity_metrics_match_window_scan(self, quiet, rng):
        for _ in range(300):
            t = random_trace(rng)
            fcp = compute_fcp(t)
            assert compute_tti(t, fcp, quiet) == quiet_window_scan(t, fcp, consider_network=True)
            assert compute_fci(t, fcp, quiet) == quiet_window_scan(t, fcp, consider_network=False)

    def test_max_fid_matches_brute_force(self, quiet, rng):
        for _ in range(300):
            t = random_trace(rng)
            fcp = compute_fcp(t)
            tti = compute_tti(t, fcp, quiet)
            assert compute_max_fid(t, fcp, tti) == max_fid_brute(t, fcp, tti)


def requests_over(*spans):
    return [NetworkRequest(0.0, start, end, 1000, "https://x.test") for start, end in spans]


class TestOverloadScan:
    """The sorted-starts-and-ends kernel against the sort + groupby oracle, equal by value.

    A kernel bound is the (k+1)-th start or an end, where the oracle's is the
    first event at that time; so the two may differ in the sign of a zero or
    in int against float. No bound reaches a metric (TestInFlightEdges)."""

    @staticmethod
    def agree(requests, max_inflight=2):
        got = _overload_intervals(requests, max_inflight)
        assert got == overload_intervals_groupby(requests, max_inflight)
        return got

    def test_request_ending_as_another_starts_is_no_overload(self):
        assert self.agree(requests_over((0.0, 100.0), (0.0, 100.0), (100.0, 200.0))) == []
        assert self.agree(requests_over((0.0, 100.0), (100.0, 200.0)), max_inflight=1) == []

    def test_zero_length_requests_are_never_in_flight(self):
        assert self.agree(requests_over((50.0, 50.0), (50.0, 50.0), (50.0, 50.0))) == []
        assert self.agree(requests_over((0.0, 100.0), (50.0, 50.0)), max_inflight=0) == [(0.0, 100.0)]

    def test_several_requests_starting_at_one_instant(self):
        got = self.agree(requests_over((10.0, 300.0), (10.0, 200.0), (10.0, 100.0), (10.0, 400.0)))
        assert got == [(10.0, 200.0)]

    def test_negative_zero_start_is_kept(self):
        got = self.agree(requests_over((-0.0, 100.0), (0.0, 100.0), (0.0, 50.0)))
        assert got == [(-0.0, 50.0)]
        got = self.agree(requests_over((0.0, 100.0), (-0.0, 100.0), (0.0, 50.0)))
        assert repr(got) == "[(0.0, 50.0)]"

    def test_int_end_and_float_starts_at_one_instant(self):
        ends_at_10 = NetworkRequest(0, 0, 10, 1, "https://x.test")
        starts_at_10 = requests_over((10.0, 20.0), (10.0, 20.0))
        # The oracle names the interval by the int end, the first event at 10.
        assert self.agree([ends_at_10] + starts_at_10, max_inflight=1) == [(10, 20.0)]
        assert repr(self.agree(starts_at_10 + [ends_at_10], max_inflight=1)) == "[(10.0, 20.0)]"

    def test_matches_oracle_on_random_traces(self, rng):
        profile = ThrottleProfile(rtt_ms=150.0, downlink_kbps=1600.0)
        for _ in range(300):
            trace = random_trace(rng)
            for requests in (trace.requests, apply_throttle(trace, profile).requests):
                for max_inflight in (0, 1, 2):
                    self.agree(requests, max_inflight)

    def test_matches_oracle_on_crowded_instants(self, rng):
        # Few distinct times, so most events share one with others.
        times = (-0.0, 0.0, 0, 5.0, 5, 10.0, 25.0)
        for _ in range(300):
            spans = []
            for _ in range(rng.randint(0, 12)):
                a, b = rng.choice(times), rng.choice(times)
                spans.append((a, b) if a <= b else (b, a))
            self.agree(requests_over(*spans), rng.randint(0, 3))

    def test_matches_oracle_on_tie_heavy_requests(self, rng):
        # Coincident starts and ends, a third of the requests zero-length, both zeros, k = 0..4.
        times = (-0.0, 0.0, 0, 5.0, 5, 10.0)
        for _ in range(1000):
            spans = []
            for _ in range(rng.randint(0, 16)):
                a = rng.choice(times)
                b = a if rng.random() < 1 / 3 else rng.choice(times)
                spans.append((a, b) if a <= b else (b, a))
            requests = requests_over(*spans)
            for max_inflight in range(5):
                self.agree(requests, max_inflight)


def zero_start_trace(requests):
    """A trace that paints at 0 and has a long task, over the given requests."""
    return NormalizedTrace(
        paint_events=(PaintEvent(0.0, "contentful-paint"),),
        tasks=(MainThreadTask(0.0, 60.0), MainThreadTask(70.0, 60.0)),
        requests=tuple(requests),
        visual_progress=(VisualSample(0.0, 1.0),),
    )


class TestInFlightEdges:
    """The metrics staged like the replay, on a link stage's trace, are the
    very metrics (by repr) compute_all gives the throttled trace alone; and
    the kernel's interval bounds give the very metrics the oracle's do."""

    @pytest.fixture
    def profiles(self, tmp_path, calibration):
        profile_file = tmp_path / "profile.json"
        profile_file.write_text(json.dumps({"rtt_ms": 40, "downlink_kbps": 700, "cpu_multiplier": 2}), "utf-8")
        return [
            resolve_throttle("4g", calibration, calibration.mode("mobile")),
            resolve_throttle(str(profile_file), calibration),
            ThrottleProfile(rtt_ms=150.0, downlink_kbps=math.inf),
            ThrottleProfile(rtt_ms=0.0, downlink_kbps=math.inf, cpu_multiplier=4.0),  # the identity link
        ]

    def test_link_stage_trace_gives_the_same_metrics(self, profiles, quiet, rng):
        for profile in profiles:
            for _ in range(150):
                trace = random_trace(rng)
                link = replay_link(trace, profile)
                staged = mode_metrics(link_metrics(link, quiet), replay_mode(link, profile.cpu_multiplier), quiet)
                assert repr(staged) == repr(compute_all(apply_throttle(trace, profile), quiet))

    def test_kernel_bounds_never_reach_a_metric(self, monkeypatch, quiet, rng):
        ends_at_10 = NetworkRequest(0, 0, 10, 1, "https://x.test")
        traces = [
            zero_start_trace(requests_over((-0.0, 100.0), (0.0, 100.0), (0.0, 50.0))),
            zero_start_trace(requests_over((0.0, 100.0), (-0.0, 100.0), (0.0, 50.0))),
            zero_start_trace([ends_at_10] + requests_over((10.0, 20.0), (10.0, 20.0))),
        ] + [random_trace(rng) for _ in range(200)]
        for trace in traces:
            for k in range(3):
                allowed = quiet._replace(max_inflight_requests=k)
                expected = repr(compute_all(trace, allowed))
                with monkeypatch.context() as patched:

                    def oracle(requests, max_inflight):
                        return overload_intervals_groupby(trace.requests, max_inflight)

                    patched.setattr(metrics, "_overload_intervals", oracle)
                    assert repr(compute_all(trace, allowed)) == expected


class TestComputeAll:
    def test_simple_trace_end_to_end(self, simple_trace, quiet):
        m = compute_all(simple_trace, quiet)
        assert m == MetricSet(800.0, 1500.0, 1460.0, 1100.0, 1100.0, 200.0)
        assert m.as_dict() == dict(fcp=800.0, fmp=1500.0, si=1460.0, tti=1100.0, fci=1100.0, max_fid=200.0)

    def test_ordering_invariants_hold_on_random_traces(self, quiet, rng):
        for _ in range(200):
            m = compute_all(random_trace(rng), quiet)
            assert m.fcp <= m.fci <= m.tti
            assert m.fcp <= m.fmp
            assert m.si >= 0.0
            assert m.max_fid >= 0.0

    def test_without_a_quiet_window_the_packaged_one_applies(self, monkeypatch, quiet):
        trace = NormalizedTrace(
            paint_events=(PaintEvent(500.0, "contentful-paint"),),
            tasks=(MainThreadTask(600.0, 100.0), MainThreadTask(1500.0, 100.0)),
            visual_progress=(VisualSample(500.0, 1.0),),
        )
        assert compute_all(trace) == compute_all(trace, quiet)
        assert compute_all(trace).tti == 1600.0
        document = json.loads(config.default_calibration_text())
        document["quiet_window"]["window_ms"] = 300
        monkeypatch.setattr(config, "default_calibration_text", lambda: json.dumps(document))
        assert compute_all(trace).tti == 700.0
        assert compute_all(trace) == compute_all(trace, quiet._replace(window_ms=300.0))
