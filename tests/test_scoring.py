"""Scoring curves, weights, aggregation, and category bands."""

import math
import random
from decimal import Decimal

import pytest

from oracles import (
    aggregate_per_call,
    metric_score_oracle,
    metric_score_per_call,
    normal_cdf_oracle,
    z90_oracle,
)
from webaudit.metrics import MetricSet
from webaudit.scoring import (
    _Z_90,
    CategoryBands,
    METRIC_KEYS,
    ScoreCurve,
    WeightTable,
    aggregate,
    categorize,
    metric_score,
    normal_cdf,
    round_half_away,
    score_metrics,
)


class TestNormalCdf:
    def test_matches_high_precision_oracle(self):
        for z in [x / 4 for x in range(-32, 33)]:
            assert normal_cdf(z) == pytest.approx(normal_cdf_oracle(z), abs=1e-9)

    def test_symmetry_and_midpoint(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.5) + normal_cdf(-1.5) == pytest.approx(1.0, abs=1e-15)

    def test_z90_constant(self):
        assert _Z_90 == pytest.approx(z90_oracle(), abs=1e-12)
        assert normal_cdf(_Z_90) == pytest.approx(0.9, abs=1e-12)


class TestScoreCurve:
    def test_podr_must_sit_below_median(self):
        ScoreCurve(median_ms=4000.0, podr_ms=2000.0)
        for median, podr in ((1000.0, 1000.0), (1000.0, 2000.0), (1000.0, 0.0), (0.0, 0.0), (-5.0, -10.0)):
            with pytest.raises(ValueError, match="^need 0 < podr_ms < median_ms"):
                ScoreCurve(median_ms=median, podr_ms=podr)


class TestMetricScore:
    curve = ScoreCurve(median_ms=4000.0, podr_ms=2000.0)

    def test_control_points(self):
        assert metric_score(4000.0, self.curve) == pytest.approx(50.0, abs=1e-6)
        assert metric_score(2000.0, self.curve) == pytest.approx(90.0, abs=1e-6)

    def test_zero_scores_perfect(self):
        assert metric_score(0.0, self.curve) == 100.0

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            metric_score(-1.0, self.curve)

    def test_matches_oracle_across_decades(self, rng):
        for _ in range(50):
            value = rng.uniform(1.0, 60000.0)
            assert metric_score(value, self.curve) == pytest.approx(
                metric_score_oracle(value, 4000.0, 2000.0), abs=1e-9
            )

    def test_randomized_curves_hold_control_points(self, rng):
        for _ in range(100):
            podr = rng.uniform(50.0, 8000.0)
            median = podr * rng.uniform(1.01, 5.0)
            curve = ScoreCurve(median_ms=median, podr_ms=podr)
            assert metric_score(median, curve) == pytest.approx(50.0, abs=1e-6)
            assert metric_score(podr, curve) == pytest.approx(90.0, abs=1e-6)

    def test_strictly_decreasing(self, rng):
        values = sorted(rng.uniform(1.0, 30000.0) for _ in range(1000))
        scores = [metric_score(v, self.curve) for v in values]
        assert all(a > b for a, b in zip(scores, scores[1:]))


class TestWeights:
    """The packaged calibration's weights: the table the pipeline scores with."""

    def test_defaults_sum_to_one(self, calibration):
        assert math.fsum(calibration.weights.as_dict().values()) == pytest.approx(1.0, abs=1e-9)

    def test_exact_default_values(self, calibration):
        assert calibration.weights.as_dict() == {
            "fcp": 0.2,
            "fmp": 0.067,
            "si": 0.267,
            "tti": 0.333,
            "fci": 0.133,
            "max_fid": 0.0,
        }

    @pytest.mark.parametrize("fcp", [-0.5, 1.2, 0.2 + 2e-9, math.inf, math.nan])
    def test_rejects_a_bad_weight_or_sum(self, calibration, fcp):
        with pytest.raises(ValueError, match="weights must be"):
            calibration.weights._replace(fcp=fcp)


class TestAggregate:
    def full(self, value: float) -> MetricSet:
        return MetricSet(*[value] * len(METRIC_KEYS))

    def test_all_hundreds_give_hundred(self, calibration):
        assert aggregate(self.full(100.0), calibration.weights) == 100.0

    def test_all_zeros_give_zero(self, calibration):
        assert aggregate(self.full(0.0), calibration.weights) == 0.0

    def test_uniform_scores_pass_through(self, calibration):
        for s in (12.5, 33.3, 87.1):
            assert aggregate(self.full(s), calibration.weights) == pytest.approx(s, abs=1e-12)

    def test_single_metric_hundred_reproduces_each_weight_exactly(self, calibration):
        expected = {"fcp": 20.0, "fmp": 6.7, "si": 26.7, "tti": 33.3, "fci": 13.3, "max_fid": 0.0}
        for key, want in expected.items():
            assert aggregate(self.full(0.0)._replace(**{key: 100.0}), calibration.weights) == want

    def test_fid_score_cannot_move_the_aggregate(self, calibration, rng):
        for _ in range(20):
            scores = MetricSet(*(rng.uniform(0.0, 100.0) for _ in METRIC_KEYS))
            low = scores._replace(max_fid=0.0)
            high = scores._replace(max_fid=100.0)
            assert aggregate(low, calibration.weights) == aggregate(high, calibration.weights)

    def test_a_zero_weight_score_is_not_read(self, calibration, rng):
        # Before, a NaN under the packaged max_fid weight of 0 made the result nan, and an infinity raised.
        tables = [calibration.weights] + [random_weights(rng) for _ in range(40)]
        for weights in tables:
            zero = [key for key, weight in weights.as_dict().items() if weight == 0]
            scores = MetricSet(*(rng.uniform(0.0, 100.0) for _ in METRIC_KEYS))
            want = aggregate(scores, weights).hex()
            for bad in (math.nan, math.inf, -math.inf, "not a number"):
                assert aggregate(scores._replace(**dict.fromkeys(zero, bad)), weights).hex() == want
        assert sum(1 for weights in tables if 0.0 in weights.as_dict().values()) > 10

    @pytest.mark.parametrize("count", [5, 7])
    def test_a_score_sequence_of_the_wrong_length_is_rejected(self, calibration, count):
        # Not a smaller or a truncated sum: five scores under six weights, or seven.
        with pytest.raises(ValueError):
            aggregate([50.0] * count, calibration.weights)

    def test_custom_weights(self):
        weights = WeightTable(fcp=1.0, fmp=0.0, si=0.0, tti=0.0, fci=0.0, max_fid=0.0)
        assert aggregate(self.full(0.0)._replace(fcp=73.0), weights) == 73.0


class TestCategorize:
    def test_band_edges(self, calibration):
        bands = calibration.bands
        assert categorize(89.9999, bands) == "average"
        assert categorize(90.0, bands) == "good"
        assert categorize(50.0, bands) == "average"
        assert categorize(49.9999, bands) == "poor"
        assert categorize(0.0, bands) == "poor"
        assert categorize(100.0, bands) == "good"

    def test_custom_bands(self):
        bands = CategoryBands(good_min=80.0, average_min=30.0)
        assert categorize(85.0, bands) == "good"
        assert categorize(29.0, bands) == "poor"


class TestScoreMetrics:
    def test_report_fields_are_consistent(self, simple_trace, calibration):
        from webaudit.metrics import compute_all

        metrics = compute_all(simple_trace, calibration.quiet_window)
        curves = calibration.curves_for("mobile")
        report = score_metrics(metrics, curves, calibration.weights, calibration.bands)
        assert type(report.scores) is MetricSet
        assert report.scores == tuple(metric_score(value, curves[key]) for key, value in zip(METRIC_KEYS, metrics))
        assert report.performance_score == aggregate(report.scores, calibration.weights)
        assert report.category == categorize(report.performance_score, calibration.bands)
        assert all(0.0 <= s <= 100.0 for s in report.scores)


def random_weights(rng) -> WeightTable:
    """A valid table: six draws, some zero, divided by their sum."""
    draws = [rng.choice((0.0, rng.random(), round(rng.random(), 3))) for _ in METRIC_KEYS]
    draws[rng.randrange(len(draws))] += 1.0  # never all zero
    total = sum(draws)
    return WeightTable(*(draw / total for draw in draws))


def metric_values(rng) -> list[float]:
    ranges = ((0.0, 1.0), (1.0, 60000.0), (1e5, 1e12))
    return [rng.choice((0.0, rng.uniform(*rng.choice(ranges)))) for _ in METRIC_KEYS]


class TestFixedConstants:
    """Curve and weight constants fixed once give the bits the per-call
    formulas give."""

    def test_packaged_curves_score_as_the_per_call_formula(self, calibration, rng):
        for kind, curves in calibration.curves.items():
            for key, curve in curves.items():
                for value in [0.0, curve.podr_ms, curve.median_ms, *(rng.uniform(0.0, 60000.0) for _ in range(200))]:
                    want = metric_score_per_call(value, curve.median_ms, curve.podr_ms)
                    assert metric_score(value, curve).hex() == want.hex(), (kind, key, value)

    def test_random_curves_score_as_the_per_call_formula(self, rng):
        for _ in range(300):
            podr = rng.choice((rng.uniform(1e-3, 10.0), rng.uniform(10.0, 8000.0)))
            median = podr * rng.choice((1.0 + 1e-9, rng.uniform(1.0001, 50.0)))
            curve = ScoreCurve(median_ms=median, podr_ms=podr)
            for value in metric_values(rng):
                assert metric_score(value, curve).hex() == metric_score_per_call(value, median, podr).hex()

    def test_aggregate_matches_the_per_call_formula(self, calibration, rng):
        for i in range(500):
            weights = calibration.weights if i % 5 == 0 else random_weights(rng)
            scores = MetricSet(*(rng.choice((0.0, 100.0, rng.uniform(0.0, 100.0))) for _ in METRIC_KEYS))
            want = aggregate_per_call(scores._asdict(), weights.as_dict())
            assert aggregate(scores, weights).hex() == want.hex(), (weights, scores)

    def test_score_metrics_matches_the_per_call_formulas(self, calibration, rng):
        for i in range(300):
            kind = ("mobile", "desktop")[i % 2]
            curves = calibration.curves_for(kind)
            weights = calibration.weights if i % 3 == 0 else random_weights(rng)
            metrics = MetricSet(*metric_values(rng))
            report = score_metrics(metrics, curves, weights, calibration.bands)
            want = {
                key: metric_score_per_call(value, curves[key].median_ms, curves[key].podr_ms)
                for key, value in zip(METRIC_KEYS, metrics)
            }
            assert [score.hex() for score in report.scores] == [want[key].hex() for key in METRIC_KEYS]
            assert report.performance_score.hex() == aggregate_per_call(want, weights.as_dict()).hex()

    def test_replace_recomputes_the_fixed_constants(self, calibration):
        curve = ScoreCurve(median_ms=4000.0, podr_ms=2000.0)._replace(median_ms=8000.0)
        assert (curve.mu, curve.sigma) == (math.log(8000.0), (math.log(8000.0) - math.log(2000.0)) / _Z_90)
        assert metric_score(8000.0, curve) == metric_score_per_call(8000.0, 8000.0, 2000.0)
        weights = calibration.weights._replace(fcp=0.0, max_fid=0.2)
        assert weights.decimals == tuple(Decimal(repr(w)) for w in weights.as_dict().values())
        assert aggregate(MetricSet(*[100.0] * 6), weights) == 100.0
        assert aggregate(MetricSet(*[0.0] * 6)._replace(max_fid=100.0), weights) == 20.0

    def test_fixed_constants_are_fields_that_follow_from_the_others(self, calibration):
        curve = ScoreCurve(4000.0, 2000.0)
        assert curve == ScoreCurve(4000.0, 2000.0, mu=0.0, sigma=0.0) == (4000.0, 2000.0, curve.mu, curve.sigma)
        assert repr(curve) == f"ScoreCurve(median_ms=4000.0, podr_ms=2000.0, mu={curve.mu!r}, sigma={curve.sigma!r})"
        assert calibration.weights._replace(decimals=()) == calibration.weights
        assert repr(calibration.weights).endswith(f"decimals={calibration.weights.decimals!r})")


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.5, 0) == 1.0
        assert round_half_away(1.25, 1) == 1.3
        assert round_half_away(2.675, 2) == 2.68  # binary-float trap: repr is exact
        assert round_half_away(-0.5, 0) == -1.0
        assert round_half_away(38.65, 1) == 38.7
        assert round_half_away(63.55, 1) == 63.6
