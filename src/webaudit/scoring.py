"""Metric-value scoring and the weighted performance score.

Each metric value maps to a 0-100 score along a complementary log-normal
CDF calibrated by two control points: the median value scores 50 and the
point of diminishing returns scores 90. The per-metric scores combine into
the performance score as a weighted arithmetic mean.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal
from typing import Mapping, NamedTuple, Sequence

from .metrics import METRIC_KEYS, MetricSet
from .trace import _checked_record


# z with normal_cdf(z) = 0.9; fixes the curve spread so the podr scores 90.
# Bisecting normal_cdf gives these bits; NormalDist().inv_cdf(0.9) is 2 ulp
# higher, which would move the report's unrounded means.
_Z_90 = 1.2815515655446004


@_checked_record
class ScoreCurve(NamedTuple):
    """Control points of one metric's scoring curve, in milliseconds.

    ``mu`` and ``sigma``, the curve's log-normal parameters, are fixed once
    here rather than on every score; a value passed for either is replaced.
    """

    median_ms: float
    podr_ms: float
    mu: float = math.nan
    sigma: float = math.nan

    def _check(self):
        if not 0 < self.podr_ms < self.median_ms:
            raise ValueError(
                f"need 0 < podr_ms < median_ms, got podr={self.podr_ms!r} median={self.median_ms!r}"
            )
        mu = math.log(self.median_ms)
        # The spread that puts the podr on 90.
        return self.median_ms, self.podr_ms, mu, (mu - math.log(self.podr_ms)) / _Z_90


WEIGHT_SUM_TOLERANCE = 1e-9  # how far from 1 the weights may sum

# The largest score the pipeline writes, so the largest it reads back: a
# metric scores at most 100, and weights summing to 1 + WEIGHT_SUM_TOLERANCE
# lift a weighted score by up to 100 times that margin, plus rounding.
SCORE_MAX = 100.0 + 200 * WEIGHT_SUM_TOLERANCE


@_checked_record
class WeightTable(NamedTuple):
    """Per-metric category weights.

    ``decimals`` holds each weight's exact decimal value, in METRIC_KEYS
    order, fixed once here for aggregate; a value passed for it is replaced.
    """

    fcp: float
    fmp: float
    si: float
    tti: float
    fci: float
    max_fid: float
    decimals: tuple[Decimal, ...] = ()

    # Each check is written so that NaN fails it.
    def _check(self):
        weights = self.as_dict().values()
        if not all(0 <= w < math.inf for w in weights) or not abs(math.fsum(weights) - 1) <= WEIGHT_SUM_TOLERANCE:
            raise ValueError(
                f"weights must be finite, >= 0 and sum to 1 within {WEIGHT_SUM_TOLERANCE:g}, got {self.as_dict()!r}"
            )
        return (*weights, tuple(Decimal(repr(w)) for w in weights))

    def as_dict(self) -> dict[str, float]:
        return {key: getattr(self, key) for key in METRIC_KEYS}


@_checked_record
class CategoryBands(NamedTuple):
    """Score thresholds for the good / average / poor bands (inclusive)."""

    good_min: float
    average_min: float

    def _check(self):
        if not 0 <= self.average_min < self.good_min <= 100:
            raise ValueError(
                f"need 0 <= average_min < good_min <= 100, got {self.average_min!r}/{self.good_min!r}"
            )


class ScoreReport(NamedTuple):
    """The six per-metric scores, a MetricSet, plus the weighted performance score for one audit."""

    scores: MetricSet
    performance_score: float
    category: str


_SQRT2 = math.sqrt(2.0)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def metric_score(value: float, curve: ScoreCurve) -> float:
    """Score a metric value on [0, 100]; lower values score higher.

    score = 100 * (1 - Phi((ln value - mu) / sigma)) with mu = ln(median_ms)
    and sigma chosen so the podr lands on 90. A value of 0 scores 100.
    """
    if value < 0:
        raise ValueError(f"metric value must be >= 0, got {value!r}")
    if value == 0:
        return 100.0
    z = (math.log(value) - curve.mu) / curve.sigma
    return 100.0 * (1.0 - normal_cdf(z))


def aggregate(scores: Sequence[float], weights: WeightTable) -> float:
    """Weighted arithmetic mean of the six metric scores, in METRIC_KEYS order, unrounded.

    Runs in decimal arithmetic so the weights act at their exact decimal
    values: a lone score of 100 under weight 0.267 yields 26.7, not the
    binary-float product 26.700000000000003. A score under zero weight is
    not read, so not even a NaN or an infinite one there can perturb the
    result. Raises ValueError unless there are six scores.
    """
    total = Decimal(0)
    for score, weight in zip(scores, weights.decimals, strict=True):
        if weight:
            total += weight * Decimal(repr(float(score)))
    return float(total)


CATEGORIES = ("good", "average", "poor")  # what categorize returns, best first


def categorize(performance_score: float, bands: CategoryBands) -> str:
    """Band a 0-100 performance score into good / average / poor."""
    if performance_score >= bands.good_min:
        return "good"
    if performance_score >= bands.average_min:
        return "average"
    return "poor"


def score_metrics(
    metrics: MetricSet, curves: Mapping[str, ScoreCurve], weights: WeightTable, bands: CategoryBands
) -> ScoreReport:
    """Score a metric set against one device mode's curves."""
    # tuple.__new__ builds what MetricSet(*scores) builds, for less: MetricSet checks nothing.
    scores = tuple.__new__(MetricSet, [metric_score(value, curves[key]) for key, value in zip(METRIC_KEYS, metrics)])
    performance = aggregate(scores, weights)
    return ScoreReport(scores=scores, performance_score=performance, category=categorize(performance, bands))


def round_half_away(value: float, ndigits: int) -> float:
    """Round half away from zero at a decimal precision, e.g. 0.125 -> 0.13."""
    quantum = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))
