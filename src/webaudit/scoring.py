"""Metric-value scoring and the weighted performance score.

Each metric value maps to a 0-100 score along a complementary log-normal
CDF calibrated by two control points: the median value scores 50 and the
point of diminishing returns scores 90. The per-metric scores combine into
the performance score as a weighted arithmetic mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Mapping

from .errors import InvalidCurve, WeightMismatch
from .metrics import METRIC_KEYS, MetricSet


@dataclass(frozen=True)
class ScoreCurve:
    """Control points of one metric's scoring curve, in milliseconds."""

    median_ms: float
    podr_ms: float

    def __post_init__(self):
        if not 0 < self.podr_ms < self.median_ms:
            raise InvalidCurve(
                f"need 0 < podr_ms < median_ms, got podr={self.podr_ms!r} median={self.median_ms!r}"
            )


@dataclass(frozen=True)
class WeightTable:
    """Per-metric category weights; defaults are the shipped weighting."""

    fcp: float = 0.200
    fmp: float = 0.067
    si: float = 0.267
    tti: float = 0.333
    fci: float = 0.133
    max_fid: float = 0.000

    # Each check is written so that NaN fails it.
    def __post_init__(self):
        weights = self.as_dict().values()
        if not all(0 <= w < math.inf for w in weights) or not abs(math.fsum(weights) - 1) <= 1e-9:
            raise ValueError(f"weights must be finite, >= 0 and sum to 1 within 1e-9, got {self.as_dict()!r}")

    def as_dict(self) -> dict[str, float]:
        return {key: getattr(self, key) for key in METRIC_KEYS}


DEFAULT_WEIGHTS = WeightTable()


@dataclass(frozen=True)
class CategoryBands:
    """Score thresholds for the good / average / poor bands (inclusive)."""

    good_min: float = 90.0
    average_min: float = 50.0

    def __post_init__(self):
        if not 0 <= self.average_min < self.good_min <= 100:
            raise ValueError(
                f"need 0 <= average_min < good_min <= 100, got {self.average_min!r}/{self.good_min!r}"
            )


DEFAULT_BANDS = CategoryBands()


@dataclass(frozen=True)
class ScoreReport:
    """Per-metric scores plus the weighted performance score for one audit."""

    scores: Mapping[str, float]
    performance_score: float
    category: str


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# z with normal_cdf(z) = 0.9; fixes the curve spread so the podr scores 90.
# Bisecting normal_cdf gives these bits; NormalDist().inv_cdf(0.9) is 2 ulp
# higher, which would move the report's unrounded means.
_Z_90 = 1.2815515655446004


def metric_score(value: float, curve: ScoreCurve) -> float:
    """Score a metric value on [0, 100]; lower values score higher.

    score = 100 * (1 - Phi((ln value - mu) / sigma)) with mu = ln(median_ms)
    and sigma chosen so the podr lands on 90. A value of 0 scores 100.
    """
    if value < 0:
        raise ValueError(f"metric value must be >= 0, got {value!r}")
    if value == 0:
        return 100.0
    mu = math.log(curve.median_ms)
    sigma = (mu - math.log(curve.podr_ms)) / _Z_90
    z = (math.log(value) - mu) / sigma
    return 100.0 * (1.0 - normal_cdf(z))


def aggregate(scores: Mapping[str, float], weights: WeightTable = DEFAULT_WEIGHTS) -> float:
    """Weighted arithmetic mean of the six metric scores, unrounded.

    Runs in decimal arithmetic so the weights act at their exact decimal
    values: a lone score of 100 under weight 0.267 yields 26.7, not the
    binary-float product 26.700000000000003. Scores carrying zero weight
    cannot perturb the result. Raises WeightMismatch if a score is missing.
    """
    missing = [key for key in METRIC_KEYS if key not in scores]
    if missing:
        raise WeightMismatch(f"missing metric scores: {', '.join(missing)}")
    total = Decimal(0)
    for key in METRIC_KEYS:
        total += Decimal(repr(getattr(weights, key))) * Decimal(repr(float(scores[key])))
    return float(total)


CATEGORIES = ("good", "average", "poor")  # what categorize returns, best first


def categorize(performance_score: float, bands: CategoryBands = DEFAULT_BANDS) -> str:
    """Band a 0-100 performance score into good / average / poor."""
    if performance_score >= bands.good_min:
        return "good"
    if performance_score >= bands.average_min:
        return "average"
    return "poor"


def score_metrics(
    metrics: MetricSet,
    curves: Mapping[str, ScoreCurve],
    weights: WeightTable = DEFAULT_WEIGHTS,
    bands: CategoryBands = DEFAULT_BANDS,
) -> ScoreReport:
    """Score a metric set against one device mode's curves."""
    values = metrics.as_dict()
    scores = {key: metric_score(values[key], curves[key]) for key in METRIC_KEYS}
    performance = aggregate(scores, weights)
    return ScoreReport(scores=scores, performance_score=performance, category=categorize(performance, bands))


def round_half_away(value: float, ndigits: int) -> float:
    """Round half away from zero at a decimal precision, e.g. 0.125 -> 0.13."""
    quantum = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))
