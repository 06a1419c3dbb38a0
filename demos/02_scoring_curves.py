"""From metric milliseconds to the 0-100 performance score.

Each metric value runs down a complementary log-normal CDF pinned by two
control points: the curve's median scores 50 and its point of
diminishing returns scores 90. The six scores then combine as a
weighted mean of a MetricSet of scores, in METRIC_KEYS order, and the
result lands in a category band.
"""

from webaudit import (
    ScoreCurve,
    aggregate,
    categorize,
    load_calibration,
    metric_score,
)
from webaudit.metrics import MetricSet

# the shipped weights, bands and per-mode curves
calibration = load_calibration()
weights, bands = calibration.weights, calibration.bands

curve = ScoreCurve(median_ms=4000.0, podr_ms=1700.0)
print(f"curve: median {curve.median_ms:.0f} ms -> 50, podr {curve.podr_ms:.0f} ms -> 90")
print()
print("   value_ms   score")
for value in (0.0, 500.0, 1700.0, 2500.0, 4000.0, 6000.0, 10000.0):
    print(f"   {value:8.0f}   {metric_score(value, curve):6.2f}")

# the control points land exactly where the calibration promises
assert round(metric_score(4000.0, curve)) == 50
assert round(metric_score(1700.0, curve)) == 90

print()
print("default weights:", weights.as_dict())
print()

uniform = MetricSet(*[80.0] * 6)
print(f"all six scores at 80      -> aggregate {aggregate(uniform, weights):.1f}")

lone = MetricSet(*[0.0] * 6)._replace(tti=100.0)
print(f"only tti at 100           -> aggregate {aggregate(lone, weights):.1f}  (its weight x 100)")

fid_low = uniform._replace(max_fid=0.0)
print(f"max_fid dropped to 0      -> aggregate {aggregate(fid_low, weights):.1f}  (zero weight, no effect)")

print()
for score in (92.0, 60.0, 38.7):
    print(f"score {score:5.1f} is categorized {categorize(score, bands)!r}")

# the shipped per-mode curves differ: mobile tolerates slower loads
for kind in ("mobile", "desktop"):
    tti_curve = calibration.curves_for(kind)["tti"]
    score = metric_score(5000.0, tti_curve)
    print(f"tti of 5000 ms scores {score:5.1f} on {kind}")
