"""Replay a request waterfall under a simulated 4G link.

First a hand-built three-request plan runs on an unlimited link and then
on the shipped 4G profile; the shared downlink stretches every transfer.
Second, a full recorded trace goes through apply_throttle, which rewrites
requests, tasks, paints and visual samples together, and the page's
score drops accordingly.
"""

from webaudit import (
    UNTHROTTLED,
    apply_throttle,
    audit_trace,
    load_calibration,
    plan_from_dict,
    resolve_throttle,
    waterfall_times,
)
from webaudit.synth import build_demo_trace

# A plan file's document: plan_from_dict numbers the requests in id order
# and returns the arrays waterfall_times plays.
ids, parents, offsets, sizes = plan_from_dict(
    [
        {"id": "doc", "bytes": 52000},
        {"id": "css", "parent_id": "doc", "discovery_offset_ms": 5.0, "bytes": 18000},
        {"id": "img", "parent_id": "doc", "discovery_offset_ms": 40.0, "bytes": 120000},
    ]
)

calibration = load_calibration()
mobile = calibration.mode("mobile")
four_g = resolve_throttle("4g", calibration, mobile)

print("request   unthrottled              4g (rtt 150, 1638 kbps)")
fast_starts, fast_ends = waterfall_times(parents, offsets, sizes, UNTHROTTLED)
slow_starts, slow_ends = waterfall_times(parents, offsets, sizes, four_g)
for rid in ("doc", "css", "img"):
    i = ids.index(rid)
    print(
        f"  {rid:4s}   {fast_starts[i]:7.1f} -> {fast_ends[i]:8.1f}"
        f"      {slow_starts[i]:7.1f} -> {slow_ends[i]:8.1f}"
    )
# css and img overlap on the 4g link, so each sees half the capacity
# while both are in flight

print()
trace = build_demo_trace(3)
throttled = apply_throttle(trace, four_g)

_, before = audit_trace(trace, mobile, calibration)
_, after = audit_trace(throttled, mobile, calibration)
print(f"demo page, mobile curves, unthrottled trace : score {before.performance_score:6.2f}")
print(f"same page re-simulated on 4g with 4x cpu    : score {after.performance_score:6.2f}")

last_fast = max(r.end_ms for r in trace.requests)
last_slow = max(r.end_ms for r in throttled.requests)
print(f"last byte arrives at {last_fast:.0f} ms as recorded, {last_slow:.0f} ms on 4g")

assert apply_throttle(trace, UNTHROTTLED) is trace  # identity profile changes nothing
