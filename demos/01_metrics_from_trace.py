"""Walk one normalized trace through all six page-load metrics.

The trace below is a small but realistic load: an HTML document, a
stylesheet fetched after it, a late analytics script, two main-thread
bursts, and a visual-progress ramp that completes at 2.7 s.
"""

from webaudit import (
    MainThreadTask,
    NetworkRequest,
    NormalizedTrace,
    PaintEvent,
    VisualSample,
    compute_all,
    compute_fcp,
    compute_fci,
    compute_fmp,
    compute_max_fid,
    compute_speed_index,
    compute_tti,
    load_calibration,
)

quiet = load_calibration().quiet_window  # the interactivity rule the pipeline uses

trace = NormalizedTrace(
    paint_events=(
        PaintEvent(300.0, "first-paint"),
        PaintEvent(800.0, "contentful-paint"),
        PaintEvent(1200.0, "fmp-candidate", significance=4.0),
        PaintEvent(1500.0, "fmp-candidate", significance=9.0),
    ),
    tasks=(
        MainThreadTask(100.0, 40.0),   # parser warmup, under the 50 ms long-task bar
        MainThreadTask(900.0, 200.0),  # hydration burst, this one blocks
    ),
    requests=(
        NetworkRequest(0.0, 10.0, 700.0, 52000, "https://demo.example.go.id"),
        NetworkRequest(700.0, 720.0, 1300.0, 18000, "https://demo.example.go.id"),
    ),
    visual_progress=(
        VisualSample(800.0, 0.4),
        VisualSample(1500.0, 0.8),
        VisualSample(2700.0, 1.0),
    ),
)

fcp = compute_fcp(trace)
print(f"first contentful paint  {fcp:8.1f} ms   earliest contentful paint event")

fmp = compute_fmp(trace, fcp)
print(f"first meaningful paint  {fmp:8.1f} ms   highest-significance candidate (9.0 at 1500)")

si = compute_speed_index(trace)
print(f"speed index             {si:8.1f} ms   area above the visual-progress steps")
# by hand: 800*1.0 + 700*0.6 + 1200*0.2 = 800 + 420 + 240 = 1460

tti = compute_tti(trace, fcp, quiet)
print(f"time to interactive     {tti:8.1f} ms   end of the last long task before the quiet window")

fci = compute_fci(trace, fcp, quiet)
print(f"first cpu idle          {fci:8.1f} ms   same scan, network pressure ignored")

fid = compute_max_fid(trace, fcp, tti)
print(f"max potential fid       {fid:8.1f} ms   longest task overlapping [fcp, tti]")

print()
print("compute_all bundles the same numbers:")
print(" ", compute_all(trace, quiet).as_dict())
