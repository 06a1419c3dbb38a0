"""Independent checks of the program's outputs.

Nothing here calls webaudit: each check recomputes a result its own way
from the inputs and the calibration file and returns a list of problems,
empty when the output is right.

- Waterfall: parent inference by brute force, and a fair-share downlink
  simulated in exact ``Fraction`` arithmetic as GPS virtual time (a finish
  tag per flow, Parekh & Gallager 1993), where the program rescans every
  flow at each event. Throttled requests must agree within 1 ms. Cheaper
  properties (causality, link capacity) hold on every throttled page.
- TTI/FCI: a scan of the integer-ms grid for the first quiet window. On
  integer times the grid is exact; on fractional times a cell-touch grid
  and a cell-cover grid bracket the true window start.
- Scores: each metric's log-normal curve through ``statistics.NormalDist``,
  and the weighted sum in exact decimals.
- Reports: region means recomputed with ``math.fsum`` from
  ``results.jsonl`` and compared with the aggregates, md, csv and json.
"""

from __future__ import annotations

import bisect
import csv
import heapq
import io
import json
import math
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from statistics import NormalDist

METRIC_KEYS = ("fcp", "fmp", "si", "tti", "fci", "max_fid")
WATERFALL_TOLERANCE_MS = 1.0
SCORE_TOLERANCE = 1e-9


# -- waterfall ---------------------------------------------------------------


def plan_brute_force(requests: list[dict]) -> list[tuple[int | None, float]]:
    """(parent index, discovery offset) per request, by trying every pair.

    The parent is the request that ended last at or before the discovery,
    the earliest one on a tie, and it must come before the child in
    (end, index) order.
    """
    plan = []
    for i, req in enumerate(requests):
        parent = None
        for j, cand in enumerate(requests):
            if cand["end_ms"] > req["discovered_ms"] or (cand["end_ms"], j) >= (req["end_ms"], i):
                continue
            if parent is None or cand["end_ms"] > requests[parent]["end_ms"]:
                parent = j
        offset = req["discovered_ms"] - (0.0 if parent is None else requests[parent]["end_ms"])
        plan.append((parent, offset))
    return plan


def plan_sorted(requests: list[dict]) -> list[tuple[int | None, float]]:
    """The same plan in O(n log n): both conditions on a parent select a
    prefix of the requests in (end, index) order."""
    keys = sorted((r["end_ms"], j) for j, r in enumerate(requests))
    plan = []
    for i, req in enumerate(requests):
        k = min(bisect.bisect_right(keys, (req["discovered_ms"], math.inf)), bisect.bisect_left(keys, (req["end_ms"], i)))
        if k == 0:
            plan.append((None, req["discovered_ms"]))
            continue
        last_end = keys[k - 1][0]
        parent = keys[bisect.bisect_left(keys, (last_end, -1))][1]
        plan.append((parent, req["discovered_ms"] - last_end))
    return plan


def waterfall_exact(
    plan: list[tuple[int | None, float]], sizes: list[int], rtt_ms: float, kbps: float
) -> list[tuple[Fraction, Fraction]]:
    """(start, end) per request on a shared link of kbps (bits per ms).

    A request starts rtt_ms after discovery. Flows in progress share the
    link equally: virtual time V runs at kbps / (flows in progress), a
    flow arriving at V = v finishes when V reaches v + its bits.
    """
    rtt, capacity = Fraction(rtt_ms), Fraction(kbps)
    children: dict[int | None, list[int]] = {}
    for i, (parent, _) in enumerate(plan):
        children.setdefault(parent, []).append(i)
    start: dict[int, Fraction] = {}
    end: dict[int, Fraction] = {}
    arrivals: list[tuple[Fraction, int]] = []
    finishing: list[tuple[Fraction, int]] = []  # (finish tag, index)

    def discovered(parent_end: Fraction, i: int) -> None:
        start[i] = parent_end + Fraction(plan[i][1]) + rtt
        heapq.heappush(arrivals, (start[i], i))

    for i in children.get(None, []):
        discovered(Fraction(0), i)
    now = virtual = Fraction(0)
    while arrivals or finishing:
        if finishing:
            next_finish = now + (finishing[0][0] - virtual) * len(finishing) / capacity
        if finishing and (not arrivals or next_finish <= arrivals[0][0]):
            now, virtual = next_finish, finishing[0][0]
            while finishing and finishing[0][0] == virtual:
                _, i = heapq.heappop(finishing)
                end[i] = now
                for child in children.get(i, []):
                    discovered(now, child)
            continue
        t, i = heapq.heappop(arrivals)
        if finishing:
            virtual += (t - now) * capacity / len(finishing)
        now = t
        if sizes[i] == 0:
            end[i] = now
            for child in children.get(i, []):
                discovered(now, child)
        else:
            heapq.heappush(finishing, (virtual + 8 * sizes[i], i))
    return [(start[i], end[i]) for i in range(len(plan))]


def waterfall_problems(recorded: dict, throttled: dict, rtt_ms: float, kbps: float) -> list[str]:
    """Throttled request times against the exact simulation of the
    brute-force plan; also checks that the two plan inferences agree."""
    requests = recorded["requests"]
    plan = plan_brute_force(requests)
    if plan != plan_sorted(requests):
        return ["parent inference: brute force and sorted scan disagree"]
    expected = waterfall_exact(plan, [r["bytes"] for r in requests], rtt_ms, kbps)
    got = throttled["requests"]
    if len(got) != len(expected):
        return [f"waterfall: {len(got)} requests, expected {len(expected)}"]
    problems = []
    for i, ((start, end), req) in enumerate(zip(expected, got)):
        if abs(req["start_ms"] - start) > WATERFALL_TOLERANCE_MS or abs(req["end_ms"] - end) > WATERFALL_TOLERANCE_MS:
            problems.append(
                f"waterfall request {i}: ({req['start_ms']:.3f}, {req['end_ms']:.3f}) ms, "
                f"exact ({float(start):.3f}, {float(end):.3f})"
            )
    return problems[:5]


def throttle_property_problems(recorded: dict, throttled: dict, rtt_ms: float, kbps: float) -> list[str]:
    """Causality and capacity on a throttled page.

    Every request starts at or after its parent's new end + its discovery
    offset + one round trip, and the link never carries more than
    capacity x makespan bits.
    """
    old, new = recorded["requests"], throttled["requests"]
    if len(old) != len(new):
        return [f"throttle: {len(new)} requests, recorded {len(old)}"]
    problems = []
    for i, ((parent, offset), req) in enumerate(zip(plan_sorted(old), new)):
        if req["bytes"] != old[i]["bytes"] or req["origin"] != old[i]["origin"]:
            problems.append(f"throttle request {i}: bytes or origin changed")
        earliest = (0.0 if parent is None else new[parent]["end_ms"]) + offset + rtt_ms
        if req["start_ms"] < earliest - 1e-6 or req["end_ms"] < req["start_ms"]:
            problems.append(f"throttle request {i}: starts {req['start_ms']:.3f} ms, before {earliest:.3f} ms")
    moving = [r for r in new if r["bytes"] > 0]
    if moving:
        bits = sum(8 * r["bytes"] for r in moving)
        makespan = max(r["end_ms"] for r in moving) - min(r["start_ms"] for r in moving)
        if bits > kbps * makespan * (1 + 1e-9):
            problems.append(f"throttle: {bits} bits in {makespan:.3f} ms exceeds {kbps} kbps")
    return problems[:5]


# -- interactivity -----------------------------------------------------------


def _overloaded(requests: list[dict], max_inflight: int) -> list[tuple[float, float]]:
    """Maximal intervals with more than max_inflight requests in flight,
    counting a request over [start, end) by bisection at each boundary."""
    live = [r for r in requests if r["end_ms"] > r["start_ms"]]
    starts = sorted(r["start_ms"] for r in live)
    ends = sorted(r["end_ms"] for r in live)
    bounds = sorted(set(starts) | set(ends))
    out: list[tuple[float, float]] = []
    for a, b in zip(bounds, bounds[1:]):
        if bisect.bisect_right(starts, a) - bisect.bisect_right(ends, a) > max_inflight:
            if out and out[-1][1] == a:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    return out


def _first_quiet_cell(blockers: list[tuple[float, float]], origin: float, window: int, touch: bool) -> int:
    """First integer w from origin whose cells [w, w + window) are free.

    touch=True marks every cell a blocker touches, so its answer is a real
    quiet start; touch=False marks only cells a blocker covers, so its
    answer is at or before the real one.
    """
    horizon = math.ceil(max([origin] + [e for _, e in blockers])) + window + 2
    busy = bytearray(horizon)
    for s, e in blockers:
        lo, hi = (math.floor(s), math.ceil(e)) if touch else (math.ceil(s), math.floor(e))
        if hi > lo:
            busy[lo:hi] = b"\x01" * (hi - lo)
    w = math.ceil(origin) if touch else math.floor(origin)
    for t in range(w, horizon):
        if busy[t]:
            w = t + 1
        elif t - w + 1 >= window:
            return w
    return w


def interactivity_problems(trace: dict, metrics: dict, quiet: dict) -> list[str]:
    """FCP, TTI, FCI and max FID of one audited trace against a grid scan."""
    long_ms, window, max_inflight = quiet["long_task_ms"], int(quiet["window_ms"]), quiet["max_inflight_requests"]
    fcp = min(p["t_ms"] for p in trace["paint_events"] if p["kind"] == "contentful-paint")
    problems = []
    if metrics["fcp"] != fcp:
        problems.append(f"fcp {metrics['fcp']} != {fcp}")
    long_tasks = [(t["start_ms"], t["start_ms"] + t["dur_ms"]) for t in trace["tasks"] if t["dur_ms"] > long_ms]

    def settle(w: float) -> float:
        return max([e for _, e in long_tasks if e <= w] + [fcp])

    for key, blockers in (("tti", long_tasks + _overloaded(trace["requests"], max_inflight)), ("fci", long_tasks)):
        lo = settle(_first_quiet_cell(blockers, fcp, window, touch=False))
        hi = settle(_first_quiet_cell(blockers, fcp, window, touch=True))
        if not lo - 1e-9 <= metrics[key] <= hi + 1e-9:
            problems.append(f"{key} {metrics[key]} outside grid bracket [{lo}, {hi}]")

    tti = metrics["tti"]
    overlapping = [t["dur_ms"] for t in trace["tasks"] if t["start_ms"] <= tti and t["start_ms"] + t["dur_ms"] >= fcp]
    if metrics["max_fid"] != max(overlapping, default=0.0):
        problems.append(f"max_fid {metrics['max_fid']} != {max(overlapping, default=0.0)}")
    return problems


# -- scores ------------------------------------------------------------------


def expected_scores(metrics: dict, curves: dict) -> dict[str, float]:
    z90 = NormalDist().inv_cdf(0.9)
    scores = {}
    for key in METRIC_KEYS:
        value = metrics[key]
        mu = math.log(curves[key]["median_ms"])
        sigma = (mu - math.log(curves[key]["podr_ms"])) / z90
        scores[key] = 100.0 if value == 0 else 100.0 * (1.0 - NormalDist(mu, sigma).cdf(math.log(value)))
    return scores


def weighted_exact(scores: dict, weights: dict) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 200
        return sum(Decimal(repr(float(weights.get(k, 0.0)))) * Decimal(repr(float(scores[k]))) for k in METRIC_KEYS)


def result_problems(result: dict, calibration: dict) -> list[str]:
    """Metric ordering, per-metric scores, the weighted score, its band and
    its outlier flag for one ok line of results.jsonl."""
    where = f"{result['site']['url']} [{result['mode']}]"
    m, s, perf = result["metrics"], result["scores"], result["performance_score"]
    problems = []
    if not all(math.isfinite(m[k]) and m[k] >= 0 for k in METRIC_KEYS):
        problems.append(f"{where}: metric not finite and >= 0: {m}")
    if not m["fcp"] <= m["fci"] <= m["tti"] or m["fmp"] < m["fcp"]:
        problems.append(f"{where}: need fcp <= fci <= tti and fmp >= fcp: {m}")
    if not all(0.0 <= s[k] <= 100.0 for k in METRIC_KEYS) or not 0.0 <= perf <= 100.0:
        problems.append(f"{where}: score outside [0, 100]")
    expected = expected_scores(m, calibration["curves"][result["mode"]])
    for key in METRIC_KEYS:
        if abs(expected[key] - s[key]) > SCORE_TOLERANCE:
            problems.append(f"{where}: {key} score {s[key]!r}, NormalDist gives {expected[key]!r}")
    weights = calibration["weights"]
    if abs(float(weighted_exact(s, weights)) - perf) > 1e-12 or abs(float(weighted_exact(expected, weights)) - perf) > SCORE_TOLERANCE:
        problems.append(f"{where}: performance score {perf!r} is not the weighted sum of its scores")
    bands = calibration.get("category_bands", {})
    band = "good" if perf >= bands.get("good_min", 90) else "average" if perf >= bands.get("average_min", 50) else "poor"
    if result["category"] != band:
        problems.append(f"{where}: category {result['category']!r}, expected {band!r}")
    bounds = calibration.get("outlier_bounds", {})
    if result["outlier_flag"] != (perf >= bounds.get("upper", 95) or perf <= bounds.get("lower", 5)):
        problems.append(f"{where}: outlier flag {result['outlier_flag']!r} is wrong")
    return problems


def results_problems(lines: list[dict], calibration: dict, expected_count: int) -> list[str]:
    problems = []
    if len(lines) != expected_count:
        problems.append(f"results: {len(lines)} lines, expected {expected_count}")
    for result in lines:
        if result["status"] == "ok":
            problems += result_problems(result, calibration)
    return problems[:10]


# -- reports -----------------------------------------------------------------


def _display(value: float | None, places: str) -> Decimal | None:
    return None if value is None else Decimal(repr(value)).quantize(Decimal(places), rounding=ROUND_HALF_UP)


def expected_regions(lines: list[dict], members: list[str]) -> list[dict]:
    """Report rows recomputed from the results: member regions in list
    order, then any others alphabetically."""

    def norm(name: str) -> str:
        return " ".join(name.split()).casefold()

    order = {norm(name): i for i, name in enumerate(members)}
    names = {norm(name): name for name in members}
    groups: dict[str, list[dict]] = {}
    for result in lines:
        key = norm(result["site"]["region"])
        groups.setdefault(key, []).append(result)
        names.setdefault(key, result["site"]["region"])
    rows = []
    for key in sorted(groups, key=lambda k: (order.get(k, len(order)), names[k])):
        row = {"region": names[key], "n_failed": sum(r["status"] != "ok" for r in groups[key])}
        for column, mode in (("mobile", "mobile"), ("web", "desktop")):
            scores = [r["performance_score"] for r in groups[key] if r["mode"] == mode and r["status"] == "ok"]
            row[f"raw_{column}"] = math.fsum(scores) / len(scores) if scores else None
            row[column] = _display(row[f"raw_{column}"], "0.01")
            row[f"n_{column}"] = len(scores)
        row["test_date"] = max(r["test_date"] for r in groups[key])
        rows.append(row)
    return rows


def _overall(rows: list[dict], column: str) -> Decimal | None:
    means = [float(r[column]) for r in rows if r[column] is not None]
    return _display(math.fsum(means) / len(means), "0.1") if means else None


def _same(got: float | None, want: Decimal | None) -> bool:
    return (got is None) == (want is None) and (got is None or Decimal(repr(got)) == want)


def _close(got: float | None, want: float | None) -> bool:
    return (got is None) == (want is None) and (got is None or abs(got - want) <= 1e-9 * max(1.0, abs(want)))


def aggregates_problems(document: dict, rows: list[dict], what: str) -> list[str]:
    aggregates = document["aggregates"]
    if [a["region"] for a in aggregates] != [r["region"] for r in rows]:
        return [f"{what}: regions {[a['region'] for a in aggregates]} != {[r['region'] for r in rows]}"]
    problems = []
    for a, r in zip(aggregates, rows):
        if not (
            _same(a["mean_mobile"], r["mobile"])
            and _same(a["mean_web"], r["web"])
            and _close(a["raw_mean_mobile"], r["raw_mobile"])
            and _close(a["raw_mean_web"], r["raw_web"])
            and (a["n_ok_mobile"], a["n_ok_web"], a["n_failed"], a["test_date"])
            == (r["n_mobile"], r["n_web"], r["n_failed"], r["test_date"])
        ):
            problems.append(f"{what}: row {r['region']!r} is {a}, expected {r}")
    overall = document["overall_average"]
    if not (_same(overall["mobile"], _overall(rows, "mobile")) and _same(overall["web"], _overall(rows, "web"))):
        problems.append(f"{what}: overall average {overall} is wrong")
    return problems


def _cell(value: Decimal | None, missing: str) -> str:
    return missing if value is None else str(value)


def csv_problems(text: str, rows: list[dict]) -> list[str]:
    want = [["No", "Daerah", "Rata-rata Skor Mobile", "Rata-rata Skor Web", "Tanggal Uji"]]
    want += [
        [str(n), r["region"], _cell(r["mobile"], ""), _cell(r["web"], ""), r["test_date"]]
        for n, r in enumerate(rows, start=1)
    ]
    got = [row for row in csv.reader(io.StringIO(text)) if row]
    return [] if got == want else [f"csv report differs from recomputed rows, first {got[:2]} vs {want[:2]}"]


def md_problems(text: str, rows: list[dict], lines: list[dict]) -> list[str]:
    table = [line for line in text.splitlines() if line.startswith("| ")]
    want = [
        f"| {n} | {r['region']} | {_cell(r['mobile'], '-')} | {_cell(r['web'], '-')} | {r['test_date']} |"
        for n, r in enumerate(rows, start=1)
    ]
    want.append(f"|  | Rata-rata total | {_cell(_overall(rows, 'mobile'), '-')} | {_cell(_overall(rows, 'web'), '-')} |  |")
    problems = []
    start = table.index(want[0]) if want[0] in table else -1
    if start < 0 or table[start : start + len(want)] != want:
        problems.append("md report: region table differs from recomputed rows")
    chart = {}
    for line in table:
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 3 and cells[0] in {r["region"] for r in rows}:
            chart[cells[0]] = cells[1:]
    for r in rows:
        got = chart.get(r["region"])
        values = None if got is None else [None if c == "-" else float(c) for c in got]
        if values is None or not (_close(values[0], r["raw_mobile"]) and _close(values[1], r["raw_web"])):
            problems.append(f"md report: chart data for {r['region']!r} is {got}")
    failed = sum(1 for line in lines if line["status"] != "ok")
    if f"Audit gagal: {failed} dari {len(lines)}." not in text:
        problems.append("md report: failure count line is wrong")
    flagged = sum(1 for line in lines if line["status"] == "ok" and line["outlier_flag"])
    section = text.split("## Validasi Manual", 1)[-1].split("## Kegagalan", 1)[0]
    if sum(1 for line in section.splitlines() if line.startswith("- ")) != flagged:
        problems.append(f"md report: manual-validation list is not the {flagged} flagged results")
    return problems


def reports_problems(lines: list[dict], members: list[str], aggregates: str, md: str, csv_text: str, json_text: str) -> list[str]:
    rows = expected_regions(lines, members)
    report = json.loads(json_text)
    problems = aggregates_problems(json.loads(aggregates), rows, "aggregates.json")
    problems += aggregates_problems(report, rows, "json report")
    flagged = [(r["site"]["url"], r["mode"]) for r in lines if r["status"] == "ok" and r["outlier_flag"]]
    if [(o["url"], o["mode"]) for o in report["outliers"]] != flagged:
        problems.append("json report: outliers are not the flagged results")
    if report["failures"]["total"] != sum(1 for r in lines if r["status"] != "ok"):
        problems.append("json report: failure total is wrong")
    problems += csv_problems(csv_text, rows)
    problems += md_problems(md, rows, lines)
    return problems[:10]
