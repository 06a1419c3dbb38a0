"""Command-line driver for the audit pipeline. Every command reads stored
files: traces, a corpus, results, aggregates or a request plan.

Exit codes: 0 on success, 1 when individual audits failed, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .collector import load_trace
from .config import MODE_KINDS, load_calibration, load_member_regions, resolve_throttle
from .corpus import audit_trace, ingest_corpus, read_results, run_batch, write_results
from .errors import AuditError, CyclicPlan, IncompleteVisualProgress, NoContentfulPaint
from .metrics import METRIC_KEYS, MetricSet
from .netsim import apply_throttle, plan_from_dict, waterfall_times
from .report import build_aggregates, emit_report, read_aggregates, write_aggregates
from .scoring import ScoreReport, round_half_away
from .trace import _read_json, iso_date


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="webaudit", description="Website performance audit toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    batch = sub.add_parser("batch", help="audit a corpus of sites from stored traces")
    batch.add_argument("--corpus", required=True, metavar="FILE")
    batch.add_argument("--members", metavar="FILE", help="member region list (default: packaged)")
    batch.add_argument("--traces", required=True, metavar="DIR")
    batch.add_argument("--modes", default="mobile,desktop", metavar="KIND[,KIND]")
    batch.add_argument("--throttle", default="4g", metavar="NAME|FILE")
    batch.add_argument(
        "--parallel", type=int, default=4, metavar="N",
        help="ignored (checked only that N >= 1); a batch of 40 sites or more uses two processes "
        "where two CPUs are usable, and taskset -c 0 keeps it in one",
    )  # fmt: skip
    batch.add_argument("--out", required=True, metavar="FILE")
    batch.add_argument("--calibration", metavar="FILE")
    batch.add_argument("--test-date", metavar="YYYY-MM-DD", help="stamp results with this date (default: today)")

    score = sub.add_parser("score", help="print metrics and scores for a stored trace")
    score.add_argument("--trace", required=True, metavar="FILE")
    score.add_argument("--mode", choices=MODE_KINDS, default="mobile")
    score.add_argument("--throttle", metavar="NAME|FILE", help="replay the trace under this throttle (default: none)")
    score.add_argument("--calibration", metavar="FILE")

    aggregate = sub.add_parser("aggregate", help="roll batch results up per region")
    aggregate.add_argument("--results", required=True, metavar="FILE")
    aggregate.add_argument("--out", required=True, metavar="FILE")
    aggregate.add_argument("--members", metavar="FILE", help="member region list (default: packaged)")

    report = sub.add_parser("report", help="render a report from the aggregates alone")
    report.add_argument("--aggregates", required=True, metavar="FILE")
    report.add_argument("--results", metavar="FILE", help="accepted and never read")
    report.add_argument("--format", required=True, choices=("csv", "md", "json"))
    report.add_argument("--out", required=True, metavar="FILE")
    report.add_argument("--decimal-comma", action="store_true", help="localize md numbers with comma decimals")

    simulate = sub.add_parser("simulate", help="run the waterfall simulator on a plan file")
    simulate.add_argument("--plan", required=True, metavar="FILE")
    simulate.add_argument("--profile", default="4g", metavar="NAME|FILE")
    simulate.add_argument("--calibration", metavar="FILE")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "batch": _cmd_batch,
        "score": _cmd_score,
        "aggregate": _cmd_aggregate,
        "report": _cmd_report,
        "simulate": _cmd_simulate,
    }[args.command]
    try:
        return handler(args)
    except (NoContentfulPaint, IncompleteVisualProgress) as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1
    except (AuditError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _print_scores(metrics: MetricSet, report: ScoreReport) -> None:
    print(f"{'metric':<8} {'value_ms':>12} {'score':>7}")
    for key, value, score in zip(METRIC_KEYS, metrics, report.scores):
        print(f"{key:<8} {value:>12.1f} {score:>7.1f}")
    shown = int(round_half_away(report.performance_score, 0))
    print(f"performance score: {shown} ({report.category})")


def _cmd_score(args: argparse.Namespace) -> int:
    calibration = load_calibration(args.calibration)
    mode = calibration.mode(args.mode)
    trace = load_trace(args.trace)
    if args.throttle is not None:
        trace = apply_throttle(trace, resolve_throttle(args.throttle, calibration, mode))
    metrics, report = audit_trace(trace, mode, calibration)
    print(f"{args.trace} [{args.mode}]")
    _print_scores(metrics, report)
    return 0


def _parse_modes(text: str) -> list[str]:
    kinds = [part.strip() for part in text.split(",") if part.strip()]
    if not kinds:
        raise ValueError("--modes must name at least one device mode")
    for i, kind in enumerate(kinds):
        if kind not in MODE_KINDS:
            raise ValueError(f"unknown mode {kind!r} (expected {', '.join(MODE_KINDS)})")
        if kind in kinds[:i]:
            raise ValueError(f"--modes names {kind!r} twice")
    return kinds


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.parallel < 1:
        raise ValueError(f"--parallel must be >= 1, got {args.parallel}")
    calibration = load_calibration(args.calibration)
    modes = _parse_modes(args.modes)
    test_date = None if args.test_date is None else iso_date(args.test_date, "--test-date")
    records = ingest_corpus(args.corpus, load_member_regions(args.members))
    results = run_batch(
        records,
        modes,
        args.throttle,
        traces_dir=args.traces,
        calibration=calibration,
        test_date=test_date,
    )
    write_results(results, args.out)
    failed = [result for result in results if result.status == "failed"]
    for result in failed:
        print(f"audit failed: {result.site.url} [{result.mode}] {result.failure_reason}", file=sys.stderr)
    print(f"{len(results)} audits ({len(records)} sites x {len(modes)} modes), {len(failed)} failed -> {args.out}")
    return 1 if failed else 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    aggregates = build_aggregates(read_results(args.results), load_member_regions(args.members))
    write_aggregates(aggregates, args.out)
    print(f"{len(aggregates.rows)} regions -> {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.decimal_comma and args.format != "md":
        raise ValueError("--decimal-comma applies only to --format md")
    document = emit_report(read_aggregates(args.aggregates), args.format, decimal_comma=args.decimal_comma)
    Path(args.out).write_text(document, "utf-8")
    print(f"{args.format} report -> {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    calibration = load_calibration(args.calibration)
    profile = resolve_throttle(args.profile, calibration)
    ids, parents, offsets, sizes = plan_from_dict(_read_json(args.plan))
    try:
        starts, ends = waterfall_times(parents, offsets, sizes, profile)
    except CyclicPlan as exc:
        raise CyclicPlan(ids[exc.request]) from None
    downlink = "unlimited" if math.isinf(profile.downlink_kbps) else f"{profile.downlink_kbps:g} kbps"
    print(f"profile: rtt {profile.rtt_ms:g} ms, downlink {downlink}, cpu x{profile.cpu_multiplier:g}")
    print(f"{'id':<12} {'start_ms':>12} {'end_ms':>12}")
    for rid, start, end in zip(ids, starts, ends):
        print(f"{rid:<12} {start:>12.3f} {end:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
