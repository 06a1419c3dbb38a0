"""Command-line driver for the audit pipeline.

Exit codes: 0 on success, 1 when individual audits failed, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from .collector import load_trace, write_trace
from .config import MODE_KINDS, load_calibration, load_member_regions, read_text, resolve_throttle
from .corpus import audit_trace, ingest_corpus, read_results, run_batch, write_results
from .errors import (
    AuditError,
    CyclicPlan,
    IncompleteVisualProgress,
    NavigationTimeout,
    NoContentfulPaint,
    ParseError,
)
from .metrics import MetricSet
from .netsim import apply_throttle, plan_from_dict, waterfall_times
from .report import build_aggregates, emit_report, read_aggregates, write_aggregates
from .scoring import ScoreReport, round_half_away
from .trace import iso_date


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="webaudit", description="Website performance audit toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="audit one URL, from a stored trace or a live browser")
    audit.add_argument("url")
    audit.add_argument("--mode", choices=MODE_KINDS, default="mobile")
    audit.add_argument("--throttle", default="4g", metavar="NAME|FILE")
    source = audit.add_mutually_exclusive_group()
    source.add_argument("--trace-in", metavar="FILE", help="replay this stored trace instead of capturing")
    source.add_argument("--trace-out", metavar="FILE", help="store the captured trace here")
    audit.add_argument("--repeat", type=int, default=1, metavar="N", help="run N times and average the scores")
    audit.add_argument("--calibration", metavar="FILE")
    audit.add_argument("--endpoint", metavar="HOST:PORT", help="browser endpoint (default: $AUDIT_BROWSER_ENDPOINT)")

    batch = sub.add_parser("batch", help="audit a corpus of sites from stored traces")
    batch.add_argument("--corpus", required=True, metavar="FILE")
    batch.add_argument("--members", metavar="FILE", help="member region list (default: packaged)")
    batch.add_argument("--traces", required=True, metavar="DIR")
    batch.add_argument("--modes", default="mobile,desktop", metavar="KIND[,KIND]")
    batch.add_argument("--throttle", default="4g", metavar="NAME|FILE")
    batch.add_argument("--parallel", type=int, default=4, metavar="N", help="checked (N >= 1) but has no effect")
    batch.add_argument("--out", required=True, metavar="FILE")
    batch.add_argument("--calibration", metavar="FILE")
    batch.add_argument("--test-date", metavar="YYYY-MM-DD", help="stamp results with this date (default: today)")

    score = sub.add_parser("score", help="print metrics and scores for a stored trace")
    score.add_argument("--trace", required=True, metavar="FILE")
    score.add_argument("--mode", choices=MODE_KINDS, default="mobile")
    score.add_argument("--calibration", metavar="FILE")

    aggregate = sub.add_parser("aggregate", help="roll batch results up per region")
    aggregate.add_argument("--results", required=True, metavar="FILE")
    aggregate.add_argument("--out", required=True, metavar="FILE")
    aggregate.add_argument("--members", metavar="FILE")

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
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "audit": _cmd_audit,
        "batch": _cmd_batch,
        "score": _cmd_score,
        "aggregate": _cmd_aggregate,
        "report": _cmd_report,
        "simulate": _cmd_simulate,
    }[args.command]
    try:
        return handler(args)
    except (NoContentfulPaint, IncompleteVisualProgress, NavigationTimeout) as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1
    except (AuditError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _print_scores(metrics: MetricSet, report: ScoreReport) -> None:
    print(f"{'metric':<8} {'value_ms':>12} {'score':>7}")
    for key, value in metrics.as_dict().items():
        print(f"{key:<8} {value:>12.1f} {report.scores[key]:>7.1f}")
    shown = int(round_half_away(report.performance_score, 0))
    print(f"performance score: {shown} ({report.category})")


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    calibration = load_calibration(args.calibration)
    mode = calibration.mode(args.mode)
    profile = resolve_throttle(args.throttle, calibration, mode)

    scores = []
    last = None
    for run in range(args.repeat):
        if args.trace_in:
            trace = load_trace(args.trace_in)
        else:
            from . import capture  # only a live audit needs its network modules

            trace = capture.capture_live(capture.CaptureRequest(url=args.url, mode=mode), endpoint=args.endpoint)
        trace = apply_throttle(trace, profile)
        if args.trace_out and run == 0:
            # The stored trace already includes the throttle; replay it with
            # --throttle none.
            write_trace(trace, args.trace_out)
        metrics, report = audit_trace(trace, mode, calibration)
        scores.append(report.performance_score)
        last = (metrics, report)

    print(f"{args.url} [{args.mode}] throttle={args.throttle}")
    _print_scores(*last)
    if args.repeat > 1:
        mean = math.fsum(scores) / len(scores)
        print(f"mean performance score over {args.repeat} runs: {int(round_half_away(mean, 0))}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    calibration = load_calibration(args.calibration)
    mode = calibration.mode(args.mode)
    metrics, report = audit_trace(load_trace(args.trace), mode, calibration)
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
    failed = sum(1 for r in results if r.status == "failed")
    print(f"{len(results)} audits ({len(records)} sites x {len(modes)} modes), {failed} failed -> {args.out}")
    return 1 if failed else 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    results = read_results(args.results)
    members = load_member_regions(args.members) if args.members else None
    aggregates = build_aggregates(results, members)
    write_aggregates(aggregates, args.out)
    print(f"{len(aggregates.rows)} regions -> {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    document = emit_report(read_aggregates(args.aggregates), args.format, decimal_comma=args.decimal_comma)
    Path(args.out).write_text(document, "utf-8")
    print(f"{args.format} report -> {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    calibration = load_calibration(args.calibration)
    profile = resolve_throttle(args.profile, calibration)
    try:
        data = json.loads(read_text(args.plan))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.plan}: {exc}") from exc
    ids, parents, offsets, sizes = plan_from_dict(data)
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
