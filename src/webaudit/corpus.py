"""Site inventory ingestion and batch audit orchestration.

The corpus is a CSV of government websites. Auditing filters it down to
the regions enrolled in the smart-city program, replays each site's
stored trace in both device modes under a throttle profile, and records
one result per (site, mode). Failures are data: a site whose trace is
missing or never paints stays in the result set as a failed audit and is
excluded from averages downstream.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Iterable, Sequence

from .collector import load_trace
from .config import (
    MODE_KINDS,
    Calibration,
    DeviceMode,
    load_calibration,
    open_text,
    resolve_throttle,
)
from .errors import AuditError, CsvError, DuplicateUrl, ParseError, SchemaError
from .metrics import METRIC_KEYS, MetricSet, compute_all
from .netsim import throttler
from .scoring import CATEGORIES, SCORE_MAX, ScoreReport, score_metrics
from .trace import NormalizedTrace, _date, _field, _integer, _known_keys, _number, _object, _string

log = logging.getLogger(__name__)

TIERS = ("provinsi", "kabupaten-kota", "kecamatan", "desa")

_CSV_HEADER = ("no", "institution", "tier", "region", "url")


@dataclass(frozen=True)
class SiteRecord:
    no: int
    institution: str
    tier: str
    region: str
    url: str


@dataclass(frozen=True)
class AuditResult:
    """Outcome of auditing one site in one device mode."""

    site: SiteRecord
    mode: str
    status: str
    metrics: MetricSet | None
    report: ScoreReport | None
    test_date: date
    outlier_flag: bool
    failure_reason: str | None = None

    def __post_init__(self):
        if self.status == "ok":
            if self.report is None or self.metrics is None or self.failure_reason is not None:
                raise ValueError("ok results carry metrics and a report, and no failure reason")
        elif self.status == "failed":
            if self.report is not None or self.metrics is not None or not self.failure_reason:
                raise ValueError("failed results carry a reason and no metrics/report")
        else:
            raise ValueError(f"status must be 'ok' or 'failed', got {self.status!r}")


def normalize_region(name: str) -> str:
    """Whitespace-normalized, case-insensitive comparison key."""
    return " ".join(name.split()).casefold()


def ingest_corpus(path: str | Path, member_regions: Sequence[str] | None = None) -> list[SiteRecord]:
    """Parse the corpus CSV: every row, or with member_regions only the rows
    that membership_filter keeps.

    The file must carry the header no,institution,tier,region,url. Rows
    failing validation raise CsvError with the offending line and column;
    a URL seen twice raises DuplicateUrl with the second line.
    """
    records: list[SiteRecord] = []
    seen_urls: dict[str, int] = {}
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvError(1, None, "empty file; expected header no,institution,tier,region,url") from None
        if tuple(cell.strip() for cell in header) != _CSV_HEADER:
            raise CsvError(reader.line_num, None, f"header must be {','.join(_CSV_HEADER)}")
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != len(_CSV_HEADER):
                raise CsvError(line, None, f"expected {len(_CSV_HEADER)} fields, got {len(row)}")
            raw_no, institution, tier, region, url = (cell.strip() for cell in row)
            try:
                no = int(raw_no)
            except ValueError:
                raise CsvError(line, "no", f"must be an integer, got {raw_no!r}") from None
            if not institution:
                raise CsvError(line, "institution", "must not be empty")
            if tier not in TIERS:
                raise CsvError(line, "tier", f"must be one of {', '.join(TIERS)}, got {tier!r}")
            if not region:
                raise CsvError(line, "region", "must not be empty")
            if not re.match(r"^https?://\S+$", url):
                raise CsvError(line, "url", f"must be an absolute http/https URL, got {url!r}")
            if url in seen_urls:
                raise DuplicateUrl(line, url)
            seen_urls[url] = line
            records.append(SiteRecord(no, institution, tier, region, url))
    return records if member_regions is None else membership_filter(records, member_regions)


def membership_filter(records: Iterable[SiteRecord], member_regions: Sequence[str]) -> list[SiteRecord]:
    """Keep records whose region is on the member list.

    Matching is exact after whitespace normalization and case folding.
    Order-preserving and idempotent.
    """
    members = {normalize_region(name) for name in member_regions}
    return [record for record in records if normalize_region(record.region) in members]


def audit_trace(trace: NormalizedTrace, mode: DeviceMode, calibration: Calibration) -> tuple[MetricSet, ScoreReport]:
    """Metrics plus scores for one already-throttled trace."""
    metrics = compute_all(trace, quiet=calibration.quiet_window)
    report = score_metrics(metrics, calibration.curves_for(mode.kind), calibration.weights, calibration.bands)
    return metrics, report


def trace_slug(url: str) -> str:
    """Stable filesystem name (without extension) for a site's trace."""
    stripped = re.sub(r"^[a-z][a-z0-9+.-]*://", "", url.strip().lower())
    readable = re.sub(r"[^a-z0-9]+", "-", stripped).strip("-")
    digest = hashlib.sha1(url.strip().encode("utf-8")).hexdigest()[:8]
    return f"{readable[:64]}-{digest}"


def run_batch(
    records: Sequence[SiteRecord],
    modes: Sequence[str],
    throttle: str,
    *,
    traces_dir: str | Path,
    calibration: Calibration | None = None,
    test_date: date | None = None,
) -> list[AuditResult]:
    """Audit every record in every mode from stored traces, one pass per site.

    A site's trace is loaded once and throttled per mode through one
    `netsim.throttler`, so the modes share its network replay. Results come
    back sorted by (site number, mode kind). Per-item failures never abort
    the batch.
    """
    if calibration is None:
        calibration = load_calibration()
    if test_date is None:
        test_date = date.today()
    traces_dir = Path(traces_dir)

    profiles = {kind: resolve_throttle(throttle, calibration, calibration.mode(kind)) for kind in modes}
    results: list[AuditResult] = []

    def add_result(
        site: SiteRecord,
        kind: str,
        metrics: MetricSet | None = None,
        report: ScoreReport | None = None,
        exc: Exception | None = None,
    ) -> None:
        """Record an ok result from metrics and report, or a failed one from exc."""
        ok = exc is None
        reason = None if ok else f"{type(exc).__name__}: {exc}"
        results.append(
            AuditResult(
                site=site,
                mode=kind,
                status="ok" if ok else "failed",
                metrics=metrics,
                report=report,
                test_date=test_date,
                outlier_flag=ok and calibration.outliers.flags(report.performance_score),
                failure_reason=reason,
            )
        )
        log.info(
            "audit %d/%d %s [%s] %s",
            len(results),
            len(records) * len(modes),
            site.url,
            kind,
            "ok" if ok else f"failed: {reason}",
        )

    for site in records:
        try:
            replay = throttler(load_trace(traces_dir / (trace_slug(site.url) + ".json")))
        except (AuditError, OSError) as exc:
            for kind in modes:
                add_result(site, kind, exc=exc)
            continue
        for kind in modes:
            try:
                metrics, report = audit_trace(replay(profiles[kind]), calibration.mode(kind), calibration)
            except AuditError as exc:
                add_result(site, kind, exc=exc)
            else:
                add_result(site, kind, metrics, report)
    # url breaks ties: `no` need not be unique.
    results.sort(key=lambda r: (r.site.no, r.mode, r.site.url))
    return results


def result_to_dict(result: AuditResult) -> dict:
    ok = result.status == "ok"
    return {
        "site": dict(vars(result.site)),
        "mode": result.mode,
        "status": result.status,
        "failure_reason": result.failure_reason,
        "metrics": result.metrics.as_dict() if ok else None,
        "scores": dict(result.report.scores) if ok else None,
        "performance_score": result.report.performance_score if ok else None,
        "category": result.report.category if ok else None,
        "test_date": result.test_date.isoformat(),
        "outlier_flag": result.outlier_flag,
    }


def result_from_dict(data: Any) -> AuditResult:
    """Read one result line back; a bad value, an unknown key or a missing one
    is a SchemaError at its JSON path, so a line read back writes the same bytes."""
    if type(data) is not dict:
        raise SchemaError("$", "result line must be an object")
    complete = data.keys() == _RESULT_FIELD_SET
    if not complete:
        _known_keys(data, _RESULT_FIELD_SET, "$")
    site = _site_from_dict(data)
    mode = _string(data, "mode", "$", choices=MODE_KINDS)
    if type(data.get("outlier_flag")) is not bool:
        raise SchemaError("$.outlier_flag", "must be true or false")
    status = _string(data, "status", "$", choices=("ok", "failed"))
    reason = data.get("failure_reason")
    ok = status == "ok"
    if (reason is not None) if ok else (type(reason) is not str or not reason):
        raise SchemaError("$.failure_reason", "must be null on an ok result and a non-empty string on a failed one")
    report = None
    metrics = None
    if ok:
        values = _metric_values(data, "metrics", math.inf)
        metrics = MetricSet(**values)
        score = data.get("performance_score")
        if type(score) is not float or not 0.0 <= score <= SCORE_MAX:
            score = _number(data, "performance_score", "$", minimum=0.0, maximum=SCORE_MAX)
        category = _string(data, "category", "$", choices=CATEGORIES)
        scores = _metric_values(data, "scores", SCORE_MAX)
        report = ScoreReport(scores=scores, performance_score=score, category=category)
    else:
        # A failed audit has nothing to score; write_results writes these as null and false.
        for key in ("metrics", "scores", "performance_score", "category"):
            if data.get(key) is not None:
                raise SchemaError(f"$.{key}", "must be null on a failed result")
        if data["outlier_flag"]:
            raise SchemaError("$.outlier_flag", "must be false on a failed result")
    test_date = _date(data, "test_date", "$")
    if not complete:
        # Each check above passed, so a field that is absent is one they read as null.
        for key in _RESULT_FIELDS:
            _field(data, key, "$")
    return AuditResult(
        site=site,
        mode=mode,
        status=status,
        metrics=metrics,
        report=report,
        test_date=test_date,
        outlier_flag=data["outlier_flag"],
        failure_reason=reason,
    )


# The keys of a result line, in result_to_dict's order.
_RESULT_FIELDS = (
    "site", "mode", "status", "failure_reason", "metrics", "scores", "performance_score", "category", "test_date",
    "outlier_flag",
)  # fmt: skip
_RESULT_FIELD_SET = frozenset(_RESULT_FIELDS)
_SITE_FIELD_SET = frozenset(("no", "institution", "tier", "region", "url"))
_METRIC_KEY_SET = frozenset(METRIC_KEYS)


def _site_from_dict(data: dict) -> SiteRecord:
    """The `site` object of a result line: the five SiteRecord fields, an
    integer (a bool is not one) and four strings.

    One guard passes a well-formed object; only one that fails it is read
    field by field, which names the bad field.
    """
    site = data.get("site")
    if (
        type(site) is dict and site.keys() == _SITE_FIELD_SET and type(site["no"]) is int
        and type(site["institution"]) is type(site["tier"]) is type(site["region"]) is type(site["url"]) is str
    ):
        return SiteRecord(**site)
    site = _object(data, "site", "$")
    _known_keys(site, _SITE_FIELD_SET, "$.site")
    no = _integer(site, "no", "$.site")
    return SiteRecord(no, *(_string(site, key, "$.site") for key in ("institution", "tier", "region", "url")))


def _metric_values(data: dict, key: str, maximum: float) -> dict[str, float]:
    """``data[key]``: the six metric keys, each a finite number in
    [0, maximum], as floats.

    One guard passes six floats with a finite sum, the least >= 0 and the
    greatest <= maximum, as they are: a NaN or infinite term makes the sum
    NaN or infinite. A mapping that fails the guard (an integer value, a
    sum that overflows, or a value out of range) is read field by field,
    which names the bad field or accepts the mapping.
    """
    values = data.get(key)
    if (
        type(values) is dict and values.keys() == _METRIC_KEY_SET
        and {*map(type, values.values())} == {float} and math.isfinite(sum(values.values()))
        and 0.0 <= min(values.values()) <= max(values.values()) <= maximum
    ):
        return values
    path = f"$.{key}"
    values = _object(data, key, "$")
    _known_keys(values, _METRIC_KEY_SET, path)
    return {name: _number(values, name, path, minimum=0.0, maximum=maximum) for name in METRIC_KEYS}


def write_results(results: Iterable[AuditResult], path: str | Path) -> None:
    """Write one result per line; key order and spacing are fixed so equal
    result lists produce byte-identical files."""
    with open(path, "w", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":")))
            handle.write("\n")


def read_results(path: str | Path) -> list[AuditResult]:
    """Read a results file; a bad line, or one that is not UTF-8, is a
    ParseError naming the file and the line."""
    results = []
    # A byte that is not UTF-8 reads as a lone surrogate, so the error below
    # can name its line; write_results writes ASCII, so no line it wrote
    # takes that check.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                results.append(result_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, SchemaError) as exc:
                raise ParseError(f"{path}, line {number}: {exc}") from exc
    return results
