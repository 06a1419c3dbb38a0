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
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Any, Iterable, Sequence

from .collector import load_trace
from .config import (
    MODE_KINDS,
    Calibration,
    DeviceMode,
    OutlierBounds,
    load_calibration,
    load_member_regions,
    resolve_throttle,
)
from .errors import AuditError, CsvError, DuplicateUrl, ParseError, SchemaError
from .metrics import METRIC_KEYS, MetricSet, compute_all
from .netsim import _replay_network, _retime_tasks
from .scoring import CATEGORIES, ScoreReport, score_metrics
from .trace import NormalizedTrace, _number

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
    smart_city_member: bool = False


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
    """Parse the corpus CSV and mark each record's program membership.

    The file must carry the header no,institution,tier,region,url. Rows
    failing validation raise CsvError with the offending line and column;
    a URL seen twice raises DuplicateUrl with the second line.
    """
    if member_regions is None:
        member_regions = load_member_regions()
    members = {normalize_region(name) for name in member_regions}

    records: list[SiteRecord] = []
    seen_urls: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
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
            records.append(
                SiteRecord(
                    no=no,
                    institution=institution,
                    tier=tier,
                    region=region,
                    url=url,
                    smart_city_member=normalize_region(region) in members,
                )
            )
    return records


def membership_filter(records: Iterable[SiteRecord], member_regions: Sequence[str]) -> list[SiteRecord]:
    """Keep records whose region is on the member list.

    Matching is exact after whitespace normalization and case folding.
    Order-preserving and idempotent.
    """
    members = {normalize_region(name) for name in member_regions}
    return [
        record if record.smart_city_member else replace(record, smart_city_member=True)
        for record in records
        if normalize_region(record.region) in members
    ]


def audit_trace(trace: NormalizedTrace, mode: DeviceMode, calibration: Calibration) -> tuple[MetricSet, ScoreReport]:
    """Metrics plus scores for one already-throttled trace."""
    metrics = compute_all(trace, quiet=calibration.quiet_window)
    report = score_metrics(metrics, calibration.curves_for(mode.kind), calibration.weights, calibration.bands)
    return metrics, report


def flag_outliers(result: AuditResult, bounds: OutlierBounds | None = None) -> bool:
    """True when a score sits close enough to 0 or 100 to deserve a manual look."""
    if result.status != "ok":
        raise ValueError("outlier flagging applies to ok results only")
    bounds = bounds or OutlierBounds()
    score = result.report.performance_score
    return score >= bounds.upper or score <= bounds.lower


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

    A site's trace is loaded once and its network replayed once per link;
    only the tasks are retimed per mode. Results come back sorted by (site
    number, mode kind). Per-item failures never abort the batch.
    """
    if calibration is None:
        calibration = load_calibration()
    if test_date is None:
        test_date = date.today()
    traces_dir = Path(traces_dir)

    profiles = {kind: resolve_throttle(throttle, calibration, calibration.mode(kind)) for kind in modes}
    results: list[AuditResult] = []

    def add_result(result: AuditResult) -> None:
        results.append(result)
        log.info(
            "audit %d/%d %s [%s] %s",
            len(results),
            len(records) * len(modes),
            result.site.url,
            result.mode,
            result.status if result.status == "ok" else f"failed: {result.failure_reason}",
        )

    def failed(site: SiteRecord, kind: str, exc: Exception) -> AuditResult:
        return AuditResult(
            site=site,
            mode=kind,
            status="failed",
            metrics=None,
            report=None,
            test_date=test_date,
            outlier_flag=False,
            failure_reason=f"{type(exc).__name__}: {exc}",
        )

    for site in records:
        try:
            trace = load_trace(traces_dir / (trace_slug(site.url) + ".json"))
        except (AuditError, OSError) as exc:
            for kind in modes:
                add_result(failed(site, kind, exc))
            continue
        networks = {}  # (rtt_ms, downlink_kbps) -> the network replayed on that link
        for kind in modes:
            profile = profiles[kind]
            link = (profile.rtt_ms, profile.downlink_kbps)
            try:
                if profile.is_identity:
                    throttled = trace
                else:
                    if link not in networks:
                        networks[link] = _replay_network(trace, profile)
                    throttled = _retime_tasks(trace, networks[link], profile)
                metrics, report = audit_trace(throttled, calibration.mode(kind), calibration)
            except AuditError as exc:
                add_result(failed(site, kind, exc))
                continue
            result = AuditResult(
                site=site,
                mode=kind,
                status="ok",
                metrics=metrics,
                report=report,
                test_date=test_date,
                outlier_flag=False,
            )
            add_result(replace(result, outlier_flag=flag_outliers(result, calibration.outliers)))
    # url breaks ties: `no` need not be unique.
    results.sort(key=lambda r: (r.site.no, r.mode, r.site.url))
    return results


def result_to_dict(result: AuditResult) -> dict:
    ok = result.status == "ok"
    return {
        "site": {
            "no": result.site.no,
            "institution": result.site.institution,
            "tier": result.site.tier,
            "region": result.site.region,
            "url": result.site.url,
            "smart_city_member": result.site.smart_city_member,
        },
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


def result_from_dict(data: dict) -> AuditResult:
    """Read one result line back; a bad value is a SchemaError at its JSON path."""
    site = _site_from_dict(data.get("site"))
    if data["mode"] not in MODE_KINDS:
        raise SchemaError("$.mode", f"must be one of {', '.join(MODE_KINDS)}")
    if type(data["outlier_flag"]) is not bool:
        raise SchemaError("$.outlier_flag", "must be true or false")
    ok = data["status"] == "ok"
    report = None
    metrics = None
    if ok:
        values = _metric_values(data, "metrics")
        metrics = MetricSet(values["fcp"], values["fmp"], values["si"], values["tti"], values["fci"], values["max_fid"])
        score = data.get("performance_score")
        if type(score) is not float or not math.isfinite(score):
            score = _number(data, "performance_score", "$")
        if data.get("category") not in CATEGORIES:
            raise SchemaError("$.category", f"must be one of {', '.join(CATEGORIES)}")
        report = ScoreReport(scores=_metric_values(data, "scores"), performance_score=score, category=data["category"])
    return AuditResult(
        site=site,
        mode=data["mode"],
        status=data["status"],
        metrics=metrics,
        report=report,
        test_date=date.fromisoformat(data["test_date"]),
        outlier_flag=data["outlier_flag"],
        failure_reason=data.get("failure_reason"),
    )


_SITE_FIELDS = {"no": int, "institution": str, "tier": str, "region": str, "url": str, "smart_city_member": bool}
_JSON_TYPE_NAMES = {int: "integer", str: "string", bool: "bool"}
_METRIC_KEY_SET = frozenset(METRIC_KEYS)


def _site_from_dict(site: Any) -> SiteRecord:
    """The `site` object of a result line: the six SiteRecord fields, each of
    its exact JSON type (a bool is not an integer).

    One guard passes a well-formed object; only one that fails it is read
    field by field, which names the bad field.
    """
    if (
        type(site) is dict and site.keys() == _SITE_FIELDS.keys()
        and type(site["no"]) is int and type(site["smart_city_member"]) is bool
        and type(site["institution"]) is type(site["tier"]) is type(site["region"]) is type(site["url"]) is str
    ):
        return SiteRecord(**site)
    if type(site) is not dict:
        raise SchemaError("$.site", "must be an object")
    unknown = sorted(site.keys() - _SITE_FIELDS.keys())
    if unknown:
        raise SchemaError(f"$.site.{unknown[0]}", "unknown field")
    for key, kind in _SITE_FIELDS.items():
        if key not in site:
            raise SchemaError(f"$.site.{key}", "missing field")
        if type(site[key]) is not kind:
            raise SchemaError(f"$.site.{key}", f"must be a JSON {_JSON_TYPE_NAMES[kind]}")
    return SiteRecord(**site)


def _metric_values(data: dict, key: str) -> dict[str, float]:
    """``data[key]``: the six metric keys, each a finite number, as floats.

    One guard passes six floats with a finite sum as they are: a NaN or
    infinite term makes the sum NaN or infinite. A mapping that fails the
    guard (an integer value, or a sum that overflows) is read field by
    field, which names the bad field or accepts the mapping.
    """
    values = data.get(key)
    if (
        type(values) is dict and values.keys() == _METRIC_KEY_SET
        and {*map(type, values.values())} == {float} and math.isfinite(sum(values.values()))
    ):
        return values
    path = f"$.{key}"
    if not isinstance(values, dict):
        raise SchemaError(path, "must be an object")
    unknown = sorted(values.keys() - _METRIC_KEY_SET)
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "unknown field")
    return {name: _number(values, name, path) for name in METRIC_KEYS}


def write_results(results: Iterable[AuditResult], path: str | Path) -> None:
    """Write one result per line; key order and spacing are fixed so equal
    result lists produce byte-identical files."""
    with open(path, "w", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":")))
            handle.write("\n")


def read_results(path: str | Path) -> list[AuditResult]:
    results = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                results.append(result_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, SchemaError) as exc:
                raise ParseError(f"{path}, line {number}: {exc}") from exc
    return results
