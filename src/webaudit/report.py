"""Region-level aggregation, ranking, and report rendering.

Results roll up per region: the arithmetic mean of unrounded performance
scores per device mode over ok audits, rounded to 2 decimals for display.
The overall row is the unweighted mean of the region means at 1 decimal,
so every region counts once regardless of how many sites it has. The
aggregates (the rows, the outliers to check by hand and the failed
audits) are everything a report shows, so every format renders from them
alone: markdown (full layout: region table, chart data, manual
validation list, failure section), CSV (region table only), or JSON (the
aggregates document itself).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from datetime import date
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from .config import MODE_KINDS, load_member_regions
from .corpus import AuditResult, normalize_region
from .errors import SchemaError, UnknownFormat
from .scoring import SCORE_MAX, round_half_away
from .trace import _array, _date, _field, _integer, _number, _object, _parse_json, _string

# Device mode kinds feeding the two report columns. The recording modes
# are called mobile and desktop; reports label the desktop column "Web".
MOBILE_KIND = "mobile"
WEB_KIND = "desktop"

REPORT_COLUMNS = ("No", "Daerah", "Rata-rata Skor Mobile", "Rata-rata Skor Web", "Tanggal Uji")
TOTAL_ROW_LABEL = "Rata-rata total"

RANK_MODES = ("mobile", "web", "combined-mean")


class RegionAggregate(NamedTuple):
    """One report row: a region's mean scores and audit counts.

    mean_* carry the displayed 2-decimal rounding; raw_mean_* keep full
    precision for chart data. A mode with no ok audits has None means.
    """

    region: str
    mean_mobile: float | None
    mean_web: float | None
    raw_mean_mobile: float | None
    raw_mean_web: float | None
    n_ok_mobile: int
    n_ok_web: int
    n_failed: int
    test_date: date | None


class Outlier(NamedTuple):
    """An ok audit whose score is near a bound, to be checked by hand."""

    region: str
    url: str
    mode: str
    performance_score: float


class Failure(NamedTuple):
    """A failed audit and why it failed."""

    region: str
    url: str
    mode: str
    reason: str


class Aggregates(NamedTuple):
    """What every report renders: the region rows, then the outliers and the
    failures in results order."""

    rows: list[RegionAggregate]
    outliers: list[Outlier]
    failures: list[Failure]


def build_aggregates(results: Sequence[AuditResult], member_regions: Sequence[str] | None = None) -> Aggregates:
    """The rows of aggregate_regions, with the flagged ok audits and the failed ones."""
    return Aggregates(
        aggregate_regions(results, member_regions),
        [
            Outlier(r.site.region, r.site.url, r.mode, r.report.performance_score)
            for r in results
            if r.status == "ok" and r.outlier_flag
        ],
        [Failure(r.site.region, r.site.url, r.mode, r.failure_reason) for r in results if r.status == "failed"],
    )


def aggregate_regions(
    results: Sequence[AuditResult], member_regions: Sequence[str] | None = None
) -> list[RegionAggregate]:
    """Group results per region, in member-list row order.

    Regions absent from the member list sort after it, alphabetically.
    Failed audits count toward n_failed and nothing else.
    """
    if member_regions is None:
        member_regions = load_member_regions()

    order = {normalize_region(name): i for i, name in enumerate(member_regions)}
    display = {normalize_region(name): name for name in member_regions}
    groups: dict[str, list[AuditResult]] = {}
    for result in results:
        key = normalize_region(result.site.region)
        groups.setdefault(key, []).append(result)
        display.setdefault(key, result.site.region)

    keys = sorted(groups, key=lambda k: (order.get(k, len(order)), display[k]))

    aggregates = []
    for key in keys:
        group = groups[key]
        raw_mobile = _mean_score(group, MOBILE_KIND)
        raw_web = _mean_score(group, WEB_KIND)
        aggregates.append(
            RegionAggregate(
                region=display[key],
                mean_mobile=None if raw_mobile is None else round_half_away(raw_mobile, 2),
                mean_web=None if raw_web is None else round_half_away(raw_web, 2),
                raw_mean_mobile=raw_mobile,
                raw_mean_web=raw_web,
                n_ok_mobile=sum(1 for r in group if r.mode == MOBILE_KIND and r.status == "ok"),
                n_ok_web=sum(1 for r in group if r.mode == WEB_KIND and r.status == "ok"),
                n_failed=sum(1 for r in group if r.status == "failed"),
                test_date=max(r.test_date for r in group),
            )
        )
    return aggregates


def _mean_score(group: Sequence[AuditResult], kind: str) -> float | None:
    scores = [r.report.performance_score for r in group if r.mode == kind and r.status == "ok"]
    if not scores:
        return None
    return math.fsum(scores) / len(scores)


def overall_average(aggregates: Sequence[RegionAggregate]) -> dict[str, float | None]:
    """Unweighted mean of the displayed region means, at 1 decimal."""
    out: dict[str, float | None] = {}
    for column, field in (("mobile", "mean_mobile"), ("web", "mean_web")):
        means = [getattr(a, field) for a in aggregates if getattr(a, field) is not None]
        out[column] = round_half_away(math.fsum(means) / len(means), 1) if means else None
    return out


def rank_regions(aggregates: Sequence[RegionAggregate], mode: str) -> list[RegionAggregate]:
    """Order regions best-first by the chosen mean; ties alphabetical.

    Regions lacking a mean for the chosen mode rank last.
    """
    if mode not in RANK_MODES:
        raise ValueError(f"mode must be one of {', '.join(RANK_MODES)}, got {mode!r}")

    def value(aggregate: RegionAggregate) -> float | None:
        if mode == "mobile":
            return aggregate.mean_mobile
        if mode == "web":
            return aggregate.mean_web
        present = [v for v in (aggregate.mean_mobile, aggregate.mean_web) if v is not None]
        return math.fsum(present) / len(present) if present else None

    return sorted(
        aggregates,
        key=lambda a: (value(a) is None, -(value(a) or 0.0), a.region),
    )


def emit_report(aggregates: Aggregates, format: str, *, decimal_comma: bool = False) -> str:
    """Render the report in the chosen format; raises UnknownFormat."""
    if format == "csv":
        return _emit_csv(aggregates.rows)
    if format == "md":
        return _emit_md(aggregates, decimal_comma)
    if format == "json":
        return _to_json(aggregates)
    raise UnknownFormat(f"format must be csv, md or json, got {format!r}")


def _fmt(value: float | None, decimals: int, missing: str, comma: bool = False) -> str:
    if value is None:
        return missing
    text = f"{value:.{decimals}f}" if decimals >= 0 else repr(value)
    return text.replace(".", ",") if comma else text


def _emit_csv(aggregates: Sequence[RegionAggregate]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for number, aggregate in enumerate(aggregates, start=1):
        writer.writerow(
            [
                number,
                aggregate.region,
                _fmt(aggregate.mean_mobile, 2, ""),
                _fmt(aggregate.mean_web, 2, ""),
                aggregate.test_date.isoformat() if aggregate.test_date else "",
            ]
        )
    return buffer.getvalue()


def _emit_md(aggregates: Aggregates, comma: bool) -> str:
    rows = aggregates.rows
    lines = ["# Laporan Audit Performa Web", ""]

    lines += ["## Hasil per Daerah", ""]
    lines.append("| " + " | ".join(REPORT_COLUMNS) + " |")
    lines.append("| ---: | --- | ---: | ---: | --- |")
    for number, aggregate in enumerate(rows, start=1):
        lines.append(
            "| {} | {} | {} | {} | {} |".format(
                number,
                aggregate.region,
                _fmt(aggregate.mean_mobile, 2, "-", comma),
                _fmt(aggregate.mean_web, 2, "-", comma),
                aggregate.test_date.isoformat() if aggregate.test_date else "-",
            )
        )
    if rows:
        overall = overall_average(rows)
        lines.append(
            "|  | {} | {} | {} |  |".format(
                TOTAL_ROW_LABEL,
                _fmt(overall["mobile"], 1, "-", comma),
                _fmt(overall["web"], 1, "-", comma),
            )
        )
    lines.append("")

    lines += [
        "## Data Grafik",
        "",
        "Rata-rata per daerah sebelum pembulatan, untuk diagram batang",
        "berkelompok (mobile vs web).",
        "",
        "| Daerah | Mobile | Web |",
        "| --- | ---: | ---: |",
    ]
    for aggregate in rows:
        lines.append(
            "| {} | {} | {} |".format(
                aggregate.region,
                _fmt(aggregate.raw_mean_mobile, -1, "-", comma),
                _fmt(aggregate.raw_mean_web, -1, "-", comma),
            )
        )
    lines.append("")

    lines += ["## Validasi Manual", "", "Hasil dengan skor mendekati batas 0 atau 100:", ""]
    if aggregates.outliers:
        for region, url, mode, score in aggregates.outliers:
            lines.append("- {} ({}) skor {}: {}".format(region, mode, _fmt(score, 2, "-", comma), url))
    else:
        lines.append("Tidak ada.")
    lines.append("")

    failures = aggregates.failures
    # Each audit is an ok mobile, an ok desktop or a failed one.
    audits = sum(a.n_ok_mobile + a.n_ok_web + a.n_failed for a in rows)
    lines += ["## Kegagalan", ""]
    lines.append(f"Audit gagal: {len(failures)} dari {audits}.")
    lines.append("")
    per_region = [(a.region, a.n_failed) for a in rows if a.n_failed]
    if per_region:
        lines += ["| Daerah | Gagal |", "| --- | ---: |"]
        lines += [f"| {region} | {count} |" for region, count in per_region]
        lines.append("")
    if failures:
        for _, url, mode, reason in failures:
            lines.append(f"- {url} ({mode}): {reason}")
    else:
        lines.append("Tidak ada.")
    lines.append("")

    return "\n".join(lines)


def aggregate_to_dict(aggregate: RegionAggregate) -> dict:
    return {**aggregate._asdict(), "test_date": aggregate.test_date.isoformat() if aggregate.test_date else None}


def aggregate_from_dict(data: Any, path: str = "$") -> RegionAggregate:
    """Read one aggregates row; a bad value is a SchemaError at its JSON path."""
    for key in RegionAggregate._fields:
        _field(data, key, path)  # present, even where null is allowed
    aggregate = RegionAggregate(
        region=_string(data, "region", path),
        **{
            key: _number(data, key, path, minimum=0.0, maximum=SCORE_MAX, default=None)
            for key in ("mean_mobile", "mean_web", "raw_mean_mobile", "raw_mean_web")
        },
        **{key: _integer(data, key, path, minimum=0) for key in ("n_ok_mobile", "n_ok_web", "n_failed")},
        test_date=_date(data, "test_date", path, default=None),
    )
    # The row as aggregate_regions writes it: no ok audit, no means.
    for column in ("mobile", "web"):
        raw = getattr(aggregate, f"raw_mean_{column}")
        no_ok = getattr(aggregate, f"n_ok_{column}") == 0
        shown = None if raw is None else round_half_away(raw, 2)
        if no_ok != (raw is None) or getattr(aggregate, f"mean_{column}") != shown:
            raise SchemaError(
                f"{path}.mean_{column}",
                f"must be raw_mean_{column} rounded to 2 decimals, both null exactly when n_ok_{column} is 0",
            )
    return aggregate


def _document(aggregates: Aggregates) -> dict:
    """The aggregates file, which is also the JSON report."""
    rows = aggregates.rows
    return {
        "aggregates": [aggregate_to_dict(a) for a in rows],
        "overall_average": overall_average(rows) if rows else {"mobile": None, "web": None},
        "outliers": [o._asdict() for o in aggregates.outliers],
        "failures": {"total": len(aggregates.failures), "items": [f._asdict() for f in aggregates.failures]},
    }


def _to_json(aggregates: Aggregates) -> str:
    """The aggregates file and the JSON report: the same aggregates, the same bytes."""
    return json.dumps(_document(aggregates), indent=2, sort_keys=True) + "\n"


def aggregates_from_json(text: str | bytes, source: str | Path = "aggregates document") -> Aggregates:
    """Read an aggregates document, a str or UTF-8 bytes; one that does not
    parse is a ParseError naming ``source``, and a bad one a SchemaError at
    its JSON path.

    Besides each row (aggregate_from_dict), every outlier and failure field
    must have its type, failures.total must count the items, each row's
    n_failed must count the items of its region, and there can be no more
    outliers than ok audits.
    """
    document = _parse_json(text, source)
    if type(document) is not dict:
        raise SchemaError("$", "must be an object")
    rows = [
        aggregate_from_dict(item, f"$.aggregates[{i}]") for i, item in enumerate(_array(document, "aggregates", "$"))
    ]
    outliers = [
        Outlier(
            *_entry(item, f"$.outliers[{i}]"),
            _number(item, "performance_score", f"$.outliers[{i}]", minimum=0.0, maximum=SCORE_MAX),
        )
        for i, item in enumerate(_array(document, "outliers", "$"))
    ]
    failures_doc = _object(document, "failures", "$")
    total = _integer(failures_doc, "total", "$.failures", minimum=0)
    failures = []
    for i, item in enumerate(_array(failures_doc, "items", "$.failures")):
        path = f"$.failures.items[{i}]"
        failures.append(Failure(*_entry(item, path), _string(item, "reason", path, nonempty=True)))
    if total != len(failures):
        raise SchemaError("$.failures.total", f"must be the number of items, {len(failures)}")

    per_region = Counter(normalize_region(failure.region) for failure in failures)
    for i, row in enumerate(rows):
        count = per_region.pop(normalize_region(row.region), 0)
        if row.n_failed != count:
            raise SchemaError(
                f"$.aggregates[{i}].n_failed", f"must be the number of failure items in its region, {count}"
            )
    if per_region:
        first = next(i for i, failure in enumerate(failures) if normalize_region(failure.region) in per_region)
        raise SchemaError(f"$.failures.items[{first}].region", "must be the region of an aggregates row")
    ok = sum(row.n_ok_mobile + row.n_ok_web for row in rows)
    if len(outliers) > ok:
        raise SchemaError("$.outliers", f"must hold no more entries than ok audits, {ok}")
    return Aggregates(rows, outliers, failures)


def _entry(item: Any, path: str) -> tuple[str, str, str]:
    """(region, url, mode) of an outlier or failure entry; an entry that is
    not an object is a SchemaError at path."""
    return _string(item, "region", path), _string(item, "url", path), _string(item, "mode", path, choices=MODE_KINDS)


def write_aggregates(aggregates: Aggregates, path: str | Path) -> None:
    """Write the aggregates file the report step consumes."""
    Path(path).write_text(_to_json(aggregates), "utf-8")


def read_aggregates(path: str | Path) -> Aggregates:
    """Read an aggregates file; one that is not UTF-8 JSON is a ParseError naming it."""
    return aggregates_from_json(Path(path).read_bytes(), path)
