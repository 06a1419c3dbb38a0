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
import math
from collections import Counter
from datetime import date
from pathlib import Path
from typing import Any, KeysView, NamedTuple, Sequence

from .config import MODE_KINDS
from .corpus import AuditResult, normalize_region
from .errors import SchemaError
from .scoring import SCORE_MAX, round_half_away
from .trace import _array, _date, _field, _integer, _json_text, _known_keys, _number, _read_json, _string

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


def build_aggregates(results: Sequence[AuditResult], member_regions: Sequence[str]) -> Aggregates:
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


def aggregate_regions(results: Sequence[AuditResult], member_regions: Sequence[str]) -> list[RegionAggregate]:
    """Group results per region, in member-list row order.

    Regions absent from the member list sort after it, alphabetically.
    Failed audits count toward n_failed and nothing else.
    """
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
        mobile, web = _ok_scores(group, MOBILE_KIND), _ok_scores(group, WEB_KIND)
        raw_mobile, raw_web = (math.fsum(scores) / len(scores) if scores else None for scores in (mobile, web))
        aggregates.append(
            RegionAggregate(
                region=display[key],
                mean_mobile=_shown(raw_mobile),
                mean_web=_shown(raw_web),
                raw_mean_mobile=raw_mobile,
                raw_mean_web=raw_web,
                n_ok_mobile=len(mobile),
                n_ok_web=len(web),
                n_failed=sum(1 for r in group if r.status == "failed"),
                test_date=max(r.test_date for r in group),
            )
        )
    return aggregates


def _ok_scores(group: Sequence[AuditResult], kind: str) -> list[float]:
    """The performance scores of a region's ok audits in one mode."""
    return [r.report.performance_score for r in group if r.mode == kind and r.status == "ok"]


def _shown(raw_mean: float | None) -> float | None:
    """The displayed mean: the raw one rounded half away from zero to 2 decimals."""
    return None if raw_mean is None else round_half_away(raw_mean, 2)


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
    """Render the report in the chosen format; another format is a ValueError."""
    if format == "csv":
        return _emit_csv(aggregates.rows)
    if format == "md":
        return _emit_md(aggregates, decimal_comma)
    if format == "json":
        return _json_text(_document(aggregates))
    raise ValueError(f"format must be csv, md or json, got {format!r}")


def _fmt(value: float | None, decimals: int, missing: str, comma: bool = False) -> str:
    if value is None:
        return missing
    text = f"{value:.{decimals}f}" if decimals >= 0 else repr(value)
    return text.replace(".", ",") if comma else text


def _cells(number: int, aggregate: RegionAggregate, missing: str, comma: bool = False) -> list[str]:
    """The REPORT_COLUMNS of one region row, ``missing`` standing for a null."""
    return [
        str(number),
        aggregate.region,
        _fmt(aggregate.mean_mobile, 2, missing, comma),
        _fmt(aggregate.mean_web, 2, missing, comma),
        aggregate.test_date.isoformat() if aggregate.test_date else missing,
    ]


def _emit_csv(aggregates: Sequence[RegionAggregate]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    writer.writerows(_cells(number, aggregate, "") for number, aggregate in enumerate(aggregates, start=1))
    return buffer.getvalue()


# What a markdown table cell escapes: a pipe, which would end the cell, and a backslash, which would escape one.
_MD_CELL = str.maketrans({"\\": "\\\\", "|": "\\|"})


def _emit_md(aggregates: Aggregates, comma: bool) -> str:
    rows = aggregates.rows
    lines = ["# Laporan Audit Performa Web", ""]

    lines += ["## Hasil per Daerah", ""]
    lines.append("| " + " | ".join(REPORT_COLUMNS) + " |")
    lines.append("| ---: | --- | ---: | ---: | --- |")
    for number, aggregate in enumerate(rows, start=1):
        lines.append("| " + " | ".join(c.translate(_MD_CELL) for c in _cells(number, aggregate, "-", comma)) + " |")
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
                aggregate.region.translate(_MD_CELL),
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
        lines += [f"| {region.translate(_MD_CELL)} | {count} |" for region, count in per_region]
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
    """Read one aggregates row; a bad value, an unknown key or a missing one
    is a SchemaError at its JSON path."""
    _exact(data, _ROW_KEYS, path)  # every key is present, even where null is allowed
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
        if no_ok != (raw is None) or getattr(aggregate, f"mean_{column}") != _shown(raw):
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
        "overall_average": overall_average(rows),
        "outliers": [o._asdict() for o in aggregates.outliers],
        "failures": {"total": len(aggregates.failures), "items": [f._asdict() for f in aggregates.failures]},
    }


# The keys _document writes at each level, as ordered sets: one set
# comparison checks an object, and a missing key is named in this order.
_EMPTY_DOCUMENT = _document(Aggregates([], [], []))
_DOCUMENT_KEYS = _EMPTY_DOCUMENT.keys()
_OVERALL_KEYS = _EMPTY_DOCUMENT["overall_average"].keys()
_FAILURES_KEYS = _EMPTY_DOCUMENT["failures"].keys()
_ROW_KEYS = dict.fromkeys(RegionAggregate._fields).keys()
_OUTLIER_KEYS = dict.fromkeys(Outlier._fields).keys()
_FAILURE_KEYS = dict.fromkeys(Failure._fields).keys()


def _exact(item: Any, keys: KeysView[str], path: str) -> dict:
    """``item``, an object holding ``keys`` and no other key. Otherwise a
    SchemaError at ``path`` names a non-object, else the first missing key,
    else the first unknown one."""
    if type(item) is not dict or item.keys() != keys:
        for key in keys:
            _field(item, key, path)
        _known_keys(item, keys, path)
    return item


def aggregates_from_dict(document: Any) -> Aggregates:
    """Read an aggregates document; a bad one is a SchemaError at its JSON path.

    Every object must hold exactly the keys _document writes. Besides each
    row (aggregate_from_dict), overall_average must be overall_average of
    the rows, every outlier and failure field must have its type and
    failures.total must count the items. Rows name distinct regions, and
    every outlier and failure item is in a row's region: each row's n_failed
    counts its region's failure items, and its n_ok_mobile and n_ok_web
    bound its region's outliers in each mode.
    """
    _exact(document, _DOCUMENT_KEYS, "$")
    rows = [
        aggregate_from_dict(item, f"$.aggregates[{i}]") for i, item in enumerate(_array(document, "aggregates", "$"))
    ]
    regions = {}  # each row by its region's normalize_region key
    for i, row in enumerate(rows):
        if regions.setdefault(normalize_region(row.region), row) is not row:
            raise SchemaError(f"$.aggregates[{i}].region", "must differ from every other row's region")
    overall = _exact(document["overall_average"], _OVERALL_KEYS, "$.overall_average")
    for column, value in overall_average(rows).items():
        if _number(overall, column, "$.overall_average", default=None) != value:
            raise SchemaError(f"$.overall_average.{column}", f"must be the rows' average, {_fmt(value, 1, 'null')}")
    outliers = [
        Outlier(
            *_entry(item, _OUTLIER_KEYS, f"$.outliers[{i}]"),
            _number(item, "performance_score", f"$.outliers[{i}]", minimum=0.0, maximum=SCORE_MAX),
        )
        for i, item in enumerate(_array(document, "outliers", "$"))
    ]
    failures_doc = _exact(document["failures"], _FAILURES_KEYS, "$.failures")
    total = _integer(failures_doc, "total", "$.failures", minimum=0)
    failures = []
    for i, item in enumerate(_array(failures_doc, "items", "$.failures")):
        path = f"$.failures.items[{i}]"
        failures.append(Failure(*_entry(item, _FAILURE_KEYS, path), _string(item, "reason", path, nonempty=True)))
    if total != len(failures):
        raise SchemaError("$.failures.total", f"must be the number of items, {len(failures)}")

    for name, entries in (("outliers", outliers), ("failures.items", failures)):
        for i, entry in enumerate(entries):
            if normalize_region(entry.region) not in regions:
                raise SchemaError(f"$.{name}[{i}].region", "must be the region of an aggregates row")
    failed = Counter(normalize_region(failure.region) for failure in failures)
    flagged = Counter((normalize_region(outlier.region), outlier.mode) for outlier in outliers)
    for i, (key, row) in enumerate(regions.items()):
        if row.n_failed != failed[key]:
            raise SchemaError(
                f"$.aggregates[{i}].n_failed", f"must be the number of failure items in its region, {failed[key]}"
            )
        for mode, ok in ((MOBILE_KIND, row.n_ok_mobile), (WEB_KIND, row.n_ok_web)):
            if flagged[key, mode] > ok:
                raise SchemaError(
                    "$.outliers", f"must hold no more entries than ok audits, {ok} for {row.region} ({mode})"
                )
    return Aggregates(rows, outliers, failures)


def _entry(item: Any, keys: KeysView[str], path: str) -> tuple[str, str, str]:
    """(region, url, mode) of an outlier or failure entry, which must hold
    exactly ``keys``; a bad entry is a SchemaError at path."""
    _exact(item, keys, path)
    return _string(item, "region", path), _string(item, "url", path), _string(item, "mode", path, choices=MODE_KINDS)


def write_aggregates(aggregates: Aggregates, path: str | Path) -> None:
    """Write the aggregates file the report step consumes."""
    Path(path).write_text(_json_text(_document(aggregates)), "utf-8")


def read_aggregates(path: str | Path) -> Aggregates:
    """Read an aggregates file; one that is not UTF-8 JSON is a ParseError naming it."""
    return aggregates_from_dict(_read_json(path))
