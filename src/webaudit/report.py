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

from .config import MODE_KINDS
from .corpus import AuditResult, normalize_region
from .errors import SchemaError
from .scoring import SCORE_MAX, round_half_away
from .trace import _array, _date, _field, _integer, _json_text, _known_keys, _number, _object, _read_json, _string

# Device mode kinds feeding the two report columns. The recording modes
# are called mobile and desktop; reports label the desktop column "Web".
MOBILE_KIND = "mobile"
WEB_KIND = "desktop"
_COLUMNS = ("mobile", "web")  # the two columns, as row fields name them: mean_mobile, n_ok_web, ...

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
    test_date: date


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
        ok = [_ok_scores(group, MOBILE_KIND), _ok_scores(group, WEB_KIND)]
        raw = [math.fsum(scores) / len(scores) if scores else None for scores in ok]
        n_failed = sum(1 for r in group if r.status == "failed")
        aggregates.append(_row(display[key], raw, [len(s) for s in ok], max(r.test_date for r in group), n_failed))
    return aggregates


def _ok_scores(group: Sequence[AuditResult], kind: str) -> list[float]:
    """The performance scores of a region's ok audits in one mode."""
    return [r.report.performance_score for r in group if r.mode == kind and r.status == "ok"]


def _row(
    region: str, raw: Sequence[float | None], n_ok: Sequence[int], test_date: date, n_failed: int
) -> RegionAggregate:
    """A region row from its raw means and ok counts, each a (mobile, web)
    pair; a displayed mean is its raw one rounded half away from zero to 2 decimals."""
    shown = [None if mean is None else round_half_away(mean, 2) for mean in raw]
    return RegionAggregate(region, *shown, *raw, *n_ok, n_failed, test_date)


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
        return _document_text(aggregates)
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
        aggregate.test_date.isoformat(),
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


def _document(rows: Sequence[RegionAggregate], outliers: list[dict], failures: list[dict]) -> dict:
    """The aggregates document of these rows around its outlier and failure
    items, each an object of its record's fields."""
    return {
        "aggregates": [{**a._asdict(), "test_date": a.test_date.isoformat()} for a in rows],
        "overall_average": overall_average(rows),
        "outliers": outliers,
        "failures": {"total": len(failures), "items": failures},
    }


def _document_text(aggregates: Aggregates) -> str:
    """The aggregates file, which is also the JSON report."""
    items = [o._asdict() for o in aggregates.outliers], [f._asdict() for f in aggregates.failures]
    return _json_text(_document(aggregates.rows, *items))


def aggregates_from_dict(document: Any) -> Aggregates:
    """Read an aggregates document; a bad one is a SchemaError at its JSON path.

    It reads only what aggregate cannot derive: each row's region, raw
    means, ok counts and test date, and every outlier and failure item
    whole. The document must then be the one _document gives for them, so
    a missing key, an unknown one, or another value or JSON type is a
    SchemaError at the first path where the two differ. Besides, rows name
    distinct regions, each row's n_ok_<col> is 0 exactly when its
    raw_mean_<col> is null and bounds its region's outliers in that mode,
    and every outlier and failure item is in a row's region.
    """
    known = []  # each row's fields but its displayed means and n_failed, in _row's order
    regions = {}  # each row's index by its region's normalize_region key
    for i, item in enumerate(_array(document, "aggregates", "$")):
        path = f"$.aggregates[{i}]"
        region = _string(item, "region", path)
        raw = [_number(item, f"raw_mean_{c}", path, minimum=0.0, maximum=SCORE_MAX, default=None) for c in _COLUMNS]
        n_ok = [_integer(item, f"n_ok_{c}", path, minimum=0) for c in _COLUMNS]
        for column, mean, count in zip(_COLUMNS, raw, n_ok):
            if (count == 0) != (mean is None):
                _field(item, f"raw_mean_{column}", path)  # a missing raw mean read as null
                raise SchemaError(
                    f"{path}.mean_{column}",
                    f"must be raw_mean_{column} rounded to 2 decimals, both null exactly when n_ok_{column} is 0",
                )
        if regions.setdefault(normalize_region(region), i) != i:
            raise SchemaError(f"{path}.region", "must differ from every other row's region")
        known.append((region, raw, n_ok, _date(item, "test_date", path)))

    outliers, flagged = [], Counter()  # outliers per (row index, mode)
    outlier_items = _array(document, "outliers", "$")
    for i, item in enumerate(outlier_items):
        path = f"$.outliers[{i}]"
        row, region, url, mode = _entry(item, path, regions)
        score = _number(item, "performance_score", path, minimum=0.0, maximum=SCORE_MAX)
        outliers.append(_whole(item, Outlier(region, url, mode, score), path))
        flagged[row, mode] += 1
    failures, failed = [], Counter()  # failure items per row index
    failure_items = _array(_object(document, "failures", "$"), "items", "$.failures")
    for i, item in enumerate(failure_items):
        path = f"$.failures.items[{i}]"
        row, region, url, mode = _entry(item, path, regions)
        failures.append(_whole(item, Failure(region, url, mode, _string(item, "reason", path, nonempty=True)), path))
        failed[row] += 1

    rows = [_row(*fields, failed[i]) for i, fields in enumerate(known)]
    # Each item was read whole above, so the rebuild holds the parsed items and compares the rest.
    _same(document, _document(rows, outlier_items, failure_items), "$")
    for i, row in enumerate(rows):
        for mode, ok in ((MOBILE_KIND, row.n_ok_mobile), (WEB_KIND, row.n_ok_web)):
            if flagged[i, mode] > ok:
                raise SchemaError(
                    "$.outliers", f"must hold no more entries than ok audits, {ok} for {row.region} ({mode})"
                )
    return Aggregates(rows, outliers, failures)


def _entry(item: Any, path: str, regions: dict[str, int]) -> tuple[int, str, str, str]:
    """(row index, region, url, mode) of an outlier or failure item, whose
    region must be a row's: ``regions`` maps each normalized one to its
    row's index. A bad item is a SchemaError at path."""
    region = _string(item, "region", path)
    row = regions.get(normalize_region(region))
    if row is None:
        raise SchemaError(f"{path}.region", "must be the region of an aggregates row")
    return row, region, _string(item, "url", path), _string(item, "mode", path, choices=MODE_KINDS)


def _whole(item: dict, record: Any, path: str) -> Any:
    """``record``, whose every field was read from ``item``; an item holding
    another key is a SchemaError naming it."""
    if len(item) != len(record):
        _same(item, record._asdict(), path)
    return record


def _same(actual: Any, expected: Any, path: str) -> None:
    """A SchemaError at the first path where the parsed JSON ``actual``
    differs from ``expected``: in an object, its first missing key, else
    its first unknown one, else its first differing value; else another
    JSON type or value. An integer may stand for an equal float."""
    if type(expected) is dict:
        if type(actual) is not dict:
            raise SchemaError(path, "must be an object")
        if actual.keys() != expected.keys():
            missing = [key for key in expected if key not in actual]
            if missing:
                raise SchemaError(f"{path}.{missing[0]}", "missing field")
            _known_keys(actual, expected.keys(), path)
        for key, value in expected.items():
            if actual[key] is not value:  # a value read from the document is the same object
                _same(actual[key], value, f"{path}.{key}")
    elif type(expected) is list:
        if type(actual) is not list or len(actual) != len(expected):
            raise SchemaError(path, f"must be an array of {len(expected)} items")
        for i, (item, value) in enumerate(zip(actual, expected)):
            if item is not value:
                _same(item, value, f"{path}[{i}]")
    elif actual != expected or type(actual) is not type(expected) and (type(actual), type(expected)) != (int, float):
        raise SchemaError(path, f"must be {json.dumps(expected)}, as the rest of the document gives it")


def write_aggregates(aggregates: Aggregates, path: str | Path) -> None:
    """Write the aggregates file the report step consumes."""
    Path(path).write_text(_document_text(aggregates), "utf-8")


def read_aggregates(path: str | Path) -> Aggregates:
    """Read an aggregates file; one that is not UTF-8 JSON is a ParseError naming it."""
    return aggregates_from_dict(_read_json(path))
