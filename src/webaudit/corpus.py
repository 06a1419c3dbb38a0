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
import math
import os
import re
from datetime import date
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from .collector import load_trace
from .config import (
    MODE_KINDS,
    Calibration,
    DeviceMode,
    _find_throttle,
    load_calibration,
    open_text,
)
from .errors import AuditError, CsvError, DuplicateUrl, ParseError, SchemaError
from .metrics import METRIC_KEYS, MetricSet, compute_all, link_metrics, mode_metrics
from .netsim import replay_link, replay_mode
from .scoring import CATEGORIES, SCORE_MAX, ScoreReport, score_metrics
from .trace import (
    NormalizedTrace,
    _checked_record,
    _date,
    _field,
    _integer,
    _known_keys,
    _number,
    _object,
    _parse_json,
    _string,
)

TIERS = ("provinsi", "kabupaten-kota", "kecamatan", "desa")

_CSV_HEADER = ("no", "institution", "tier", "region", "url")
_URL = re.compile(r"^https?://\S+$")


class SiteRecord(NamedTuple):
    no: int
    institution: str
    tier: str
    region: str
    url: str


@_checked_record
class AuditResult(NamedTuple):
    """Outcome of auditing one site in one device mode."""

    site: SiteRecord
    mode: str
    status: str
    metrics: MetricSet | None
    report: ScoreReport | None
    test_date: date
    outlier_flag: bool
    failure_reason: str | None = None

    def _check(self):
        if self.status == "ok":
            if self.report is None or self.metrics is None or self.failure_reason is not None:
                raise ValueError("ok results carry metrics and a report, and no failure reason")
        elif self.status == "failed":
            if self.report is not None or self.metrics is not None or not self.failure_reason or self.outlier_flag:
                raise ValueError("failed results carry a reason, no metrics/report and no outlier flag")
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
            if not _URL.match(url):
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
    metrics = compute_all(trace, calibration.quiet_window)
    report = score_metrics(metrics, calibration.curves_for(mode.kind), calibration.weights, calibration.bands)
    return metrics, report


# A URL's scheme, and each run of characters a trace's file name leaves out.
_SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*://")
_NOT_SLUG = re.compile(r"[^a-z0-9]+")


def trace_slug(url: str) -> str:
    """Stable filesystem name (without extension) for a site's trace."""
    import hashlib  # here, not at the top: its OpenSSL load would add to every process's start-up

    stripped = _SCHEME.sub("", url.strip().lower())
    readable = _NOT_SLUG.sub("-", stripped).strip("-")
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

    A site's trace is loaded once, replayed on its link once
    (`netsim.replay_link`) and its link's metrics computed once
    (`metrics.link_metrics`); every mode retimes the replay's tasks
    (`netsim.replay_mode`) and adds the metrics they decide
    (`metrics.mode_metrics`). Results come back sorted by (site number,
    mode kind). Per-item failures never abort the batch: a failed load or
    link stage fails every mode with the same reason, and a mode whose own
    stage fails keeps that reason, as a single audit would.
    """
    if calibration is None:
        calibration = load_calibration()
    if test_date is None:
        test_date = date.today()
    # Trace files are named as Path(traces_dir) / name spells them (a failure reason quotes
    # the name), but joined as strings, which costs less than a Path per site.
    traces = str(Path(traces_dir))
    traces = "" if traces == "." else os.path.join(traces, "")

    quiet, weights, bands = calibration.quiet_window, calibration.weights, calibration.bands
    spec = _find_throttle(throttle, calibration)  # read once, so every mode sees one version of a file
    link_profile = spec.resolve()  # every mode's link: modes differ only in the CPU
    cpu = {kind: spec.resolve(calibration.mode(kind)).cpu_multiplier for kind in modes}
    curves = {kind: calibration.curves_for(kind) for kind in modes}
    results: list[AuditResult] = []
    for site in records:
        try:
            link = replay_link(load_trace(traces + trace_slug(site.url) + ".json"), link_profile)
        except (AuditError, OSError) as exc:
            results += [_failed(site, kind, test_date, exc) for kind in modes]
            continue
        shared = None  # the link's metrics, from the first mode whose own stage succeeds; a failure is not kept
        for kind in modes:
            try:
                trace = replay_mode(link, cpu[kind])
                if shared is None:
                    shared = link_metrics(link, quiet)
                metrics = mode_metrics(shared, trace, quiet)
                report = score_metrics(metrics, curves[kind], weights, bands)
            except AuditError as exc:
                results.append(_failed(site, kind, test_date, exc))
            else:
                flag = calibration.outliers.flags(report.performance_score)
                results.append(AuditResult(site, kind, "ok", metrics, report, test_date, flag))
    # url breaks ties: `no` need not be unique.
    results.sort(key=lambda r: (r.site.no, r.mode, r.site.url))
    return results


def _failed(site: SiteRecord, kind: str, test_date: date, exc: Exception) -> AuditResult:
    return AuditResult(site, kind, "failed", None, None, test_date, False, f"{type(exc).__name__}: {exc}")


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
    if type(_field(data, "outlier_flag", "$")) is not bool:
        raise SchemaError("$.outlier_flag", "must be true or false")
    status = _string(data, "status", "$", choices=("ok", "failed"))
    reason = data.get("failure_reason")
    ok = status == "ok"
    if (reason is not None) if ok else (type(reason) is not str or not reason):
        _field(data, "failure_reason", "$")  # names a missing one
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
    return AuditResult(site, mode, status, metrics, report, test_date, data["outlier_flag"], reason)


# The keys of a result line.
_RESULT_FIELDS = (
    "site", "mode", "status", "failure_reason", "metrics", "scores", "performance_score", "category", "test_date",
    "outlier_flag",
)  # fmt: skip
_RESULT_FIELD_SET = frozenset(_RESULT_FIELDS)
_SITE_FIELD_SET = frozenset(SiteRecord._fields)
_METRIC_KEY_SET = frozenset(METRIC_KEYS)


def _site_from_dict(data: dict) -> SiteRecord:
    """The `site` object of a result line: the five SiteRecord fields, an
    integer of any size, as in ingest_corpus (a bool is not one), and four strings.

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
    no = site["no"] if type(site.get("no")) is int else _integer(site, "no", "$.site")
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
    """Write one result per line, the bytes json.dumps(..., sort_keys=True,
    separators=(",", ":")) writes for it, so equal result lists produce
    byte-identical files. A metric or score that is not finite is a
    ValueError naming the url, the mode and the field: read_results
    refuses the Infinity and NaN json.dumps would write. The lines stream to
    a file beside path that replaces it after the last line, so a failed
    write leaves path as it was; a pipe or a device (/dev/stdout) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(map(_result_line, results))
        return
    target = os.path.realpath(path)  # through a symlink: replace the file, not the link
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.writelines(map(_result_line, results))
        os.replace(temporary, target)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise


# The sorted-key compact layout of a result line, ok and failed. Floats go
# in through %r, float.__repr__, which is what json's encoder writes, and
# strings quoted and escaped as json.dumps escapes them by default.
_SORTED_KEYS = sorted(METRIC_KEYS)
_SIX_FLOATS = "{" + ",".join(f'"{key}":%r' for key in _SORTED_KEYS) + "}"
_OK_LINE = (
    '{"category":%s,"failure_reason":null,"metrics":' + _SIX_FLOATS + ',"mode":%s,"outlier_flag":%s,'
    '"performance_score":%r,"scores":' + _SIX_FLOATS + ","
    '"site":{"institution":%s,"no":%d,"region":%s,"tier":%s,"url":%s},"status":"ok","test_date":%s}\n'
)
_FAILED_LINE = (
    '{"category":null,"failure_reason":%s,"metrics":null,"mode":%s,"outlier_flag":%s,"performance_score":null,'
    '"scores":null,"site":{"institution":%s,"no":%d,"region":%s,"tier":%s,"url":%s},"status":"failed","test_date":%s}\n'
)
# A MetricSet's values and a scores mapping's in sorted key order, and the path of each float of an ok line.
_sorted_metrics = itemgetter(*map(METRIC_KEYS.index, _SORTED_KEYS))
_sorted_scores = itemgetter(*_SORTED_KEYS)
_LINE_FLOATS = (
    *[f"$.metrics.{key}" for key in _SORTED_KEYS], "$.performance_score", *[f"$.scores.{key}" for key in _SORTED_KEYS]
)


def _result_line(result: AuditResult) -> str:
    """The results-file line of one result, newline included."""
    site, mode, status, metrics, report, test_date, outlier_flag, reason = result
    # What both layouts hold, in key order: mode and outlier_flag, then site and test_date.
    shared = (
        _quote(mode), "true" if outlier_flag else "false",
        _quote(site.institution), site.no, _quote(site.region), _quote(site.tier), _quote(site.url),
        _quote(test_date.isoformat()),
    )  # fmt: skip
    if status != "ok":
        return _FAILED_LINE % (_quote(reason), *shared)
    floats = (*_sorted_metrics(metrics), report.performance_score, *_sorted_scores(report.scores))
    if not all(map(math.isfinite, floats)):  # each value on its own: a sum of finite values can overflow
        i = next(i for i, value in enumerate(floats) if not math.isfinite(value))
        raise ValueError(f"{site.url} ({mode}): {_LINE_FLOATS[i]}: must be finite to be written, got {floats[i]!r}")
    return _OK_LINE % (_quote(report.category), *floats[:6], *shared[:2], *floats[6:], *shared[2:])


def read_results(path: str | Path) -> list[AuditResult]:
    """Read a results file; a bad line, or one that is not UTF-8, is a
    ParseError naming the file and the line."""
    results = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                results.append(result_from_dict(_parse_json(line, path, number)))
            except (KeyError, TypeError, ValueError, SchemaError) as exc:
                raise ParseError(f"{path}, line {number}: {exc}") from exc
    return results
