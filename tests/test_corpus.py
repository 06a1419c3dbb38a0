"""Corpus ingestion, membership, batch running, and result files."""

import codecs
import datetime
import json
import logging
import math
import pathlib
import random
import re

import pytest

import webaudit.config
import webaudit.corpus
import webaudit.metrics
import webaudit.netsim
from conftest import NOT_UTF8_CORPUS_ERROR, random_trace, write_not_utf8_corpus
from oracles import result_to_dict
from webaudit.collector import load_trace, write_trace
from webaudit.config import load_calibration, resolve_throttle
from webaudit.corpus import (
    AuditResult,
    SiteRecord,
    TIERS,
    audit_trace,
    ingest_corpus,
    membership_filter,
    normalize_region,
    read_results,
    result_from_dict,
    run_batch,
    trace_slug,
    write_results,
)
from webaudit.errors import AuditError, CsvError, DuplicateUrl, ParseError, SchemaError
from webaudit.metrics import MetricSet, compute_all
from webaudit.netsim import apply_throttle
from webaudit.report import build_aggregates, read_aggregates, write_aggregates
from webaudit.scoring import CATEGORIES, SCORE_MAX, ScoreReport
from webaudit.synth import build_demo_trace, write_demo_workspace
from webaudit.trace import MainThreadTask, NormalizedTrace, PaintEvent, VisualSample
from webaudit.config import OutlierBounds

MEMBERS = ("Kota Bandung", "Kab. Bogor")
REASON_MESSAGE = "$.failure_reason: must be null on an ok result and a non-empty string on a failed one"
# The fields of a failed result line, over those of an ok one.
FAILED = dict(status="failed", failure_reason="x", metrics=None, scores=None, performance_score=None, category=None)
TEST_DATE = datetime.date(2019, 8, 25)
_METRICS = MetricSet(800.0, 1500.0, 1460.0, 1100.0, 1100.0, 200.0)


def write_corpus(tmp_path, rows: list[str]):
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join(["no,institution,tier,region,url"] + rows) + "\n", "utf-8")
    return path


def ok_result(score: float, no: int = 1, mode: str = "mobile", region: str = "Kota Bandung") -> AuditResult:
    site = SiteRecord(no, "Diskominfo", "kabupaten-kota", region, f"https://s{no}.test")
    return AuditResult(
        site=site,
        mode=mode,
        status="ok",
        metrics=_METRICS,
        report=ScoreReport(scores={k: score for k in _METRICS.as_dict()}, performance_score=score, category="average"),
        test_date=TEST_DATE,
        outlier_flag=False,
    )


class TestNormalizeRegion:
    def test_case_and_whitespace_insensitive(self):
        assert normalize_region("  kota   BANDUNG ") == normalize_region("Kota Bandung")
        assert normalize_region("Kab. Bogor") != normalize_region("Kota Bogor")


class TestIngestCorpus:
    def test_happy_path_keeps_the_member_rows(self, tmp_path):
        path = write_corpus(
            tmp_path,
            [
                "1,Diskominfo,kabupaten-kota,kota bandung,https://bandung.go.id",
                "2,Sekretariat,provinsi,Kab. Garut,https://garut.go.id",
            ],
        )
        records = ingest_corpus(path)
        assert records[0].no == 1
        assert records[1].tier == "provinsi"
        assert ingest_corpus(path, MEMBERS) == membership_filter(records, MEMBERS) == records[:1]

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,name,url\n", "utf-8")
        with pytest.raises(CsvError) as exc:
            ingest_corpus(path, MEMBERS)
        assert exc.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("", "utf-8")
        with pytest.raises(CsvError):
            ingest_corpus(path, MEMBERS)

    @pytest.mark.parametrize(
        "row, column",
        [
            ("x,Diskominfo,provinsi,Kota Bandung,https://a.test", "no"),
            ("1,,provinsi,Kota Bandung,https://a.test", "institution"),
            ("1,Diskominfo,city,Kota Bandung,https://a.test", "tier"),
            ("1,Diskominfo,provinsi,,https://a.test", "region"),
            ("1,Diskominfo,provinsi,Kota Bandung,ftp://a.test", "url"),
            ("1,Diskominfo,provinsi,Kota Bandung,https://a b", "url"),
            ("1,Diskominfo,provinsi,Kota Bandung,bandung.go.id", "url"),
        ],
    )
    def test_field_validation_names_the_column(self, tmp_path, row, column):
        path = write_corpus(tmp_path, [row])
        with pytest.raises(CsvError) as exc:
            ingest_corpus(path, MEMBERS)
        assert exc.value.column == column
        assert exc.value.line == 2

    def test_wrong_field_count(self, tmp_path):
        path = write_corpus(tmp_path, ["1,Diskominfo,provinsi,Kota Bandung"])
        with pytest.raises(CsvError) as exc:
            ingest_corpus(path, MEMBERS)
        assert exc.value.column is None

    def test_duplicate_url_reports_the_second_line(self, tmp_path):
        path = write_corpus(
            tmp_path,
            [
                "1,A,provinsi,Kota Bandung,https://same.test",
                "2,B,provinsi,Kab. Garut,https://same.test",
            ],
        )
        with pytest.raises(DuplicateUrl) as exc:
            ingest_corpus(path, MEMBERS)
        assert exc.value.line == 3
        assert exc.value.url == "https://same.test"

    def test_blank_lines_ignored(self, tmp_path):
        path = write_corpus(tmp_path, ["", "1,A,provinsi,Kota Bandung,https://a.test", ""])
        assert len(ingest_corpus(path, MEMBERS)) == 1

    def test_no_member_list_keeps_every_row(self, tmp_path):
        path = write_corpus(tmp_path, ["1,A,provinsi,Nowhere,https://a.test"])
        assert [r.region for r in ingest_corpus(path)] == ["Nowhere"]

    def test_a_byte_order_mark_before_the_header_is_skipped(self, tmp_path):
        path = write_corpus(tmp_path, ["1,Diskominfo,kabupaten-kota,Kota Bandung,https://bandung.go.id"])
        plain = ingest_corpus(path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert ingest_corpus(path) == plain
        assert plain == [SiteRecord(1, "Diskominfo", "kabupaten-kota", "Kota Bandung", "https://bandung.go.id")]

    def test_a_byte_that_is_not_utf8_is_named_by_its_line_and_file_offset(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_not_utf8_corpus(path)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}, {NOT_UTF8_CORPUS_ERROR}')}$"):
            ingest_corpus(path, MEMBERS)


class TestMembershipFilter:
    def test_keeps_members_in_order(self):
        records = [
            SiteRecord(1, "A", "provinsi", "Kab. Garut", "https://a.test"),
            SiteRecord(2, "B", "kabupaten-kota", "KOTA BANDUNG", "https://b.test"),
            SiteRecord(3, "C", "kabupaten-kota", "Kab. Bogor", "https://c.test"),
        ]
        kept = membership_filter(records, MEMBERS)
        assert [r.no for r in kept] == [2, 3]
        assert membership_filter(kept, MEMBERS) == kept


class TestAuditTrace:
    def test_metrics_and_report_line_up(self, simple_trace):
        calibration = load_calibration()
        metrics, report = audit_trace(simple_trace, calibration.mode("mobile"), calibration)
        assert metrics == compute_all(simple_trace, quiet=calibration.quiet_window)
        assert 0.0 <= report.performance_score <= 100.0


class TestFlagOutliers:
    def test_extremes_flagged_midrange_not(self, calibration):
        bounds = calibration.outliers
        assert bounds.flags(97.0)
        assert bounds.flags(3.0)
        assert not bounds.flags(50.0)
        assert bounds.flags(95.0)  # bounds are inclusive
        assert bounds.flags(5.0)

    def test_custom_bounds(self):
        assert OutlierBounds(upper=75.0, lower=10.0).flags(80.0)


class TestAuditResultInvariants:
    def test_ok_requires_report_and_metrics(self):
        with pytest.raises(ValueError):
            AuditResult(
                site=SiteRecord(1, "A", "provinsi", "X", "https://a.test"),
                mode="mobile",
                status="ok",
                metrics=None,
                report=None,
                test_date=TEST_DATE,
                outlier_flag=False,
            )

    def test_failed_requires_reason_and_no_payload(self):
        with pytest.raises(ValueError):
            AuditResult(
                site=SiteRecord(1, "A", "provinsi", "X", "https://a.test"),
                mode="mobile",
                status="failed",
                metrics=_METRICS,
                report=None,
                test_date=TEST_DATE,
                outlier_flag=False,
                failure_reason="boom",
            )

    def test_failed_refuses_an_outlier_flag(self):
        # read_results refuses such a line, so write_results must never be handed one.
        with pytest.raises(ValueError, match="no outlier flag"):
            AuditResult(
                site=SiteRecord(1, "A", "provinsi", "X", "https://a.test"),
                mode="mobile",
                status="failed",
                metrics=None,
                report=None,
                test_date=TEST_DATE,
                outlier_flag=True,
                failure_reason="boom",
            )

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            AuditResult(
                site=SiteRecord(1, "A", "provinsi", "X", "https://a.test"),
                mode="mobile",
                status="pending",
                metrics=None,
                report=None,
                test_date=TEST_DATE,
                outlier_flag=False,
            )


class TestTraceSlug:
    def test_readable_and_stable(self):
        slug = trace_slug("https://www.bandung.go.id/path?q=1")
        assert slug == trace_slug("https://www.bandung.go.id/path?q=1")
        assert slug.startswith("www-bandung-go-id-path-q-1-")

    def test_distinct_urls_do_not_collide(self):
        long_a = "https://site.test/" + "a" * 200
        long_b = "https://site.test/" + "a" * 200 + "b"
        assert trace_slug(long_a) != trace_slug(long_b)
        assert len(trace_slug(long_a)) <= 64 + 1 + 8

    def test_scheme_is_dropped_case_folded(self):
        assert trace_slug("HTTPS://SITE.TEST/X").startswith("site-test-x-")

    def test_names_of_stored_traces_do_not_change(self):
        assert trace_slug("https://www.bandung.go.id/path?q=1") == "www-bandung-go-id-path-q-1-0608c68d"
        assert trace_slug("HTTPS://SITE.TEST/X") == "site-test-x-07addfab"


@pytest.fixture
def edge_sorts(monkeypatch):
    """One entry per sort of a trace's request starts and ends: a call of
    metrics._overload_intervals, the one in-flight rule."""
    calls = []
    original = webaudit.metrics._overload_intervals

    def counted(requests, max_inflight):
        calls.append(None)
        return original(requests, max_inflight)

    monkeypatch.setattr(webaudit.metrics, "_overload_intervals", counted)
    return calls


class TestRunBatch:
    def setup_workspace(self, tmp_path, simple_trace):
        traces = tmp_path / "traces"
        traces.mkdir()
        records = [
            SiteRecord(1, "A", "kabupaten-kota", "Kota Bandung", "https://ok.test"),
            SiteRecord(2, "B", "kabupaten-kota", "Kab. Bogor", "https://missing.test"),
        ]
        write_trace(simple_trace, traces / (trace_slug("https://ok.test") + ".json"))
        return records, traces

    def test_failures_are_data_not_exceptions(self, tmp_path, simple_trace):
        records, traces = self.setup_workspace(tmp_path, simple_trace)
        results = run_batch(records, ("mobile", "desktop"), "none", traces_dir=traces, test_date=TEST_DATE)
        assert [(r.site.no, r.mode, r.status) for r in results] == [
            (1, "desktop", "ok"),
            (1, "mobile", "ok"),
            (2, "desktop", "failed"),
            (2, "mobile", "failed"),
        ]
        assert "FileNotFoundError" in results[-1].failure_reason
        assert results[2].failure_reason == results[3].failure_reason
        assert results[0].metrics is not None

    def test_emits_no_log_record(self, tmp_path, simple_trace, caplog):
        # Failures are data: callers read failure_reason, and the CLI prints
        # the failed results after the batch.
        records, traces = self.setup_workspace(tmp_path, simple_trace)
        with caplog.at_level(logging.DEBUG, logger="webaudit"):
            results = run_batch(records, ("mobile", "desktop"), "none", traces_dir=traces, test_date=TEST_DATE)
        assert [r.status for r in results] == ["ok", "ok", "failed", "failed"]
        assert caplog.records == []

    def test_one_load_and_one_network_replay_per_site(self, tmp_path, simple_trace, monkeypatch, edge_sorts):
        records, traces = self.setup_workspace(tmp_path, simple_trace)
        records.append(SiteRecord(3, "C", "kabupaten-kota", "Kota Bandung", "https://ok3.test"))
        write_trace(simple_trace, traces / (trace_slug("https://ok3.test") + ".json"))
        calls = {"load_trace": 0, "waterfall_times": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(webaudit.corpus, "load_trace")
        counted(webaudit.netsim, "waterfall_times")
        results = run_batch(records, ("mobile", "desktop"), "4g", traces_dir=traces, test_date=TEST_DATE)
        assert [r.status for r in results] == ["ok", "ok", "failed", "failed", "ok", "ok"]
        assert calls == {"load_trace": 3, "waterfall_times": 2}
        assert len(edge_sorts) == 2

    def test_task_overflow_fails_only_its_mode(self, tmp_path):
        trace = build_demo_trace(5)
        last = trace.tasks[-1]._replace(dur_ms=5e307)  # finite, but inf at 4x CPU
        records, traces = self.setup_workspace(tmp_path, trace._replace(tasks=trace.tasks[:-1] + (last,)))
        results = run_batch(records[:1], ("mobile", "desktop"), "4g", traces_dir=traces, test_date=TEST_DATE)
        desktop, mobile = results
        assert mobile.failure_reason == "ThrottleOverflow: throttle or input times too extreme to simulate: a time reached inf"
        assert desktop.status == "ok"
        assert desktop.report.performance_score == 53.242505369267796

    def test_a_mode_stage_failure_comes_before_a_link_metric_failure(self, tmp_path):
        # No contentful paint, and a task that overflows at mobile's 4x CPU.
        trace = NormalizedTrace(paint_events=(PaintEvent(100.0, "first-paint"),), tasks=(MainThreadTask(0.0, 1e308),))
        records, traces = self.setup_workspace(tmp_path, trace)
        desktop, mobile = run_batch(records[:1], ("mobile", "desktop"), "4g", traces_dir=traces, test_date=TEST_DATE)
        assert mobile.failure_reason == "ThrottleOverflow: throttle or input times too extreme to simulate: a time reached inf"
        assert desktop.failure_reason == "NoContentfulPaint: trace has no contentful-paint event"

    @pytest.mark.parametrize("spelling", [".", "traces", "./traces/", "traces//", "{tmp}/traces", "{tmp}//traces/"])
    def test_a_trace_file_is_named_as_a_path_names_it(self, tmp_path, simple_trace, monkeypatch, spelling):
        # A failure reason quotes the file name, so the batch names it as Path(traces_dir) / name does.
        records, traces = self.setup_workspace(tmp_path, simple_trace)
        monkeypatch.chdir(traces if spelling == "." else tmp_path)
        directory = spelling.format(tmp=tmp_path)
        results = run_batch(records, ("mobile",), "none", traces_dir=directory, test_date=TEST_DATE)
        missing = pathlib.Path(directory) / (trace_slug("https://missing.test") + ".json")
        assert [r.status for r in results] == ["ok", "failed"]
        assert results[1].failure_reason == f"FileNotFoundError: [Errno 2] No such file or directory: {str(missing)!r}"

    @pytest.mark.parametrize("throttle", ["none", "4g"])
    def test_one_sort_of_the_in_flight_edges_per_site(self, tmp_path, throttle, edge_sorts):
        paths = write_demo_workspace(tmp_path)
        records = ingest_corpus(paths["corpus"])
        results = run_batch(records, ("mobile", "desktop"), throttle, traces_dir=paths["traces"], test_date=TEST_DATE)
        assert (len(records), [r.status for r in results]) == (12, ["ok"] * 24)
        assert len(edge_sorts) == 12

    def test_a_throttle_file_is_read_once_per_batch(self, tmp_path, monkeypatch):
        # Every mode then sees one version of the file, even if it is edited mid-batch.
        paths = write_demo_workspace(tmp_path)
        profile = tmp_path / "4g.json"
        profile.write_text(json.dumps({"rtt_ms": 150, "downlink_kbps": 1638, "cpu_multiplier": None}), "utf-8")
        reads = []
        original = webaudit.config._read_json
        monkeypatch.setattr(webaudit.config, "_read_json", lambda path: reads.append(path) or original(path))
        records = ingest_corpus(paths["corpus"])
        modes = ("mobile", "desktop")
        by_file = run_batch(records, modes, str(profile), traces_dir=paths["traces"], test_date=TEST_DATE)
        assert reads == [profile]
        assert by_file == run_batch(records, modes, "4g", traces_dir=paths["traces"], test_date=TEST_DATE)

    @pytest.mark.parametrize(
        "profile",
        [{"rtt_ms": 1e308, "downlink_kbps": 1638}, {"rtt_ms": 100, "downlink_kbps": 1000, "cpu_multiplier": 1e308}],
        ids=["rtt-1e308", "cpu-1e308"],
    )
    def test_throttle_too_extreme_to_simulate_fails_audits(self, tmp_path, profile):
        records, traces = self.setup_workspace(tmp_path, build_demo_trace(5))
        profile_file = tmp_path / "profile.json"
        profile_file.write_text(json.dumps(profile), "utf-8")
        results = run_batch(records, ("mobile",), str(profile_file), traces_dir=traces, test_date=TEST_DATE)
        assert [(r.site.no, r.status) for r in results] == [(1, "failed"), (2, "failed")]
        assert results[0].failure_reason.startswith("ThrottleOverflow: ")


def test_a_single_throttled_audit_sorts_its_edges_once(edge_sorts):
    calibration = load_calibration()
    mode = calibration.mode("mobile")
    throttled = apply_throttle(build_demo_trace(5), resolve_throttle("4g", calibration, mode))
    audit_trace(throttled, mode, calibration)
    assert len(edge_sorts) == 1


def single_audit(record, kind, throttle, traces, calibration):
    """The result one site in one mode gets on its own: load, throttle, audit."""
    try:
        trace = load_trace(traces / (trace_slug(record.url) + ".json"))
        throttled = apply_throttle(trace, resolve_throttle(throttle, calibration, calibration.mode(kind)))
        metrics, report = audit_trace(throttled, calibration.mode(kind), calibration)
    except (AuditError, OSError) as exc:
        return AuditResult(record, kind, "failed", None, None, TEST_DATE, False, f"{type(exc).__name__}: {exc}")
    return AuditResult(record, kind, "ok", metrics, report, TEST_DATE, calibration.outliers.flags(report.performance_score))


class TestBatchMatchesSingleAudits:
    """The batch shares one load and one network replay among a site's modes;
    each of its results must still be the one the site gets audited alone."""

    @pytest.mark.parametrize(
        "throttle",
        ["4g", {"rtt_ms": 40, "downlink_kbps": 5000}, {"rtt_ms": 0}, "none"],
        ids=["4g", "profile-file", "unlimited-link", "none"],
    )
    def test_each_result_equals_its_single_audit(self, tmp_path, throttle):
        if isinstance(throttle, dict):
            profile_file = tmp_path / "profile.json"
            profile_file.write_text(json.dumps(throttle), "utf-8")
            throttle = str(profile_file)
        calibration = load_calibration()
        rng = random.Random(6)
        traces = tmp_path / "traces"
        traces.mkdir()
        records = []
        for no in range(1, 51):
            record = SiteRecord(no, "A", "kecamatan", "Kota Bandung", f"https://s{no}.test")
            write_trace(random_trace(rng), traces / (trace_slug(record.url) + ".json"))
            records.append(record)
        records.append(SiteRecord(51, "B", "kecamatan", "Kab. Bogor", "https://missing.test"))

        results = run_batch(records, ("mobile", "desktop"), throttle, traces_dir=traces, test_date=TEST_DATE)
        expected = [
            single_audit(record, kind, throttle, traces, calibration)
            for record in records
            for kind in ("desktop", "mobile")
        ]
        assert [result_to_dict(r) for r in results] == [result_to_dict(r) for r in expected]
        assert sum(r.status == "ok" for r in results) > 50


class TestResultFiles:
    def test_round_trip_ok_and_failed(self, tmp_path, simple_trace):
        records = [SiteRecord(1, "A", "provinsi", "Kota Bandung", "https://ok.test")]
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(simple_trace, traces / (trace_slug("https://ok.test") + ".json"))
        results = run_batch(records, ("mobile",), "4g", traces_dir=traces, test_date=TEST_DATE)
        results.append(
            AuditResult(
                site=SiteRecord(2, "B", "provinsi", "Kab. Bogor", "https://gone.test"),
                mode="mobile",
                status="failed",
                metrics=None,
                report=None,
                test_date=TEST_DATE,
                outlier_flag=False,
                failure_reason="NoContentfulPaint: nothing painted",
            )
        )
        path = tmp_path / "results.jsonl"
        write_results(results, path)
        assert read_results(path) == results

    def test_rewriting_a_batch_with_failed_lines_keeps_its_bytes(self, tmp_path, simple_trace):
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(simple_trace, traces / (trace_slug("https://ok.test") + ".json"))
        records = [
            SiteRecord(1, "A", "provinsi", "Kota Bandung", "https://ok.test"),
            SiteRecord(2, "B", "provinsi", "Kab. Bogor", "https://gone.test"),
        ]
        results = run_batch(records, ("mobile", "desktop"), "4g", traces_dir=traces, test_date=TEST_DATE)
        assert [r.status for r in results] == ["ok", "ok", "failed", "failed"]
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_results(results, first)
        write_results(read_results(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_equal_results_produce_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        results = [ok_result(61.25), ok_result(38.5, no=2, mode="desktop")]
        write_results(results, a)
        write_results([result_from_dict(result_to_dict(r)) for r in results], b)
        assert a.read_bytes() == b.read_bytes()

    def test_integer_metric_values_read_as_floats(self):
        data = result_to_dict(ok_result(50.0))
        data["metrics"]["fcp"] = 800
        data["scores"]["fcp"] = 90
        result = result_from_dict(data)
        assert type(result.metrics.fcp) is float and result.metrics.fcp == 800.0
        assert type(result.report.scores["fcp"]) is float and result.report.scores["fcp"] == 90.0

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["metrics"].pop("tti"), "$.metrics.tti: missing field"),
            (lambda d: d["scores"].update(speed=1.0), "$.scores.speed: unknown field"),
            (lambda d: d["metrics"].update(fcp=True), "$.metrics.fcp: must be a number"),
            (lambda d: d["scores"].update(si=1e400), "$.scores.si: must be finite"),
            (lambda d: d["scores"].update(fcp=250.0), "$.scores.fcp: must be <= 100.0000002"),
            (lambda d: d["scores"].update(tti=-0.5), "$.scores.tti: must be >= 0"),
            (lambda d: d["scores"].update(fmp=101), "$.scores.fmp: must be <= 100.0000002"),
            (lambda d: d["metrics"].update(si=-1.0), "$.metrics.si: must be >= 0"),
            (lambda d: d.update(performance_score=1e300), "$.performance_score: must be <= 100.0000002"),
            (lambda d: d.update(performance_score=100.0000003), "$.performance_score: must be <= 100.0000002"),
            (lambda d: d.update(performance_score=-5.0), "$.performance_score: must be >= 0"),
            (lambda d: d.update(performance_score=float("nan")), "$.performance_score: must be finite"),
            (lambda d: d.update(scores=None), "$.scores: must be an object"),
            (lambda d: d.update(site=[]), "$.site: must be an object"),
            (lambda d: d["site"].pop("url"), "$.site.url: missing field"),
            (lambda d: d["site"].update(smart_city_member=True), "$.site.smart_city_member: unknown field"),
            (lambda d: d["site"].update(no=1.5), "$.site.no: must be an integer"),
            (lambda d: d["site"].update(no=True), "$.site.no: must be a number"),
            (lambda d: d["site"].update(tier=None), "$.site.tier: must be a string"),
            (lambda d: d.pop("site"), "$.site: missing field"),
            (lambda d: d.pop("mode"), "$.mode: missing field"),
            (lambda d: d.pop("category"), "$.category: missing field"),
            (lambda d: d.pop("metrics"), "$.metrics: missing field"),
            (lambda d: d.update(category=None), "$.category: must be one of good, average, poor"),
            (lambda d: d.update(status="done"), "$.status: must be one of ok, failed"),
            (lambda d: d.pop("status"), "$.status: missing field"),
            (lambda d: d.update(test_date=20190825), "$.test_date: must be an ISO date string (YYYY-MM-DD)"),
            (lambda d: d.update(test_date="25/08/2019"), "$.test_date: must be an ISO date string (YYYY-MM-DD)"),
            (lambda d: d.update(test_date="20190825"), "$.test_date: must be an ISO date string (YYYY-MM-DD)"),
            (lambda d: d.pop("test_date"), "$.test_date: missing field"),
            (lambda d: d.update(failure_reason="slow"), REASON_MESSAGE),
            (lambda d: d.update(status="failed", failure_reason=7), REASON_MESSAGE),
            (lambda d: d.update(status="failed", failure_reason=""), REASON_MESSAGE),
            (lambda d: d.update(status="failed", failure_reason=None), REASON_MESSAGE),
            (lambda d: d.update(status="failed", failure_reason="x"), "$.metrics: must be null on a failed result"),
            (lambda d: d.update(FAILED, scores={}), "$.scores: must be null on a failed result"),
            (lambda d: d.update(FAILED, performance_score=50.0), "$.performance_score: must be null on a failed result"),
            (lambda d: d.update(FAILED, category="poor"), "$.category: must be null on a failed result"),
            (lambda d: d.update(FAILED, outlier_flag=True), "$.outlier_flag: must be false on a failed result"),
            (lambda d: d.update(nickname="x"), "$.nickname: unknown field"),
            (lambda d: d.update(FAILED, extra=None), "$.extra: unknown field"),
            (lambda d: d.pop("failure_reason"), "$.failure_reason: missing field"),
            (lambda d: (d.update(FAILED), d.pop("failure_reason")), "$.failure_reason: missing field"),
            (lambda d: d.pop("outlier_flag"), "$.outlier_flag: missing field"),
            (lambda d: d.update(outlier_flag=None), "$.outlier_flag: must be true or false"),
            (lambda d: (d.update(FAILED), d.pop("metrics")), "$.metrics: missing field"),
            (lambda d: (d.update(FAILED), d.pop("category"), d.pop("scores")), "$.scores: missing field"),
            (lambda d: (d.pop("failure_reason"), d.pop("test_date")), "$.test_date: missing field"),
            (lambda d: (d.update(bonus=1), d.pop("failure_reason")), "$.bonus: unknown field"),
        ],
    )
    def test_bad_field_is_a_schema_error_at_its_path(self, edit, message):
        data = result_to_dict(ok_result(50.0))
        edit(data)
        with pytest.raises(SchemaError) as exc:
            result_from_dict(data)
        assert str(exc.value) == message

    def test_values_at_the_ends_of_their_ranges_are_read(self):
        data = result_to_dict(ok_result(50.0))
        data["metrics"].update(fcp=0.0, tti=1e300)
        data["scores"].update(fcp=0.0, si=SCORE_MAX)
        data.update(performance_score=SCORE_MAX)
        result = result_from_dict(data)
        assert result.metrics.tti == 1e300 and result.report.scores["si"] == SCORE_MAX
        assert result.report.performance_score == SCORE_MAX

    def test_scores_over_100_under_a_weight_tolerance_round_trip(self, tmp_path, calibration):
        # Weights may sum to 1 + 1e-9, so a page scoring 100 on every metric
        # gets a performance score just over 100; the readers must take it back.
        weights = calibration.weights._replace(tti=0.333 + 0.999e-9)
        calibration = calibration._replace(weights=weights)
        instant = NormalizedTrace(
            paint_events=(PaintEvent(0.0, "contentful-paint"),), visual_progress=(VisualSample(0.0, 1.0),)
        )
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(instant, traces / (trace_slug("https://fast.test") + ".json"))
        records = [SiteRecord(1, "A", "provinsi", "Kota Bandung", "https://fast.test")]
        results = run_batch(
            records, ("mobile", "desktop"), "4g", traces_dir=traces, calibration=calibration, test_date=TEST_DATE
        )
        assert all(100.0 < r.report.performance_score <= SCORE_MAX for r in results)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_results(results, first)
        write_results(read_results(first), second)
        assert second.read_bytes() == first.read_bytes()
        aggregates = build_aggregates(read_results(first), MEMBERS)
        write_aggregates(aggregates, tmp_path / "aggregates.json")
        assert read_aggregates(tmp_path / "aggregates.json") == aggregates
        assert aggregates.rows[0].raw_mean_mobile > 100.0

    @pytest.mark.parametrize("line", ["[]", "7", "null"])
    def test_non_object_line_is_a_schema_error(self, tmp_path, line):
        path = tmp_path / "results.jsonl"
        path.write_text(line + "\n", "utf-8")
        with pytest.raises(ParseError, match=r"line 1: \$: result line must be an object"):
            read_results(path)

    def test_corrupt_line_reports_its_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_results([ok_result(50.0)], path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
        with pytest.raises(ParseError, match="line 2"):
            read_results(path)

    def test_a_line_that_is_not_utf8_reports_its_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_results([ok_result(50.0, no=n) for n in (1, 2, 3)], path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b"Diskominfo", b"Diskominfo \xff\xfe")
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}, line 2: 'utf-8' codec can't decode byte 0xff"):
            read_results(path)

    def test_utf8_text_and_crlf_line_ends_are_read(self, tmp_path):
        results = [ok_result(50.0, region="Kota Bandung \u00e9"), ok_result(38.5, no=2)]
        path = tmp_path / "results.jsonl"
        path.write_bytes(
            b"".join(json.dumps(result_to_dict(r), ensure_ascii=False).encode("utf-8") + b"\r\n" for r in results)
        )
        assert read_results(path) == results


# Text a results line must escape or carry: quotes, backslashes, control
# characters, non-ASCII, astral and line-separator characters.
AWKWARD_TEXT = ('"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u00e9", "\u4e2d", "\U0001f600", "\u2028", "Kota", " ")
METRIC_VALUES = (0.0, 2547.0, 1.5e308, 5e-05, 1e-300, 0.1 + 0.2)
SCORE_VALUES = (0.0, 100.0, 5e-05, 1e-300, SCORE_MAX, 99.99999986140496)


def awkward_text(rng: random.Random) -> str:
    return "".join(rng.choices(AWKWARD_TEXT, k=rng.randint(1, 6)))


def random_result(rng: random.Random) -> AuditResult:
    """A result with every field drawn at random, text and numbers a line
    must get exactly right among them."""
    no = rng.choice((rng.randint(0, 2000), -rng.randint(1, 99), rng.randint(10**29, 10**30 - 1)))
    site = SiteRecord(no, awkward_text(rng), rng.choice(TIERS), awkward_text(rng), "https://" + awkward_text(rng))
    mode = rng.choice(("mobile", "desktop"))
    test_date = datetime.date.fromordinal(rng.randint(1, datetime.date.max.toordinal()))
    if rng.random() < 0.3:
        return AuditResult(site, mode, "failed", None, None, test_date, False, awkward_text(rng))

    def pick(values: tuple) -> float:
        return rng.choice(values) if rng.random() < 0.5 else rng.uniform(0.0, 100.0)

    metrics = MetricSet(*(pick(METRIC_VALUES) for _ in range(6)))
    scores = {key: pick(SCORE_VALUES) for key in rng.sample(MetricSet._fields, 6)}  # in a random key order
    report = ScoreReport(scores, pick(SCORE_VALUES), rng.choice(CATEGORIES))
    return AuditResult(site, mode, "ok", metrics, report, test_date, rng.random() < 0.5)


def dumps_line(result: AuditResult) -> str:
    """The line json.dumps writes for a result."""
    return json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":")) + "\n"


class TestResultLines:
    """write_results writes each line as json.dumps writes it."""

    def test_random_results_are_written_as_json_dumps_writes_them(self, tmp_path):
        rng = random.Random(0x5E1F)
        results = [random_result(rng) for _ in range(600)]
        path = tmp_path / "results.jsonl"
        write_results(results, path)
        assert path.read_text("utf-8").splitlines(keepends=True) == [dumps_line(r) for r in results]
        assert {(r.status, r.outlier_flag) for r in results} == {("ok", True), ("ok", False), ("failed", False)}
        reports = [r.report for r in results if r.status == "ok"]
        assert {*METRIC_VALUES} <= {value for r in results if r.status == "ok" for value in r.metrics}
        assert {*SCORE_VALUES} <= {value for r in reports for value in (*r.scores.values(), r.performance_score)}
        assert min(r.site.no for r in results) < 0 and max(len(str(r.site.no)) for r in results) == 30

    def test_records_read_back_keep_their_scores_order_and_write_as_json_dumps_writes_them(self, tmp_path):
        rng = random.Random(0xF11E)
        written = [random_result(rng) for _ in range(300)]
        source = tmp_path / "source.jsonl"
        source.write_text("".join(json.dumps(result_to_dict(r)) + "\n" for r in written), "utf-8")
        results = read_results(source)
        orders = {tuple(r.report.scores) for r in results if r.status == "ok"}
        assert len(orders) > 1  # not all in sorted order: the writer must sort them
        path = tmp_path / "results.jsonl"
        write_results(results, path)
        assert path.read_text("utf-8").splitlines(keepends=True) == [dumps_line(r) for r in results]

    @pytest.mark.parametrize(
        "field",
        [f"metrics.{key}" for key in MetricSet._fields] + ["performance_score"]
        + [f"scores.{key}" for key in MetricSet._fields],
    )  # fmt: skip
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_value_that_is_not_finite_is_refused_naming_its_site_mode_and_field(self, tmp_path, field, value):
        result = ok_result(50.0, mode="desktop")
        if field == "performance_score":
            result = result._replace(report=result.report._replace(performance_score=value))
        elif field.startswith("metrics."):
            result = result._replace(metrics=result.metrics._replace(**{field[8:]: value}))
        else:
            result = result._replace(report=result.report._replace(scores={**result.report.scores, field[7:]: value}))
        message = f"https://s1.test (desktop): $.{field}: must be finite to be written, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_results([result], tmp_path / "results.jsonl")

    @pytest.mark.parametrize("failure", ["refused", "io-error"])
    def test_a_failed_write_keeps_the_file_that_was_there(self, tmp_path, failure):
        path = tmp_path / "results.jsonl"
        write_results([ok_result(61.25), ok_result(38.5, no=2)], path)
        before = path.read_bytes()

        def results():
            yield ok_result(50.0, no=3)
            if failure == "refused":
                yield ok_result(50.0, no=4)._replace(metrics=_METRICS._replace(tti=math.inf))
            raise OSError("disk full")

        with pytest.raises((ValueError, OSError)):
            write_results(results(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]

    def test_a_write_through_a_symlink_replaces_the_file_it_names(self, tmp_path):
        (tmp_path / "real.jsonl").write_text("old\n", "utf-8")
        (tmp_path / "link.jsonl").symlink_to("real.jsonl")
        write_results([ok_result(61.25)], tmp_path / "link.jsonl")
        assert (tmp_path / "link.jsonl").is_symlink()
        assert (tmp_path / "real.jsonl").read_text("utf-8") == dumps_line(ok_result(61.25))

    def test_a_directory_is_not_replaced(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError):
            write_results([ok_result(61.25)], tmp_path / "out")
        assert [p.name for p in tmp_path.iterdir()] == ["out"] and not any((tmp_path / "out").iterdir())

    def test_values_whose_sum_overflows_are_each_written(self, tmp_path):
        result = ok_result(50.0)._replace(metrics=MetricSet(*[1.7976931348623157e308] * 6))
        path = tmp_path / "results.jsonl"
        write_results([result], path)
        assert path.read_text("utf-8") == dumps_line(result)
