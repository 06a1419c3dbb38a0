"""Corpus ingestion, membership, batch running, and result files."""

import dataclasses
import datetime
import json
import logging
import random

import pytest

import webaudit.corpus
import webaudit.netsim
from conftest import random_trace
from webaudit.collector import load_trace, write_trace
from webaudit.config import load_calibration, resolve_throttle
from webaudit.corpus import (
    AuditResult,
    SiteRecord,
    audit_trace,
    flag_outliers,
    ingest_corpus,
    membership_filter,
    normalize_region,
    read_results,
    result_from_dict,
    result_to_dict,
    run_batch,
    trace_slug,
    write_results,
)
from webaudit.errors import AuditError, CsvError, DuplicateUrl, ParseError, SchemaError
from webaudit.metrics import MetricSet, compute_all
from webaudit.netsim import apply_throttle
from webaudit.scoring import ScoreReport
from webaudit.synth import build_demo_trace
from webaudit.config import OutlierBounds

MEMBERS = ("Kota Bandung", "Kab. Bogor")
TEST_DATE = datetime.date(2019, 8, 25)
_METRICS = MetricSet(800.0, 1500.0, 1460.0, 1100.0, 1100.0, 200.0)


def write_corpus(tmp_path, rows: list[str]):
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join(["no,institution,tier,region,url"] + rows) + "\n", "utf-8")
    return path


def ok_result(score: float, no: int = 1, mode: str = "mobile", region: str = "Kota Bandung") -> AuditResult:
    site = SiteRecord(no, "Diskominfo", "kabupaten-kota", region, f"https://s{no}.test", True)
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
    def test_happy_path_marks_membership(self, tmp_path):
        path = write_corpus(
            tmp_path,
            [
                "1,Diskominfo,kabupaten-kota,kota bandung,https://bandung.go.id",
                "2,Sekretariat,provinsi,Kab. Garut,https://garut.go.id",
            ],
        )
        records = ingest_corpus(path, MEMBERS)
        assert [r.smart_city_member for r in records] == [True, False]
        assert records[0].no == 1
        assert records[1].tier == "provinsi"

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

    def test_default_member_list_is_the_packaged_one(self, tmp_path):
        path = write_corpus(tmp_path, ["1,A,provinsi,Web SKPD Provinsi,https://a.test"])
        assert ingest_corpus(path)[0].smart_city_member


class TestMembershipFilter:
    def test_keeps_members_in_order_and_sets_the_flag(self):
        records = [
            SiteRecord(1, "A", "provinsi", "Kab. Garut", "https://a.test", False),
            SiteRecord(2, "B", "kabupaten-kota", "KOTA BANDUNG", "https://b.test", False),
            SiteRecord(3, "C", "kabupaten-kota", "Kab. Bogor", "https://c.test", True),
        ]
        kept = membership_filter(records, MEMBERS)
        assert [r.no for r in kept] == [2, 3]
        assert all(r.smart_city_member for r in kept)
        assert membership_filter(kept, MEMBERS) == kept


class TestAuditTrace:
    def test_metrics_and_report_line_up(self, simple_trace):
        calibration = load_calibration()
        metrics, report = audit_trace(simple_trace, calibration.mode("mobile"), calibration)
        assert metrics == compute_all(simple_trace, quiet=calibration.quiet_window)
        assert 0.0 <= report.performance_score <= 100.0


class TestFlagOutliers:
    def test_extremes_flagged_midrange_not(self):
        assert flag_outliers(ok_result(97.0))
        assert flag_outliers(ok_result(3.0))
        assert not flag_outliers(ok_result(50.0))
        assert flag_outliers(ok_result(95.0))  # bounds are inclusive
        assert flag_outliers(ok_result(5.0))

    def test_custom_bounds(self):
        assert flag_outliers(ok_result(80.0), OutlierBounds(upper=75.0, lower=10.0))

    def test_failed_results_cannot_be_flagged(self):
        failed = AuditResult(
            site=SiteRecord(1, "A", "provinsi", "Kota Bandung", "https://a.test", True),
            mode="mobile",
            status="failed",
            metrics=None,
            report=None,
            test_date=TEST_DATE,
            outlier_flag=False,
            failure_reason="NoContentfulPaint: nothing painted",
        )
        with pytest.raises(ValueError):
            flag_outliers(failed)


class TestAuditResultInvariants:
    def test_ok_requires_report_and_metrics(self):
        with pytest.raises(ValueError):
            AuditResult(
                site=SiteRecord(1, "A", "provinsi", "X", "https://a.test", False),
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
                site=SiteRecord(1, "A", "provinsi", "X", "https://a.test", False),
                mode="mobile",
                status="failed",
                metrics=_METRICS,
                report=None,
                test_date=TEST_DATE,
                outlier_flag=False,
                failure_reason="boom",
            )

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            AuditResult(
                site=SiteRecord(1, "A", "provinsi", "X", "https://a.test", False),
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


class TestRunBatch:
    def setup_workspace(self, tmp_path, simple_trace):
        traces = tmp_path / "traces"
        traces.mkdir()
        records = [
            SiteRecord(1, "A", "kabupaten-kota", "Kota Bandung", "https://ok.test", True),
            SiteRecord(2, "B", "kabupaten-kota", "Kab. Bogor", "https://missing.test", True),
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

    def test_progress_logged_per_completed_audit(self, tmp_path, simple_trace, caplog):
        records, traces = self.setup_workspace(tmp_path, simple_trace)
        with caplog.at_level(logging.INFO, logger="webaudit.corpus"):
            results = run_batch(records, ("mobile", "desktop"), "none", traces_dir=traces, test_date=TEST_DATE)
        progress = [m for m in caplog.messages if m.startswith("audit ")]
        reason = results[-1].failure_reason
        assert reason.startswith("FileNotFoundError: ")
        assert progress == [
            "audit 1/4 https://ok.test [mobile] ok",
            "audit 2/4 https://ok.test [desktop] ok",
            f"audit 3/4 https://missing.test [mobile] failed: {reason}",
            f"audit 4/4 https://missing.test [desktop] failed: {reason}",
        ]

    def test_one_load_and_one_network_replay_per_site(self, tmp_path, simple_trace, monkeypatch):
        records, traces = self.setup_workspace(tmp_path, simple_trace)
        records.append(SiteRecord(3, "C", "kabupaten-kota", "Kota Bandung", "https://ok3.test", True))
        write_trace(simple_trace, traces / (trace_slug("https://ok3.test") + ".json"))
        calls = {"load_trace": 0, "simulate_waterfall": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(webaudit.corpus, "load_trace")
        counted(webaudit.netsim, "simulate_waterfall")
        results = run_batch(records, ("mobile", "desktop"), "4g", traces_dir=traces, test_date=TEST_DATE)
        assert [r.status for r in results] == ["ok", "ok", "failed", "failed", "ok", "ok"]
        assert calls == {"load_trace": 3, "simulate_waterfall": 2}

    def test_task_overflow_fails_only_its_mode(self, tmp_path):
        trace = build_demo_trace(5)
        last = dataclasses.replace(trace.tasks[-1], dur_ms=5e307)  # finite, but inf at 4x CPU
        records, traces = self.setup_workspace(tmp_path, dataclasses.replace(trace, tasks=trace.tasks[:-1] + (last,)))
        results = run_batch(records[:1], ("mobile", "desktop"), "4g", traces_dir=traces, test_date=TEST_DATE)
        desktop, mobile = results
        assert mobile.failure_reason == "ThrottleOverflow: throttle too extreme to simulate: a replayed time reached inf"
        assert desktop.status == "ok"
        assert desktop.report.performance_score == 53.242505369267796

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


def single_audit(record, kind, throttle, traces, calibration):
    """The result one site in one mode gets on its own: load, throttle, audit."""
    try:
        trace = load_trace(traces / (trace_slug(record.url) + ".json"))
        throttled = apply_throttle(trace, resolve_throttle(throttle, calibration, calibration.mode(kind)))
        metrics, report = audit_trace(throttled, calibration.mode(kind), calibration)
    except (AuditError, OSError) as exc:
        return AuditResult(record, kind, "failed", None, None, TEST_DATE, False, f"{type(exc).__name__}: {exc}")
    result = AuditResult(record, kind, "ok", metrics, report, TEST_DATE, False)
    return dataclasses.replace(result, outlier_flag=flag_outliers(result, calibration.outliers))


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
            record = SiteRecord(no, "A", "kecamatan", "Kota Bandung", f"https://s{no}.test", True)
            write_trace(random_trace(rng), traces / (trace_slug(record.url) + ".json"))
            records.append(record)
        records.append(SiteRecord(51, "B", "kecamatan", "Kab. Bogor", "https://missing.test", True))

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
        records = [SiteRecord(1, "A", "provinsi", "Kota Bandung", "https://ok.test", True)]
        traces = tmp_path / "traces"
        traces.mkdir()
        write_trace(simple_trace, traces / (trace_slug("https://ok.test") + ".json"))
        results = run_batch(records, ("mobile",), "4g", traces_dir=traces, test_date=TEST_DATE)
        results.append(
            AuditResult(
                site=SiteRecord(2, "B", "provinsi", "Kab. Bogor", "https://gone.test", True),
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
        assert type(result.metrics.fcp_ms) is float and result.metrics.fcp_ms == 800.0
        assert type(result.report.scores["fcp"]) is float and result.report.scores["fcp"] == 90.0

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["metrics"].pop("tti"), "$.metrics.tti: missing field"),
            (lambda d: d["scores"].update(speed=1.0), "$.scores.speed: unknown field"),
            (lambda d: d["metrics"].update(fcp=True), "$.metrics.fcp: must be a number"),
            (lambda d: d["scores"].update(si=1e400), "$.scores.si: must be finite"),
            (lambda d: d.update(scores=None), "$.scores: must be an object"),
            (lambda d: d.update(site=[]), "$.site: must be an object"),
            (lambda d: d["site"].pop("url"), "$.site.url: missing field"),
            (lambda d: d["site"].update(smart_city_member=1), "$.site.smart_city_member: must be a JSON bool"),
            (lambda d: d["site"].update(no=True), "$.site.no: must be a JSON integer"),
            (lambda d: d.update(category=None), "$.category: must be one of good, average, poor"),
        ],
    )
    def test_bad_field_is_a_schema_error_at_its_path(self, edit, message):
        data = result_to_dict(ok_result(50.0))
        edit(data)
        with pytest.raises(SchemaError) as exc:
            result_from_dict(data)
        assert str(exc.value) == message

    def test_corrupt_line_reports_its_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_results([ok_result(50.0)], path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
        with pytest.raises(ParseError, match="line 2"):
            read_results(path)
