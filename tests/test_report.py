"""Region aggregation, ranking, and the three report formats."""

import datetime
import json
import re
from pathlib import Path

import pytest

from conftest import REFERENCE_REGION_MEANS, parse_report_csv
from webaudit.corpus import AuditResult, SiteRecord
from webaudit.errors import ParseError, SchemaError, UnknownFormat
from webaudit.metrics import MetricSet
from webaudit.report import (
    REPORT_COLUMNS,
    Aggregates,
    RegionAggregate,
    aggregate_from_dict,
    aggregate_regions,
    aggregate_to_dict,
    aggregates_from_dict,
    build_aggregates,
    emit_report,
    overall_average,
    rank_regions,
    read_aggregates,
    write_aggregates,
)
from webaudit.scoring import SCORE_MAX, ScoreReport

FIXTURES = Path(__file__).parent / "fixtures"
DATE = datetime.date(2019, 8, 25)
METRICS = MetricSet(800.0, 1500.0, 1460.0, 1100.0, 1100.0, 200.0)
MEMBERS = ("Web SKPD Provinsi", "Kota Bandung", "Kab. Cirebon")


def result(region: str, mode: str, score: float | None, no: int = 1, flagged: bool = False) -> AuditResult:
    site = SiteRecord(no, "Diskominfo", "kabupaten-kota", region, f"https://{no}.test")
    if score is None:
        return AuditResult(
            site=site, mode=mode, status="failed", metrics=None, report=None,
            test_date=DATE, outlier_flag=False, failure_reason="NoContentfulPaint: nothing painted",
        )
    report = ScoreReport(scores={k: score for k in METRICS.as_dict()}, performance_score=score, category="average")
    return AuditResult(
        site=site, mode=mode, status="ok", metrics=METRICS, report=report,
        test_date=DATE, outlier_flag=flagged,
    )


def reference_aggregates() -> list[RegionAggregate]:
    return [
        RegionAggregate(
            region=region,
            mean_mobile=mobile,
            mean_web=web,
            raw_mean_mobile=mobile,
            raw_mean_web=web,
            n_ok_mobile=1,
            n_ok_web=1,
            n_failed=0,
            test_date=DATE,
        )
        for region, mobile, web in REFERENCE_REGION_MEANS
    ]


def rows_only(rows: list[RegionAggregate]) -> Aggregates:
    return Aggregates(rows, [], [])


class TestAggregateRegions:
    def test_groups_in_member_order_with_extras_after(self):
        results = [
            result("Zufallsburg", "mobile", 10.0, no=4),
            result("Kab. Cirebon", "mobile", 20.0, no=3),
            result("kota bandung", "mobile", 30.0, no=2),
            result("Aaaheim", "mobile", 40.0, no=5),
        ]
        aggregates = aggregate_regions(results, MEMBERS)
        assert [a.region for a in aggregates] == ["Kota Bandung", "Kab. Cirebon", "Aaaheim", "Zufallsburg"]

    def test_member_list_supplies_the_display_name(self):
        aggregates = aggregate_regions([result("KOTA  bandung", "mobile", 30.0)], MEMBERS)
        assert aggregates[0].region == "Kota Bandung"

    def test_means_split_by_mode_and_round_to_two_decimals(self):
        results = [
            result("Kota Bandung", "mobile", 61.255),
            result("Kota Bandung", "mobile", 61.25),
            result("Kota Bandung", "desktop", 90.0),
        ]
        a = aggregate_regions(results, MEMBERS)[0]
        assert a.raw_mean_mobile == pytest.approx(61.2525)
        assert a.mean_mobile == 61.25
        assert a.mean_web == 90.0
        assert (a.n_ok_mobile, a.n_ok_web, a.n_failed) == (2, 1, 0)

    def test_failures_count_but_do_not_skew_means(self):
        results = [
            result("Kota Bandung", "mobile", 80.0),
            result("Kota Bandung", "mobile", None),
            result("Kota Bandung", "desktop", None),
        ]
        a = aggregate_regions(results, MEMBERS)[0]
        assert a.mean_mobile == 80.0
        assert a.mean_web is None
        assert a.n_failed == 2

    def test_test_date_is_the_latest_in_the_group(self):
        early = result("Kota Bandung", "mobile", 50.0)
        late = AuditResult(
            site=early.site, mode="desktop", status="ok", metrics=METRICS,
            report=early.report, test_date=datetime.date(2019, 9, 1), outlier_flag=False,
        )
        assert aggregate_regions([early, late], MEMBERS)[0].test_date == datetime.date(2019, 9, 1)


class TestOverallAverage:
    def test_reference_means_reproduce_the_totals(self):
        overall = overall_average(reference_aggregates())
        assert overall["mobile"] == 38.7
        assert overall["web"] == 63.6

    def test_missing_means_are_skipped(self):
        aggregates = reference_aggregates()
        aggregates[0] = aggregate_from_dict(
            dict(aggregate_to_dict(aggregates[0]), mean_mobile=None, raw_mean_mobile=None, n_ok_mobile=0)
        )
        assert overall_average(aggregates)["mobile"] is not None
        assert overall_average([])["mobile"] is None


class TestRankRegions:
    def test_mobile_ranking_brackets(self):
        ranked = rank_regions(reference_aggregates(), "mobile")
        assert ranked[0].region == "Kota Bandung"
        assert ranked[-1].region == "Kab. Cirebon"

    def test_web_and_combined_modes(self):
        aggregates = reference_aggregates()
        assert rank_regions(aggregates, "web")[0].region == "Kota Bandung"
        assert rank_regions(aggregates, "combined-mean")[-1].region == "Kab. Cirebon"

    def test_ties_break_alphabetically(self):
        pair = [
            RegionAggregate("B-Stadt", 50.0, None, 50.0, None, 1, 0, 0, DATE),
            RegionAggregate("A-Stadt", 50.0, None, 50.0, None, 1, 0, 0, DATE),
        ]
        assert [a.region for a in rank_regions(pair, "mobile")] == ["A-Stadt", "B-Stadt"]

    def test_regions_without_the_mean_rank_last(self):
        rows = [
            RegionAggregate("NurWeb", None, 99.0, None, 99.0, 0, 1, 0, DATE),
            RegionAggregate("Beide", 10.0, 10.0, 10.0, 10.0, 1, 1, 0, DATE),
        ]
        assert [a.region for a in rank_regions(rows, "mobile")] == ["Beide", "NurWeb"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            rank_regions([], "tablet")


class TestCsvReport:
    def test_round_trip_projection(self):
        aggregates = reference_aggregates()
        text = emit_report(rows_only(aggregates), "csv")
        rows = parse_report_csv(text)
        assert [r["region"] for r in rows] == [a.region for a in aggregates]
        assert rows[5]["mean_mobile"] == 84.61
        assert rows[0]["test_date"] == DATE

    def test_missing_means_become_empty_cells(self):
        row = RegionAggregate("NurWeb", None, 12.34, None, 12.34, 0, 1, 2, None)
        text = emit_report(rows_only([row]), "csv")
        parsed = parse_report_csv(text)[0]
        assert parsed["mean_mobile"] is None
        assert parsed["test_date"] is None

    def test_unparsable_text_rejected(self):
        with pytest.raises(ParseError):
            parse_report_csv("wrong,header\n1,2\n")
        with pytest.raises(ParseError):
            parse_report_csv("")


class TestMdReport:
    def render(self, **kwargs) -> str:
        results = [
            result("Kota Bandung", "mobile", 98.2, no=1, flagged=True),
            result("Kota Bandung", "desktop", 55.0, no=1),
            result("Kab. Cirebon", "mobile", None, no=2),
        ]
        return emit_report(build_aggregates(results, MEMBERS), "md", **kwargs)

    def test_layout_and_total_row(self):
        text = self.render()
        assert "| " + " | ".join(REPORT_COLUMNS) + " |" in text
        assert "## Hasil per Daerah" in text
        assert "## Data Grafik" in text
        assert "## Validasi Manual" in text
        assert "## Kegagalan" in text
        assert "| Rata-rata total |" in text

    def test_outliers_and_failures_listed(self):
        text = self.render()
        assert "- Kota Bandung (mobile) skor 98.20: https://1.test" in text
        assert "- https://2.test (mobile): NoContentfulPaint: nothing painted" in text
        assert "Audit gagal: 1 dari 3." in text
        assert "| Kab. Cirebon | 1 |" in text

    def test_decimal_comma_applies_to_markdown_numbers(self):
        text = self.render(decimal_comma=True)
        assert "98,20" in text
        assert "98.20" not in text

    def test_no_results_sections_say_so(self):
        text = emit_report(build_aggregates([result("Kota Bandung", "mobile", 50.0)], MEMBERS), "md")
        assert text.count("Tidak ada.") == 2

    def test_total_row_uses_one_decimal(self):
        text = emit_report(rows_only(reference_aggregates()), "md")
        assert "| Rata-rata total | 38.7 | 63.6 |" in text


class TestJsonReport:
    def test_document_structure(self):
        results = [
            result("Kota Bandung", "mobile", 98.2, flagged=True),
            result("Kab. Cirebon", "desktop", None, no=2),
        ]
        doc = json.loads(emit_report(build_aggregates(results, MEMBERS), "json"))
        assert doc["overall_average"]["mobile"] == 98.2
        assert doc["outliers"][0]["url"] == "https://1.test"
        assert doc["failures"]["total"] == 1
        assert doc["failures"]["items"][0]["reason"].startswith("NoContentfulPaint")

    def test_aggregates_can_be_read_back(self):
        results = [
            result("Kota Bandung", "mobile", 98.2, flagged=True),
            result("Kab. Cirebon", "desktop", None, no=2),
        ]
        aggregates = build_aggregates(results, MEMBERS)
        text = emit_report(aggregates, "json")
        assert aggregates_from_dict(json.loads(text)) == aggregates
        assert emit_report(aggregates_from_dict(json.loads(text)), "json") == text

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mean_mobile", 1e30, "must be <= 100.0000002"),
            ("mean_web", 100.01, "must be <= 100.0000002"),
            ("raw_mean_mobile", -5.0, "must be >= 0"),
            ("raw_mean_web", 250.0, "must be <= 100.0000002"),
        ],
    )
    def test_mean_out_of_range_is_a_schema_error_at_its_path(self, field, value, message):
        row = dict(aggregate_to_dict(reference_aggregates()[0]), **{field: value})
        with pytest.raises(SchemaError) as exc:
            aggregate_from_dict(row, "$.aggregates[0]")
        assert str(exc.value) == f"$.aggregates[0].{field}: {message}"

    def test_means_at_the_ends_of_their_range_or_null_are_read(self):
        row = dict(
            aggregate_to_dict(reference_aggregates()[0]),
            mean_mobile=100.0, raw_mean_mobile=SCORE_MAX, mean_web=None, raw_mean_web=None, n_ok_web=0,
        )
        aggregate = aggregate_from_dict(row)
        assert (aggregate.mean_mobile, aggregate.raw_mean_mobile) == (100.0, SCORE_MAX)
        assert aggregate.mean_web is aggregate.raw_mean_web is None
        low = aggregate_from_dict(dict(row, mean_mobile=0.0, raw_mean_mobile=0.0))
        assert (low.mean_mobile, low.raw_mean_mobile) == (0.0, 0.0)

    def test_a_well_formed_document_is_checked_by_key_sets_alone(self, monkeypatch):
        # The golden pipeline's aggregates: 12 rows, 8 outliers and no failure items.
        document = json.loads((FIXTURES / "golden_aggregates.json").read_text("utf-8"))
        monkeypatch.setattr("webaudit.report._field", lambda *args: pytest.fail("read key by key"))
        text = emit_report(aggregates_from_dict(document), "json")
        assert text == (FIXTURES / "golden_aggregates.json").read_text("utf-8")

    def test_not_a_report_rejected(self, tmp_path):
        path = tmp_path / "aggregates.json"
        path.write_text("{broken", "utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            read_aggregates(path)
        with pytest.raises(SchemaError, match=r"^\$: must be an object$"):
            aggregates_from_dict([])


class TestAggregateFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "aggregates.json"
        aggregates = rows_only(reference_aggregates())
        write_aggregates(aggregates, path)
        assert read_aggregates(path) == aggregates

    def test_a_file_that_is_not_utf8_names_its_path(self, tmp_path):
        path = tmp_path / "aggregates.json"
        write_aggregates(rows_only(reference_aggregates()), path)
        path.write_bytes(path.read_bytes().replace(b"Kab. Bogor", b"Kab. Bogor \xff", 1))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            read_aggregates(path)

    def test_unknown_format_rejected(self):
        with pytest.raises(UnknownFormat):
            emit_report(rows_only([]), "pdf")
