"""Region aggregation, ranking, and the three report formats."""

import datetime
import json
import re
from pathlib import Path

import pytest

from conftest import REFERENCE_REGION_MEANS, parse_report_csv
from webaudit import report
from webaudit.corpus import AuditResult, SiteRecord, normalize_region
from webaudit.errors import ParseError, SchemaError
from webaudit.metrics import MetricSet
from webaudit.report import (
    REPORT_COLUMNS,
    Aggregates,
    RegionAggregate,
    aggregate_regions,
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
    report = ScoreReport(scores=MetricSet(*[score] * 6), performance_score=score, category="average")
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
        aggregates[0] = aggregates[0]._replace(mean_mobile=None, raw_mean_mobile=None, n_ok_mobile=0)
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
        row = RegionAggregate("NurWeb", None, 12.34, None, 12.34, 0, 1, 2, DATE)
        text = emit_report(rows_only([row]), "csv")
        parsed = parse_report_csv(text)[0]
        assert parsed["mean_mobile"] is None
        assert parsed["mean_web"] == 12.34

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

    @pytest.mark.parametrize("region", ["Kota A | B", "|Kab. C|", "Kota D \\", "Kota \\| E"])
    def test_a_region_with_a_pipe_or_a_backslash_keeps_each_tables_columns(self, region):
        # "Kota A | B" used to split its cell in two: six cells in a five-column row.
        results = [result(region, "mobile", 74.06, no=1), result(region, "desktop", None, no=2)]
        text = emit_report(build_aggregates(results, [region]), "md")
        tables = [[md_cells(line) for line in block.splitlines()] for block in re.findall(r"(?m)(?:^\|.*\n)+", text)]
        assert len(tables) == 3  # Hasil per Daerah, Data Grafik and the failures per region
        for header, *rows in tables:
            assert rows and all(len(row) == len(header) for row in rows), (header, rows)
            assert region in (cell for row in rows for cell in row)


def md_cells(row: str) -> list[str]:
    """The cells of a markdown table row, split on each pipe that no backslash
    escapes, each stripped and unescaped."""
    cells, cell, escaped = [], [], False
    for char in row:
        if escaped or char not in "\\|":
            cell.append(char)
            escaped = False
        elif char == "\\":
            escaped = True
        else:
            cells.append("".join(cell).strip())
            cell = []
    assert cells[0] == "" and not "".join(cell).strip() and not escaped, f"{row!r} is not one row of cells"
    return cells[1:]


TWO_ROWS = "$.aggregates[12].region: must differ from every other row's region"
DERIVED = "as the rest of the document gives it"


def golden_document() -> dict:
    """The golden pipeline's aggregates: 12 rows, 8 outliers and no failure items."""
    return json.loads((FIXTURES / "golden_aggregates.json").read_text("utf-8"))


def second_row(region: str):
    """An edit of an aggregates document: a copy of row 0 named region appended."""

    def edit(document):
        document["aggregates"].append(dict(document["aggregates"][0], region=region))

    return edit


def scalar_leaves(node, path: str = "$"):
    """(JSON path, parent, key) of every scalar in a parsed JSON document."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        child = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        if isinstance(value, (dict, list)):
            yield from scalar_leaves(value, child)
        else:
            yield child, node, key


def other_value(value):
    """Another value of the same JSON type: a string grows by a letter and a
    number by one, an integer staying an integer."""
    return value + "x" if isinstance(value, str) else value + 1


def checks_broken_by(path: str, document: dict) -> set[str]:
    """The paths a SchemaError may name when the leaf at path is edited: its
    own, or that of a cross-check the edit can break."""
    parent, _, key = path.rpartition(".")
    row = re.fullmatch(r"\$\.aggregates\[(\d+)\]", parent)
    if key.startswith(("raw_mean_", "n_ok_")):  # the row's displayed mean, or the outliers it bounds
        return {path, f"{parent}.mean_{key.rpartition('_')[2]}", "$.outliers"}
    if row and key == "region":  # the outliers in its region
        region = normalize_region(document["aggregates"][int(row[1])]["region"])
        return {path} | {
            f"$.outliers[{i}].region"
            for i, outlier in enumerate(document["outliers"])
            if normalize_region(outlier["region"]) == region
        }
    if parent.startswith("$.outliers[") and key in ("region", "mode"):  # the bound on outliers per mode
        return {path, "$.outliers"}
    return {path}


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
            ("mean_mobile", 1e30, f"must be {REFERENCE_REGION_MEANS[0][1]}, {DERIVED}"),
            ("mean_web", 100.01, f"must be {REFERENCE_REGION_MEANS[0][2]}, {DERIVED}"),
            ("raw_mean_mobile", -5.0, "must be >= 0"),
            ("raw_mean_web", 250.0, "must be <= 100.0000002"),
        ],
    )
    def test_mean_out_of_range_is_a_schema_error_at_its_path(self, field, value, message):
        document = json.loads(emit_report(rows_only(reference_aggregates()), "json"))
        document["aggregates"][0][field] = value
        with pytest.raises(SchemaError) as exc:
            aggregates_from_dict(document)
        assert str(exc.value) == f"$.aggregates[0].{field}: {message}"

    def test_means_at_the_ends_of_their_range_or_null_are_read(self):
        aggregates = rows_only(
            [
                RegionAggregate("Kota Bandung", 100.0, None, SCORE_MAX, None, 1, 0, 0, DATE),
                RegionAggregate("Kab. Cirebon", 0.0, 0.0, 0.0, 0.0, 1, 1, 0, DATE),
            ]
        )
        assert aggregates_from_dict(json.loads(emit_report(aggregates, "json"))) == aggregates

    def test_a_row_without_a_test_date_is_refused(self):
        # aggregate writes a date on every row; null used to be read as a row without one.
        document = golden_document()
        document["aggregates"][0]["test_date"] = None
        with pytest.raises(SchemaError) as exc:
            aggregates_from_dict(document)
        assert str(exc.value) == "$.aggregates[0].test_date: must be an ISO date string (YYYY-MM-DD)"

    def one_region(self) -> Aggregates:
        """A region with a mobile mean of 1.0, beside one failure."""
        results = [result("Kota Bandung", "mobile", 1.0), result("Kota Bandung", "desktop", None)]
        return build_aggregates(results, MEMBERS)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("aggregates", 0, "n_failed"), True),
            (("aggregates", 0, "n_failed"), 1.0),
            (("failures", "total"), True),
            (("failures", "total"), 1.0),
            (("aggregates", 0, "mean_mobile"), True),
            (("overall_average", "mobile"), True),
        ],
        ids=["bool-count", "float-count", "bool-total", "float-total", "bool-mean", "bool-overall"],
    )
    def test_a_value_equal_in_python_but_of_another_json_type_is_refused(self, keys, value):
        document = json.loads(emit_report(self.one_region(), "json"))
        *parents, key = keys
        parent = document
        for step in parents:
            parent = parent[step]
        expected = parent[key]
        assert value == expected  # True == 1 == 1.0 in Python
        parent[key] = value
        with pytest.raises(SchemaError) as exc:
            aggregates_from_dict(document)
        path = "$" + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in keys)
        assert str(exc.value) == f"{path}: must be {json.dumps(expected)}, {DERIVED}"

    def test_an_integer_stands_for_an_equal_float(self):
        document = json.loads(emit_report(self.one_region(), "json"))
        document["aggregates"][0].update(mean_mobile=1, raw_mean_mobile=1)
        document["overall_average"]["mobile"] = 1
        assert aggregates_from_dict(document) == self.one_region()

    def test_a_key_the_writer_derives_is_checked_with_no_reader_change(self, monkeypatch):
        written = report._document
        monkeypatch.setattr(report, "_document", lambda rows, *items: {**written(rows, *items), "n_rows": len(rows)})
        aggregates = self.one_region()
        document = json.loads(emit_report(aggregates, "json"))
        assert document["n_rows"] == 1
        assert aggregates_from_dict(document) == aggregates
        for value in (0, 2, 1.0, True, None, "1", [1]):
            with pytest.raises(SchemaError, match=r"^\$\.n_rows: must be 1, "):
                aggregates_from_dict(dict(document, n_rows=value))
        del document["n_rows"]
        with pytest.raises(SchemaError, match=r"^\$\.n_rows: missing field$"):
            aggregates_from_dict(document)

    def test_every_leaf_edit_is_refused_at_its_check_or_written_back_as_edited(self):
        golden = (FIXTURES / "golden_aggregates.json").read_text("utf-8")
        assert json.dumps(json.loads(golden), indent=2, sort_keys=True) + "\n" == golden
        document, paths, refused = json.loads(golden), [], set()
        for path, parent, key in list(scalar_leaves(document)):
            value = parent[key]
            parent[key] = other_value(value)
            edited = json.dumps(document, indent=2, sort_keys=True) + "\n"
            parent[key] = value
            try:
                text = emit_report(aggregates_from_dict(json.loads(edited)), "json")
            except SchemaError as exc:
                where = str(exc).split(": ")[0]
                assert where in checks_broken_by(path, document), f"{path} edited: {exc}"
                if where == path:
                    refused.add(path)
            else:
                assert text == edited, f"{path} edited reads back as another document"
            paths.append(path)
        assert len(paths) == 12 * 9 + 2 + 8 * 4 + 1
        derived = {p for p in paths if re.search(r"\.(mean_mobile|mean_web|n_failed|total)$|^\$\.overall_average\.", p)}
        assert len(derived) == 12 * 3 + 2 + 1 and derived <= refused

    def test_a_well_formed_document_is_checked_by_key_sets_alone(self, monkeypatch):
        document = golden_document()
        monkeypatch.setattr("webaudit.report._field", lambda *args: pytest.fail("read key by key"))
        text = emit_report(aggregates_from_dict(document), "json")
        assert text == (FIXTURES / "golden_aggregates.json").read_text("utf-8")

    @pytest.mark.parametrize(
        "edit, message",
        [
            # Both were accepted: the md report listed Atlantis under "Validasi Manual", and the csv
            # report printed "Web SKPD Provinsi" twice.
            (
                lambda document: document["outliers"].append(
                    {"region": "Atlantis", "url": "https://x.test", "mode": "mobile", "performance_score": 99.0}
                ),
                "$.outliers[8].region: must be the region of an aggregates row",
            ),
            (second_row("Web SKPD Provinsi"), TWO_ROWS),
            (second_row("  web skpd   PROVINSI "), TWO_ROWS),
            # Two mobile outliers beside one ok mobile audit: 8 outliers in all, under the 24 ok audits.
            (
                lambda document: document["outliers"][2].update(mode="mobile"),
                "$.outliers: must hold no more entries than ok audits, 1 for Kota Bandung (mobile)",
            ),
        ],
        ids=["outlier-in-no-row", "two-rows-for-a-region", "two-rows-for-a-normalized-region", "outliers-past-a-mode"],
    )
    def test_outliers_and_rows_are_held_to_the_rows_regions(self, edit, message):
        document = golden_document()
        edit(document)
        with pytest.raises(SchemaError) as exc:
            aggregates_from_dict(document)
        assert str(exc.value) == message

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
        with pytest.raises(ValueError, match="^format must be csv, md or json, got 'pdf'$"):
            emit_report(rows_only([]), "pdf")
