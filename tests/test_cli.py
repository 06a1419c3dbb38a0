"""The command-line surface, run in-process through cli.main."""

import codecs
import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import webaudit
from conftest import NOT_UTF8_CORPUS_ERROR, call_within, parse_report_csv, write_not_utf8_corpus
from webaudit.cli import main
from webaudit.collector import write_trace
from webaudit.config import default_calibration_text
from webaudit.corpus import trace_slug
from webaudit.report import aggregates_from_dict
from webaudit.scoring import round_half_away
from webaudit.synth import build_demo_trace, build_no_paint_trace, write_demo_workspace


FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_RESULTS = [json.loads(line) for line in (FIXTURES / "golden_results.jsonl").read_text("utf-8").splitlines()]
NOT_UTF8 = b"\xff\xfe"
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder can recurse


@pytest.fixture
def workspace(tmp_path):
    return write_demo_workspace(tmp_path)


@pytest.fixture
def failing_workspace(tmp_path):
    """The demo workspace with one more site, in Kota Bandung, that never paints."""
    return write_demo_workspace(tmp_path, include_failure=True)


def demo_trace(paths, row: int) -> Path:
    """The stored trace of the corpus's row-th site."""
    with open(paths["corpus"], encoding="utf-8", newline="") as handle:
        url = list(csv.DictReader(handle))[row - 1]["url"]
    return paths["traces"] / (trace_slug(url) + ".json")


def set_row(**fields):
    """An edit of an aggregates document that sets fields of its fourth row."""

    def edit(document):
        document["aggregates"][3].update(fields)
        return document

    return edit


def set_entry(key: str, index: int, **fields):
    """An edit of an aggregates document that sets fields of an outlier or a failure item."""

    def edit(document):
        entries = document["outliers"] if key == "outliers" else document["failures"]["items"]
        entries[index].update(fields)
        return document

    return edit


def set_failures(**fields):
    """An edit of an aggregates document that sets fields of its failures."""

    def edit(document):
        document["failures"].update(fields)
        return document

    return edit


def set_overall(**fields):
    """An edit of an aggregates document that sets fields of its overall_average."""

    def edit(document):
        document["overall_average"].update(fields)
        return document

    return edit


def add_failure(**fields):
    """An edit of an aggregates document that counts one more failure item:
    its first, with fields set."""

    def edit(document):
        failures = document["failures"]
        failures["items"].append(dict(failures["items"][0], **fields))
        failures["total"] += 1
        return document

    return edit


def run_batch_cli(paths, tmp_path, extra=()) -> tuple[int, str]:
    out = tmp_path / "results.jsonl"
    rc = main(
        [
            "batch",
            "--corpus", str(paths["corpus"]),
            "--members", str(paths["members"]),
            "--traces", str(paths["traces"]),
            "--modes", "mobile,desktop",
            "--throttle", "4g",
            "--parallel", "2",
            "--test-date", "2019-08-25",
            "--out", str(out),
            *extra,
        ]
    )
    return rc, out


class TestScoreCommand:
    def test_prints_metrics_and_score(self, tmp_path, simple_trace, capsys):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        rc = main(["score", "--trace", str(trace_file), "--mode", "desktop"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "performance score:" in out
        for key in ("fcp", "fmp", "si", "tti", "fci", "max_fid"):
            assert key in out

    def test_unscorable_trace_exits_one(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        write_trace(build_no_paint_trace(), trace_file)
        rc = main(["score", "--trace", str(trace_file)])
        assert rc == 1
        assert "audit failed:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["score", "--trace", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("throttle", [[], ["--throttle", "4g"]], ids=["unthrottled", "throttled"])
    def test_a_trace_that_is_not_utf8_exits_two_naming_it(self, tmp_path, simple_trace, capsys, throttle):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        trace_file.write_bytes(NOT_UTF8 + trace_file.read_bytes())
        assert main(["score", "--trace", str(trace_file), *throttle]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace_file}: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["calibration", "profile", "plan", "corpus", "members"])
def test_an_input_file_that_is_not_utf8_exits_two_naming_it(workspace, tmp_path, simple_trace, capsys, kind):
    trace_file, plan, profile = tmp_path / "t.json", tmp_path / "plan.json", tmp_path / "profile.json"
    write_trace(simple_trace, trace_file)
    plan.write_text(json.dumps([{"id": "doc", "bytes": 1000}]), "utf-8")
    profile.write_text(json.dumps({"rtt_ms": 40, "downlink_kbps": 1000}), "utf-8")
    calibration = tmp_path / "calibration.json"
    calibration.write_text(default_calibration_text(), "utf-8")
    bad = {"calibration": calibration, "profile": profile, "plan": plan, **workspace}[kind]
    bad.write_bytes(NOT_UTF8 + bad.read_bytes())
    argv = {
        "calibration": ["simulate", "--plan", str(plan), "--calibration", str(calibration)],
        "profile": ["score", "--trace", str(trace_file), "--throttle", str(profile)],
        "plan": ["simulate", "--plan", str(plan)],
    }.get(kind)
    if argv is None:
        rc, out = run_batch_cli(workspace, tmp_path)
        assert not out.exists()
    else:
        rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    where = f"{bad}, line 1" if kind in ("corpus", "members") else bad
    assert err.startswith(f"error: {where}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


def test_a_corpus_byte_that_is_not_utf8_exits_two_naming_its_line_and_file_offset(workspace, tmp_path, capsys):
    write_not_utf8_corpus(workspace["corpus"])
    rc, out = run_batch_cli(workspace, tmp_path)
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {workspace['corpus']}, {NOT_UTF8_CORPUS_ERROR}\n"


def test_a_byte_order_mark_on_the_corpus_and_the_member_list_is_skipped(workspace, tmp_path):
    for key in ("corpus", "members"):
        workspace[key].write_bytes(codecs.BOM_UTF8 + workspace[key].read_bytes())
    rc, results = run_batch_cli(workspace, tmp_path)
    assert rc == 0
    assert results.read_bytes() == (FIXTURES / "golden_results.jsonl").read_bytes()
    aggregates = tmp_path / "aggregates.json"
    argv = ["aggregate", "--results", str(results), "--members", str(workspace["members"]), "--out", str(aggregates)]
    assert main(argv) == 0
    assert aggregates.read_bytes() == (FIXTURES / "golden_aggregates.json").read_bytes()


class TestPinnedOutput:
    """stdout of score and simulate against fixtures written before the
    scoring constants and the GPS event loop were rewritten; CI diffs the
    installed package's console script against the same files."""

    def test_score_prints_the_fixture(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_trace(build_demo_trace(11), "demo.json")
        assert [main(["score", "--trace", "demo.json", "--mode", mode]) for mode in ("mobile", "desktop")] == [0, 0]
        assert capsys.readouterr().out == (FIXTURES / "score_demo11.txt").read_text("utf-8")

    def test_throttled_score_prints_the_fixture(self, tmp_path, monkeypatch, capsys):
        # Every metric and score line as `audit --trace-in --throttle 4g`
        # printed it, before that command was folded into score.
        monkeypatch.chdir(tmp_path)
        write_trace(build_demo_trace(11), "demo.json")
        argv = ["score", "--trace", "demo.json", "--throttle", "4g", "--mode"]
        assert [main([*argv, mode]) for mode in ("mobile", "desktop")] == [0, 0]
        assert capsys.readouterr().out == (FIXTURES / "score_demo11_4g.txt").read_text("utf-8")

    def test_cpu_only_score_prints_the_fixture(self, tmp_path, monkeypatch, capsys):
        # A throttle file of {}: the recorded network, and the mode's CPU.
        monkeypatch.chdir(tmp_path)
        write_trace(build_demo_trace(11), "demo.json")
        argv = ["score", "--trace", "demo.json", "--throttle", str(FIXTURES / "throttle_cpu_only.json"), "--mode"]
        assert [main([*argv, mode]) for mode in ("mobile", "desktop")] == [0, 0]
        assert capsys.readouterr().out == (FIXTURES / "score_demo11_cpu.txt").read_text("utf-8")

    def test_simulate_prints_the_fixture(self, capsys):
        assert main(["simulate", "--plan", str(FIXTURES / "plan.json")]) == 0
        assert capsys.readouterr().out == (FIXTURES / "simulate_plan.txt").read_text("utf-8")

    def test_batch_writes_the_golden_results(self, workspace, tmp_path):
        # The arguments of acceptance criterion 7 (--parallel has no effect).
        rc, results = run_batch_cli(workspace, tmp_path, ("--parallel", "1"))
        assert rc == 0
        assert results.read_bytes() == (FIXTURES / "golden_results.jsonl").read_bytes()

    def test_aggregate_writes_the_golden_aggregates(self, workspace, tmp_path):
        _, aggregates = run_aggregate_cli(workspace, tmp_path)
        assert aggregates.read_bytes() == (FIXTURES / "golden_aggregates.json").read_bytes()

    def test_decimal_comma_report_is_the_fixture(self, tmp_path):
        report = tmp_path / "report.md"
        aggregates = str(FIXTURES / "golden_aggregates.json")
        assert main(["report", "--aggregates", aggregates, "--format", "md", "--decimal-comma", "--out", str(report)]) == 0
        assert report.read_bytes() == (FIXTURES / "golden_report_comma.md").read_bytes()

    def test_write_trace_writes_the_fixture(self, tmp_path):
        path = tmp_path / "demo.json"
        write_trace(build_demo_trace(11), path)
        assert path.read_bytes() == (FIXTURES / "trace_demo11.json").read_bytes()


class TestScoreThrottle:
    def test_throttle_none_prints_what_no_throttle_prints(self, tmp_path, simple_trace, capsys):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        assert main(["score", "--trace", str(trace_file)]) == 0
        recorded = capsys.readouterr().out
        assert main(["score", "--trace", str(trace_file), "--throttle", "none"]) == 0
        out = capsys.readouterr().out
        assert out == recorded and out.startswith(f"{trace_file} [mobile]\n")

    @pytest.mark.parametrize("no", sorted({row["site"]["no"] for row in GOLDEN_RESULTS}), ids="site-{}".format)
    def test_throttled_score_prints_the_batch_result(self, workspace, capsys, no):
        # score --throttle replays a stored trace as the batch does, so it
        # prints each golden result of the 4g batch, rounded as score shows it.
        trace_file = demo_trace(workspace, no)
        expected = []
        for mode in ("mobile", "desktop"):
            (row,) = [row for row in GOLDEN_RESULTS if row["site"]["no"] == no and row["mode"] == mode]
            expected.append(f"{trace_file} [{mode}]")
            expected.append(f"{'metric':<8} {'value_ms':>12} {'score':>7}")
            for key in ("fcp", "fmp", "si", "tti", "fci", "max_fid"):
                expected.append(f"{key:<8} {row['metrics'][key]:>12.1f} {row['scores'][key]:>7.1f}")
            expected.append(f"performance score: {int(round_half_away(row['performance_score'], 0))} ({row['category']})")
            assert main(["score", "--trace", str(trace_file), "--throttle", "4g", "--mode", mode]) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_an_unknown_throttle_name_is_a_config_error(self, tmp_path, simple_trace, capsys):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        assert main(["score", "--trace", str(trace_file), "--throttle", "5g"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: $.throttle_profiles: unknown throttle '5g' (profiles: 4g, none; or pass a file)\n"
        )

    def test_without_a_throttle_the_calibrations_profiles_are_not_read(self, tmp_path, simple_trace, capsys):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        assert main(["score", "--trace", str(trace_file)]) == 0
        packaged = capsys.readouterr().out
        document = json.loads(default_calibration_text())
        del document["throttle_profiles"]["none"]
        calibration = tmp_path / "calibration.json"
        calibration.write_text(json.dumps(document), "utf-8")
        assert main(["score", "--trace", str(trace_file), "--calibration", str(calibration)]) == 0
        assert capsys.readouterr().out == packaged
        assert main(["score", "--trace", str(trace_file), "--calibration", str(calibration), "--throttle", "none"]) == 2
        assert "unknown throttle 'none' (profiles: 4g;" in capsys.readouterr().err

    @pytest.mark.parametrize("rtt", [float("nan"), [1]])
    def test_bad_rtt_in_a_profile_file_is_a_config_error(self, tmp_path, simple_trace, capsys, rtt):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"rtt_ms": rtt, "downlink_kbps": 1000}), "utf-8")
        rc = main(["score", "--trace", str(trace_file), "--throttle", str(profile)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "$.rtt_ms" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "request_bytes, throttle",
        [(None, {"rtt_ms": 1e7, "downlink_kbps": 1638}), (10**10, "4g")],
        ids=["rtt-1e7", "bytes-1e10"],
    )
    def test_extreme_but_finite_throttle_terminates(self, tmp_path, capsys, request_bytes, throttle):
        # near 3e7 ms, now + a remainder's drain time rounds back to now
        trace = build_demo_trace(5).to_dict()
        if request_bytes is not None:
            trace["requests"][0]["bytes"] = request_bytes
        trace_file = tmp_path / "t.json"
        trace_file.write_text(json.dumps(trace), "utf-8")
        if isinstance(throttle, dict):
            (tmp_path / "profile.json").write_text(json.dumps(throttle), "utf-8")
            throttle = str(tmp_path / "profile.json")
        assert call_within(10, main, ["score", "--trace", str(trace_file), "--throttle", throttle]) == 0
        assert "performance score:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "profile",
        [{"rtt_ms": 1e308, "downlink_kbps": 1638}, {"rtt_ms": 100, "downlink_kbps": 1000, "cpu_multiplier": 1e308}],
        ids=["rtt-1e308", "cpu-1e308"],
    )
    def test_throttle_too_extreme_to_simulate_is_a_config_error(self, tmp_path, capsys, profile):
        trace_file = tmp_path / "t.json"
        write_trace(build_demo_trace(5), trace_file)
        profile_file = tmp_path / "profile.json"
        profile_file.write_text(json.dumps(profile), "utf-8")
        argv = ["score", "--trace", str(trace_file), "--throttle", str(profile_file)]
        assert call_within(10, main, argv) == 2
        captured = capsys.readouterr()
        assert "too extreme to simulate" in captured.err
        assert "Traceback" not in captured.err
        assert "performance score" not in captured.out


class TestBatchCommand:
    def test_full_run_exits_zero(self, workspace, tmp_path, capsys):
        rc, out = run_batch_cli(workspace, tmp_path)
        assert rc == 0
        assert out.exists()
        assert len(out.read_text("utf-8").splitlines()) == 24
        assert "24 audits (12 sites x 2 modes), 0 failed" in capsys.readouterr().out

    def test_a_cpu_only_throttle_keeps_the_recorded_network(self, workspace, tmp_path):
        # Under {} the mobile paints are the recorded ones, as under none;
        # desktop, at CPU x1, is exactly the unthrottled audit.
        lines = {}
        for name, throttle in (("none", "none"), ("cpu", str(FIXTURES / "throttle_cpu_only.json"))):
            (tmp_path / name).mkdir()
            rc, out = run_batch_cli(workspace, tmp_path / name, ("--throttle", throttle))
            assert rc == 0
            lines[name] = out.read_text("utf-8").splitlines()
        assert len(lines["cpu"]) == len(lines["none"]) == 24
        for cpu, none in zip(lines["cpu"], lines["none"]):
            cpu_result, none_result = json.loads(cpu), json.loads(none)
            if cpu_result["mode"] == "desktop":
                assert cpu == none
            else:
                for key in ("fcp", "fmp", "si"):
                    assert cpu_result["metrics"][key] == none_result["metrics"][key]
        assert lines["cpu"] != lines["none"]

    def test_failures_flip_the_exit_code(self, tmp_path, capsys):
        paths = write_demo_workspace(tmp_path, include_failure=True)
        rc, out = run_batch_cli(paths, tmp_path)
        assert rc == 1
        assert out.exists()  # results still written; failures are data
        assert "2 failed" in capsys.readouterr().out

    def test_a_trace_that_is_not_utf8_fails_only_its_site(self, workspace, tmp_path, capsys):
        bad = demo_trace(workspace, 3)
        bad.write_bytes(NOT_UTF8 + bad.read_bytes())
        rc, out = run_batch_cli(workspace, tmp_path)
        assert rc == 1
        lines = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
        failed = [line for line in lines if line["status"] == "failed"]
        assert len(lines) == 24 and [line["site"]["no"] for line in failed] == [3, 3]
        assert all(line["failure_reason"].startswith(f"ParseError: {bad}: 'utf-8' codec") for line in failed)
        assert "24 audits (12 sites x 2 modes), 2 failed" in capsys.readouterr().out

    def test_each_failed_audit_is_one_stderr_line_in_results_order(self, failing_workspace, tmp_path, capsys):
        rc, out = run_batch_cli(failing_workspace, tmp_path)
        assert rc == 1
        lines = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
        failed = [line for line in lines if line["status"] == "failed"]
        assert [line["mode"] for line in failed] == ["desktop", "mobile"]
        expected = "".join(f"audit failed: {f['site']['url']} [{f['mode']}] {f['failure_reason']}\n" for f in failed)
        assert capsys.readouterr().err == expected

    def test_an_all_ok_batch_prints_nothing_to_stderr(self, workspace, tmp_path):
        # In a process of its own, as the command runs, so that no test
        # harness handler stands in for what the command would print.
        argv = ["batch", "--corpus", str(workspace["corpus"]), "--members", str(workspace["members"]),
                "--traces", str(workspace["traces"]), "--test-date", "2019-08-25", "--out", str(tmp_path / "r.jsonl")]  # fmt: skip
        done = run_fresh_process(["-m", "webaudit", *argv])
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"24 audits (12 sites x 2 modes), 0 failed -> {tmp_path / 'r.jsonl'}\n"

    @pytest.mark.parametrize(
        "content, reason",
        [
            (DEEP_JSON, "maximum recursion depth exceeded"),
            pytest.param(
                '{"requests": [{"bytes": ' + "1" * 5000 + "}]}",
                "Exceeds the limit",
                marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"),
            ),
        ],
        ids=["nested-too-deep", "number-too-long"],
    )
    def test_a_trace_the_decoder_refuses_fails_only_its_site(self, workspace, tmp_path, capsys, content, reason):
        bad = demo_trace(workspace, 3)
        bad.write_text(content, "utf-8")
        rc, out = run_batch_cli(workspace, tmp_path)
        assert rc == 1
        lines = [json.loads(line) for line in out.read_text("utf-8").splitlines()]
        failed = [line for line in lines if line["status"] == "failed"]
        assert len(lines) == 24 and [line["site"]["no"] for line in failed] == [3, 3]
        assert all(line["failure_reason"].startswith(f"ParseError: {bad}: {reason}") for line in failed)
        captured = capsys.readouterr()
        assert "24 audits (12 sites x 2 modes), 2 failed" in captured.out
        assert len(captured.err.splitlines()) == 2 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "trace, throttle, reason",
        [
            (
                {"paint_events": [{"t_ms": 1.5e308, "kind": "contentful-paint"}],
                 "tasks": [{"start_ms": 1.4e308, "dur_ms": 9e307}], "requests": [],
                 "visual_progress": [{"t_ms": 1.5e308, "fraction": 1.0}]},
                "none",
                "SchemaError: $.tasks[0].dur_ms: start_ms + dur_ms must be within float range",
            ),
            (
                {"paint_events": [{"t_ms": 1.7976931348623157e308, "kind": "contentful-paint"}], "tasks": [],
                 "requests": [{"discovered_ms": 0, "start_ms": 0, "end_ms": 10, "bytes": 10**300, "origin": "a"}],
                 "visual_progress": [{"t_ms": 1.7976931348623157e308, "fraction": 1.0}]},
                "4g",
                "ThrottleOverflow: throttle or input times too extreme to simulate: a time reached inf",
            ),
        ],
        ids=["task-ends-past-float-range", "paint-shifted-past-float-range"],
    )  # fmt: skip
    def test_an_overflowing_time_fails_its_audits_and_aggregates(self, tmp_path, capsys, trace, throttle, reason):
        url = "https://overflow.example.go.id"
        corpus = f"no,institution,tier,region,url\n1,Diskominfo,provinsi,Kota Bandung,{url}\n"
        (tmp_path / "corpus.csv").write_text(corpus, "utf-8")
        (tmp_path / "traces").mkdir()
        (tmp_path / "traces" / (trace_slug(url) + ".json")).write_text(json.dumps({"nav_start": 0, **trace}), "utf-8")
        results = tmp_path / "results.jsonl"
        argv = ["batch", "--corpus", str(tmp_path / "corpus.csv"), "--traces", str(tmp_path / "traces"),
                "--throttle", throttle, "--test-date", "2019-08-25", "--out", str(results)]  # fmt: skip
        assert main(argv) == 1
        lines = [json.loads(line) for line in results.read_text("utf-8").splitlines()]
        assert [(line["mode"], line["status"], line["failure_reason"]) for line in lines] == [
            ("desktop", "failed", reason),
            ("mobile", "failed", reason),
        ]
        assert main(["aggregate", "--results", str(results), "--out", str(tmp_path / "aggregates.json")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_mode_is_a_usage_error(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "batch",
                "--corpus", str(workspace["corpus"]),
                "--traces", str(workspace["traces"]),
                "--modes", "tablet",
                "--out", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2
        assert "tablet" in capsys.readouterr().err

    def test_zero_parallel_is_a_usage_error(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "batch",
                "--corpus", str(workspace["corpus"]),
                "--traces", str(workspace["traces"]),
                "--parallel", "0",
                "--out", str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 2
        assert "--parallel must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("modes", ["mobile,mobile", "desktop,mobile,desktop", "mobile, mobile"])
    def test_a_mode_named_twice_is_a_usage_error(self, workspace, tmp_path, capsys, modes):
        rc, out = run_batch_cli(workspace, tmp_path, ["--modes", modes])
        assert rc == 2
        assert "twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("test_date", ["20190825", "2019-W34-7", "2019-8-25", "2019-08-25T00:00", ""])
    def test_a_test_date_other_than_yyyy_mm_dd_is_a_usage_error(self, workspace, tmp_path, capsys, test_date):
        rc, out = run_batch_cli(workspace, tmp_path, ["--test-date", test_date])
        assert rc == 2
        assert capsys.readouterr().err == "error: --test-date: must be an ISO date string (YYYY-MM-DD)\n"
        assert not out.exists()

    def test_bad_corpus_is_a_config_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n", "utf-8")
        rc = main(
            ["batch", "--corpus", str(bad), "--traces", str(workspace["traces"]), "--out", str(tmp_path / "r.jsonl")]
        )
        assert rc == 2


def run_aggregate_cli(paths, tmp_path) -> tuple[Path, Path]:
    """(results, aggregates) of a batch and aggregate run over the workspace."""
    rc, results = run_batch_cli(paths, tmp_path)
    assert rc in (0, 1)  # 1 when the workspace has a site that never paints
    aggregates = tmp_path / "aggregates.json"
    assert main(["aggregate", "--results", str(results), "--out", str(aggregates)]) == 0
    return results, aggregates


class TestAggregateAndReportCommands:
    def pipeline(self, workspace, tmp_path, fmt: str, extra=()) -> str:
        results, aggregates = run_aggregate_cli(workspace, tmp_path)
        report = tmp_path / f"report.{fmt}"
        rc = main(
            [
                "report",
                "--aggregates", str(aggregates),
                "--results", str(results),
                "--format", fmt,
                "--out", str(report),
                *extra,
            ]
        )
        assert rc == 0
        return report.read_text("utf-8")

    def test_csv_report_lists_every_region(self, workspace, tmp_path):
        text = self.pipeline(workspace, tmp_path, "csv")
        rows = parse_report_csv(text)
        assert len(rows) == 12
        assert all(row["mean_mobile"] is not None for row in rows)

    def test_csv_report_matches_the_golden_file(self, workspace, tmp_path):
        assert self.pipeline(workspace, tmp_path, "csv") == (FIXTURES / "golden_report.csv").read_text("utf-8")

    @pytest.mark.parametrize("results", ["corrupt", "missing", "not-utf8"])
    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_no_report_reads_the_results_file(self, failing_workspace, tmp_path, capsys, fmt, results):
        good = self.pipeline(failing_workspace, tmp_path, fmt)
        path = tmp_path / "other.jsonl"
        if results == "corrupt":
            path.write_text("{broken\n", "utf-8")
        elif results == "not-utf8":
            path.write_bytes(NOT_UTF8 + b"\n")
        argv = ["report", "--aggregates", str(tmp_path / "aggregates.json"), "--results", str(path),
                "--format", fmt, "--out", str(tmp_path / f"again.{fmt}")]  # fmt: skip
        capsys.readouterr()
        assert main(argv) == 0
        assert (tmp_path / f"again.{fmt}").read_text("utf-8") == good
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_reports_need_no_results_option(self, failing_workspace, tmp_path, fmt):
        good = self.pipeline(failing_workspace, tmp_path, fmt)
        argv = ["report", "--aggregates", str(tmp_path / "aggregates.json"), "--format", fmt,
                "--out", str(tmp_path / f"again.{fmt}")]  # fmt: skip
        assert main(argv) == 0
        assert (tmp_path / f"again.{fmt}").read_text("utf-8") == good

    def test_json_report_is_the_aggregates_file(self, failing_workspace, tmp_path):
        text = self.pipeline(failing_workspace, tmp_path, "json")
        assert text.encode("utf-8") == (tmp_path / "aggregates.json").read_bytes()
        assert json.loads(text)["failures"]["total"] == 2

    def test_md_report_has_the_table_and_total(self, workspace, tmp_path):
        text = self.pipeline(workspace, tmp_path, "md", extra=("--decimal-comma",))
        assert "| No | Daerah | Rata-rata Skor Mobile | Rata-rata Skor Web | Tanggal Uji |" in text
        assert "| Rata-rata total |" in text
        assert "," in text.split("Rata-rata total |")[1].split("|")[1]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_decimal_comma_outside_markdown_is_a_usage_error(self, workspace, tmp_path, capsys, fmt):
        _, aggregates = run_aggregate_cli(workspace, tmp_path)
        report = tmp_path / f"report.{fmt}"
        capsys.readouterr()
        argv = ["report", "--aggregates", str(aggregates), "--format", fmt, "--out", str(report), "--decimal-comma"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --decimal-comma applies only to --format md\n"
        assert not report.exists()

    def test_json_report_round_trips_aggregates(self, workspace, tmp_path):
        text = self.pipeline(workspace, tmp_path, "json")
        assert len(aggregates_from_dict(json.loads(text)).rows) == 12

    def test_unknown_format_rejected_by_the_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--aggregates", "a", "--results", "r", "--format", "pdf", "--out", "o"])
        assert exc.value.code == 2

    def test_corrupt_results_file_is_a_config_error(self, tmp_path):
        bad = tmp_path / "r.jsonl"
        bad.write_text("{broken\n", "utf-8")
        assert main(["aggregate", "--results", str(bad), "--out", str(tmp_path / "a.json")]) == 2

    @pytest.mark.parametrize(
        "field, value, line_status",
        [
            ("performance_score", float("nan"), "ok"),
            ("outlier_flag", "no", "ok"),
            ("mode", "tablet", "ok"),
            ("metrics.fcp", "NaN", "ok"),
            ("scores.fcp", float("nan"), "ok"),
            ("category", 7, "ok"),
            ("site.nickname", "x", "ok"),
            ("site.no", "7", "ok"),
            ("status", "done", "ok"),
            ("test_date", 20190825, "ok"),
            ("test_date", "25/08/2019", "failed"),
            ("failure_reason", 7, "failed"),
            ("failure_reason", "", "failed"),
            ("failure_reason", "slow", "ok"),
            ("performance_score", 1e300, "ok"),
            ("performance_score", -5.0, "ok"),
            ("scores.fcp", 250.0, "ok"),
            ("metrics.tti", -1.0, "ok"),
        ],
        ids=[
            "nan-score",
            "string-flag",
            "unknown-mode",
            "nan-string-metric",
            "nan-metric-score",
            "bad-category",
            "unknown-site-key",
            "string-site-number",
            "unknown-status",
            "number-date",
            "non-iso-date",
            "number-reason",
            "empty-reason",
            "reason-on-ok-line",
            "huge-score",
            "negative-score",
            "metric-score-over-max",
            "negative-metric",
        ],
    )
    def test_bad_result_field_names_the_line_and_field(self, workspace, tmp_path, capsys, field, value, line_status):
        rc, results = run_batch_cli(workspace, tmp_path)
        assert rc == 0
        lines = results.read_text("utf-8").splitlines()
        number = max(n for n, line in enumerate(lines, start=1) if json.loads(line)["status"] == "ok")
        row = json.loads(lines[number - 1])
        if line_status == "failed":
            row.update(status="failed", failure_reason="NoContentfulPaint: nothing painted", outlier_flag=False,
                       metrics=None, scores=None, performance_score=None, category=None)
        *parents, key = field.split(".")
        target = row
        for name in parents:
            target = target[name]
        target[key] = value
        lines[number - 1] = json.dumps(row)
        results.write_text("\n".join(lines) + "\n", "utf-8")
        capsys.readouterr()
        # aggregate is the only command that reads result lines.
        argv = ["aggregate", "--results", str(results), "--out", str(tmp_path / "aggregates.json")]
        assert call_within(10, main, argv) == 2
        err = capsys.readouterr().err
        assert f"line {number}: $.{field}: " in err
        assert "Traceback" not in err

    def test_a_results_file_that_is_not_utf8_names_its_line(self, workspace, tmp_path, capsys):
        rc, results = run_batch_cli(workspace, tmp_path)
        assert rc == 0
        lines = results.read_bytes().splitlines(keepends=True)
        lines[6] = lines[6].replace(b'"status":"ok"', b'"status":"ok' + NOT_UTF8 + b'"')
        results.write_bytes(b"".join(lines))
        capsys.readouterr()
        argv = ["aggregate", "--results", str(results), "--out", str(tmp_path / "aggregates.json")]
        assert call_within(10, main, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {results}, line 7: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err

    def test_an_aggregates_file_that_is_not_utf8_names_it(self, workspace, tmp_path, capsys):
        rc, results = run_batch_cli(workspace, tmp_path)
        aggregates = tmp_path / "aggregates.json"
        assert rc == 0 and main(["aggregate", "--results", str(results), "--out", str(aggregates)]) == 0
        aggregates.write_bytes(aggregates.read_bytes().replace(b"Kota Bandung", b"Kota Bandung" + NOT_UTF8))
        capsys.readouterr()
        for fmt in ("md", "csv", "json"):
            argv = ["report", "--aggregates", str(aggregates), "--results", str(results), "--format", fmt,
                    "--out", str(tmp_path / f"report.{fmt}")]
            assert call_within(10, main, argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {aggregates}: 'utf-8' codec can't decode byte 0xff")
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, where",
        [
            (set_row(mean_mobile="x"), "$.aggregates[3].mean_mobile: "),
            (set_row(mean_mobile=float("nan")), "$.aggregates[3].mean_mobile: "),
            (set_row(mean_mobile=1e30), "$.aggregates[3].mean_mobile: must be <= "),
            (set_row(raw_mean_web=-5.0), "$.aggregates[3].raw_mean_web: must be >= 0"),
            (set_row(n_failed=1.7), "$.aggregates[3].n_failed: "),
            (set_row(n_failed=True), "$.aggregates[3].n_failed: "),
            (set_row(region=5), "$.aggregates[3].region: "),
            (set_row(test_date="2019/08/25"), "$.aggregates[3].test_date: "),
            (set_row(mean_mobile=50.0, raw_mean_mobile=None, n_ok_mobile=0), "$.aggregates[3].mean_mobile: "),
            (set_row(mean_web=61.23, raw_mean_web=70.0), "$.aggregates[3].mean_web: "),
            (set_row(mean_web=None, raw_mean_web=None), "$.aggregates[3].mean_web: "),
            (set_row(n_ok_mobile=0), "$.aggregates[3].mean_mobile: "),
            (lambda document: [], "$: must be an object"),
            (lambda document: {**document, "aggregates": 5}, "$.aggregates: must be an array"),
            (lambda document: {}, "$.aggregates: missing field"),
            (set_entry("outliers", 2, performance_score=250.0), "$.outliers[2].performance_score: must be <= "),
            (set_entry("outliers", 2, performance_score="99"), "$.outliers[2].performance_score: must be a number"),
            (set_entry("outliers", 2, mode="tablet"), "$.outliers[2].mode: must be one of mobile, desktop"),
            (set_entry("outliers", 2, url=None), "$.outliers[2].url: must be a string"),
            (set_entry("failures", 1, reason=""), "$.failures.items[1].reason: must be a non-empty string"),
            (set_entry("failures", 1, region=7), "$.failures.items[1].region: must be a string"),
            (set_failures(total=3), "$.failures.total: must be the number of items, 2"),
            (set_failures(total=True), "$.failures.total: must be a number"),
            (set_entry("failures", 0, region="Kota Bogor"), "$.aggregates[4].n_failed: must be the number of failure items"),
            (add_failure(region="Nowhere"), "$.failures.items[2].region: must be the region of an aggregates row"),
            (lambda document: {**document, "outliers": document["outliers"] * 4}, "$.outliers: must hold no more entries"),
            (
                lambda document: {key: document[key] for key in ("aggregates", "overall_average")},
                "$.outliers: missing field",
            ),
            (lambda document: {**document, "bogus": 2}, "$.bogus: unknown field"),
            (set_row(nickname=1), "$.aggregates[3].nickname: unknown field"),
            (set_entry("outliers", 2, nickname=1), "$.outliers[2].nickname: unknown field"),
            (set_entry("failures", 1, nickname=1), "$.failures.items[1].nickname: unknown field"),
            (set_failures(nickname=1), "$.failures.nickname: unknown field"),
            (set_overall(nickname=1), "$.overall_average.nickname: unknown field"),
            (
                lambda document: {key: document[key] for key in ("aggregates", "outliers", "failures")},
                "$.overall_average: missing field",
            ),
            (lambda document: {**document, "overall_average": {"mobile": 75.0}}, "$.overall_average.web: missing field"),
            (set_overall(mobile=75.1), "$.overall_average.mobile: must be the rows' average, 75.0"),
            (set_overall(web=None), "$.overall_average.web: must be the rows' average, 78.0"),
            (set_overall(web=True), "$.overall_average.web: must be a number"),
        ],
        ids=[
            "string-mean", "nan-mean", "huge-mean", "negative-raw-mean", "fractional-count", "bool-count", "number-region", "non-iso-date",
            "mean-without-ok-audit", "mean-not-the-rounded-raw", "no-means-beside-ok-audits", "means-beside-no-ok-count",
            "array-document", "number-aggregates", "no-aggregates",
            "outlier-score-over-max", "string-outlier-score", "unknown-outlier-mode", "null-outlier-url", "empty-failure-reason",
            "number-failure-region", "total-not-the-item-count", "bool-total", "failure-counted-in-another-row",
            "failure-in-no-row", "more-outliers-than-ok-audits", "old-format-without-outliers",
            "unknown-top-level-key", "unknown-row-key", "unknown-outlier-key", "unknown-failure-item-key",
            "unknown-failures-key", "unknown-overall-key", "no-overall-average", "no-overall-web",
            "overall-not-the-rows-average", "null-overall-beside-rows", "bool-overall",
        ],
    )
    def test_bad_aggregates_field_names_the_row_and_field(self, failing_workspace, tmp_path, capsys, edit, where):
        results, aggregates = run_aggregate_cli(failing_workspace, tmp_path)
        document = edit(json.loads(aggregates.read_text("utf-8")))
        aggregates.write_text(json.dumps(document), "utf-8")
        capsys.readouterr()
        for fmt in ("md", "csv", "json"):
            argv = ["report", "--aggregates", str(aggregates), "--results", str(results), "--format", fmt,
                    "--out", str(tmp_path / f"report.{fmt}")]
            assert call_within(10, main, argv) == 2
            err = capsys.readouterr().err
            assert where in err
            assert "Traceback" not in err


class TestSimulateCommand:
    def write_plan(self, tmp_path, payload) -> str:
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(payload), "utf-8")
        return str(plan)

    def test_bare_list_plan(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path,
            [
                {"id": "doc", "bytes": 62500},
                {"id": "img", "parent_id": "doc", "bytes": 25000},
            ],
        )
        rc = main(["simulate", "--plan", plan, "--profile", "4g"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].startswith("profile: rtt 150 ms, downlink 1638 kbps")
        assert "doc" in out and "img" in out

    def test_wrapped_plan_and_unlimited_profile(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, {"requests": [{"id": "doc", "bytes": 1000}]})
        rc = main(["simulate", "--plan", plan, "--profile", "none"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "downlink unlimited" in out

    def test_cyclic_plan_is_a_config_error(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path,
            [{"id": "a", "parent_id": "b"}, {"id": "b", "parent_id": "a"}, {"id": "c"}],
        )
        assert main(["simulate", "--plan", plan]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dependency cycle: request 'a' never starts\n"

    def test_plan_too_extreme_to_simulate_is_a_config_error(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path,
            [{"id": "a", "bytes": 1000}, {"id": "b", "parent_id": "a", "discovery_offset_ms": 1e308, "bytes": 1000}],
        )
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"rtt_ms": 1e308, "downlink_kbps": 1000}), "utf-8")
        assert main(["simulate", "--plan", plan, "--profile", str(profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: throttle or input times too extreme to simulate: a time reached inf\n"

    def test_malformed_plan_rejected(self, tmp_path):
        plan = self.write_plan(tmp_path, {"requests": [{"bytes": 5}]})
        assert main(["simulate", "--plan", plan]) == 2

    @pytest.mark.parametrize("offset", [float("nan"), "5", -1])
    def test_bad_offset_names_the_field(self, tmp_path, capsys, offset):
        plan = self.write_plan(tmp_path, {"requests": [{"id": "a", "discovery_offset_ms": offset}]})
        assert main(["simulate", "--plan", plan]) == 2
        assert "$.requests[0].discovery_offset_ms" in capsys.readouterr().err

    def test_non_string_parent_names_the_field(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, {"requests": [{"id": "a", "parent_id": 5}]})
        assert main(["simulate", "--plan", plan]) == 2
        assert "$.requests[0].parent_id" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "requests",
        [[{"id": "a"}, {"id": "a"}], [{"id": "a", "parent_id": "b"}]],
        ids=["duplicate-id", "unknown-parent"],
    )
    def test_inconsistent_plan_names_the_requests(self, tmp_path, capsys, requests):
        plan = self.write_plan(tmp_path, {"requests": requests})
        assert main(["simulate", "--plan", plan]) == 2
        assert "error: $.requests: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("bytes", 1.5), ("bytes", True), ("bytes", -1)],
        ids=["fractional-bytes", "bool-bytes", "negative-bytes"],
    )
    def test_bad_request_field_names_the_field(self, tmp_path, capsys, field, value):
        plan = self.write_plan(tmp_path, {"requests": [{"id": "a", field: value}]})
        assert main(["simulate", "--plan", plan]) == 2
        err = capsys.readouterr().err
        assert f"error: $.requests[0].{field}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (("quiet_window",), "max_inflight_requests", 2.5),
        ],
        ids=["fractional-inflight"],
    )
    def test_non_integer_calibration_count_names_the_field(self, tmp_path, capsys, section, key, value):
        doc = json.loads(default_calibration_text())
        target = doc
        for name in section:
            target = target[name]
        target[key] = value
        calibration = tmp_path / "calibration.json"
        calibration.write_text(json.dumps(doc), "utf-8")
        plan = self.write_plan(tmp_path, [{"id": "a", "bytes": 1000}])
        assert main(["simulate", "--plan", plan, "--calibration", str(calibration)]) == 2
        err = capsys.readouterr().err
        assert f"error: $.{'.'.join(section)}.{key}: must be " in err
        assert "Traceback" not in err


class TestOneWordingPerRule:
    """Every document the command line reads names a bad field and a missing
    one the same way. No field of a throttle profile is required, so it has
    no missing-field case."""

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("trace", lambda d: d["requests"][0].update(origin=3), "$.requests[0].origin: must be a string"),
            ("trace", lambda d: d["paint_events"][0].pop("kind"), "$.paint_events[0].kind: missing field"),
            ("calibration", lambda d: d.update(outlier_bounds=7), "$.outlier_bounds: must be an object"),
            ("calibration", lambda d: d.pop("weights"), "$.weights: missing field"),
            ("profile", lambda d: d.update(rtt_ms="fast"), "$.rtt_ms: must be a number"),
            ("plan", lambda d: d["requests"][1].update(parent_id=5), "$.requests[1].parent_id: must be a string"),
            ("plan", lambda d: d["requests"][1].pop("id"), "$.requests[1].id: missing field"),
            ("results", lambda d: d["site"].update(url=5), "$.site.url: must be a string"),
            ("results", lambda d: d["site"].update(no=2**1100, url=5), "$.site.url: must be a string"),
            ("results", lambda d: d.pop("mode"), "$.mode: missing field"),
            ("aggregates", lambda d: d.update(failures=[]), "$.failures: must be an object"),
            ("aggregates", lambda d: d["aggregates"][0].pop("region"), "$.aggregates[0].region: missing field"),
            ("calibration", lambda d: d["quiet_window"].update(windw_ms=100), "$.quiet_window.windw_ms: unknown field"),
        ],
    )
    def test_a_bad_or_missing_field_exits_two_at_its_path(self, workspace, tmp_path, capsys, kind, edit, message):
        plan = str(FIXTURES / "plan.json")
        path = tmp_path / f"{kind}.json"
        after = ""  # the lines after the edited one, in a results file
        if kind == "trace":
            document, argv = build_demo_trace(11).to_dict(), ["score", "--trace", str(path)]
        elif kind == "calibration":
            document = json.loads(default_calibration_text())
            argv = ["simulate", "--plan", plan, "--calibration", str(path)]
        elif kind == "profile":
            document, argv = {"rtt_ms": 150, "downlink_kbps": 1638}, ["simulate", "--plan", plan, "--profile", str(path)]
        elif kind == "plan":
            document, argv = json.loads(Path(plan).read_text("utf-8")), ["simulate", "--plan", str(path)]
        elif kind == "results":
            _, results = run_batch_cli(workspace, tmp_path)
            first, after = results.read_text("utf-8").split("\n", 1)
            document, after = json.loads(first), "\n" + after
            argv = ["aggregate", "--results", str(path), "--out", str(tmp_path / "aggregates.json")]
            message = f"{path}, line 1: {message}"
        else:
            _, aggregates = run_aggregate_cli(workspace, tmp_path)
            document = json.loads(aggregates.read_text("utf-8"))
            argv = ["report", "--aggregates", str(path), "--format", "csv", "--out", str(tmp_path / "report.csv")]
        edit(document)
        path.write_text(json.dumps(document) + after, "utf-8")
        capsys.readouterr()
        assert call_within(10, main, argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["trace", "calibration", "profile", "plan", "results", "aggregates"])
def test_a_document_nested_too_deep_exits_two_naming_it(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.json"
    plan = str(FIXTURES / "plan.json")
    where = str(path)
    if kind == "results":
        first = (FIXTURES / "golden_results.jsonl").read_text("utf-8").splitlines(keepends=True)[0]
        path.write_text(first + DEEP_JSON + "\n", "utf-8")
        where = f"{path}, line 2"
    else:
        path.write_text(DEEP_JSON, "utf-8")
    argv = {
        "trace": ["score", "--trace", str(path)],
        "calibration": ["simulate", "--plan", plan, "--calibration", str(path)],
        "profile": ["simulate", "--plan", plan, "--profile", str(path)],
        "plan": ["simulate", "--plan", str(path)],
        "results": ["aggregate", "--results", str(path), "--out", str(tmp_path / "aggregates.json")],
        "aggregates": ["report", "--aggregates", str(path), "--format", "csv", "--out", str(tmp_path / "report.csv")],
    }[kind]
    assert call_within(10, main, argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {where}: maximum recursion depth exceeded")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def run_fresh_process(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing the webaudit these tests import."""
    src = str(Path(webaudit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def run_fresh(code: str) -> str:
    """The output of ``code`` in a fresh interpreter that imports the webaudit these tests import."""
    done = run_fresh_process(["-c", code])
    assert done.returncode == 0, done.stderr
    return done.stdout


def new_modules(code: str, watched: tuple[str, ...]) -> list[str]:
    """The watched modules that running ``code`` in a fresh interpreter imports
    and the bare interpreter had not."""
    report = f"print(' '.join(m for m in {watched!r} if m in sys.modules and m not in bare))"
    return run_fresh(f"import sys; bare = set(sys.modules); {code}; {report}").split()


@pytest.mark.parametrize("module", ["webaudit", "webaudit.cli", "webaudit.capture"])
def test_package_and_cli_import_no_network_modules(module):
    # Every audit reads stored files, and converting a browser's entries
    # into a trace needs no network client either.
    code = (
        f"import sys, {module}; "
        "print(' '.join(m for m in ('urllib.request', 'http.client', 'ssl', 'socket') if m in sys.modules))"
    )
    assert run_fresh(code).split() == []


def test_package_and_cli_start_without_heavy_stdlib_modules():
    # Every webaudit process imports the package first. dataclasses and
    # inspect (which brings ast, dis and tokenize) would cost about a third
    # of its set-up; logging brings traceback, linecache and tokenize, and
    # nothing in the package logs; hashlib loads OpenSSL, which only naming
    # a trace file needs. Compared with the bare interpreter's modules,
    # which differ between Python versions.
    heavy = ("dataclasses", "inspect", "logging", "traceback", "tokenize", "hashlib")
    assert new_modules("import webaudit, webaudit.cli", heavy) == []


class TestStartUp:
    """Each process imports only the layers it runs."""

    def test_importing_the_package_imports_none_of_its_modules(self):
        code = "import sys, webaudit; print(' '.join(m for m in sys.modules if m.startswith('webaudit.')))"
        assert run_fresh(code).split() == []

    def test_set_up_imports_neither_the_report_layer_nor_openssl(self, workspace):
        # Everything before a batch's first audit.
        set_up = (
            "import webaudit; calibration = webaudit.load_calibration(); "
            "members = webaudit.load_member_regions(); "
            f"assert webaudit.ingest_corpus({str(workspace['corpus'])!r}, members); "
            "[webaudit.resolve_throttle('4g', calibration, calibration.mode(kind)) for kind in ('mobile', 'desktop')]"
        )
        assert new_modules(set_up, ("webaudit.report", "hashlib", "_hashlib")) == []

    def test_the_cli_imports_the_report_layer_but_not_openssl(self):
        # bench/tracer.py wraps the report layer right after importing webaudit.cli.
        watched = ("webaudit.report", "hashlib", "_hashlib")
        assert new_modules("import webaudit.cli", watched) == ["webaudit.report"]


class TestPackageNamespace:
    HOMES = {
        "collector": ("load_trace",),
        "config": ("load_calibration", "load_member_regions", "resolve_throttle"),
        "corpus": ("audit_trace", "ingest_corpus", "membership_filter", "run_batch", "trace_slug"),
        "errors": ("AuditError",),
        "metrics": ("METRIC_KEYS", "compute_all", "compute_fci", "compute_fcp", "compute_fmp", "compute_max_fid",
                    "compute_speed_index", "compute_tti"),
        "netsim": ("UNTHROTTLED", "apply_throttle", "plan_from_dict", "waterfall_times"),
        "report": ("aggregate_regions", "build_aggregates", "emit_report", "overall_average", "rank_regions"),
        "scoring": ("ScoreCurve", "aggregate", "categorize", "metric_score"),
        "trace": ("MainThreadTask", "NetworkRequest", "NormalizedTrace", "PaintEvent", "VisualSample"),
    }  # fmt: skip
    NAMES = {*HOMES, *(name for names in HOMES.values() for name in names)}

    def test_each_name_is_its_home_modules_object(self):
        for module, names in self.HOMES.items():
            home = importlib.import_module(f"webaudit.{module}")
            assert getattr(webaudit, module) is home
            for name in names:
                assert getattr(webaudit, name) is getattr(home, name), name

    def test_all_and_dir_list_the_names(self):
        assert len(self.NAMES) == 45
        assert sorted(webaudit.__all__) == sorted(self.NAMES)
        assert self.NAMES <= set(dir(webaudit))

    def test_a_star_import_binds_the_names(self):
        namespace: dict = {}
        exec("from webaudit import *", namespace)
        assert set(namespace) - {"__builtins__"} == self.NAMES

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'webaudit' has no attribute 'nope'$"):
            webaudit.nope  # noqa: B018


class TestParserBasics:
    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--corpus", "x.csv"])
        assert exc.value.code == 2
