"""The command-line surface, run in-process through cli.main."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import webaudit
import webaudit.capture
from conftest import call_within, parse_report_csv
from webaudit.cli import _load_plan, main
from webaudit.collector import write_trace
from webaudit.config import default_calibration_text, load_calibration, resolve_throttle
from webaudit.netsim import apply_throttle
from webaudit.report import aggregates_from_report_json
from webaudit.synth import build_demo_trace, build_no_paint_trace, write_demo_workspace


@pytest.fixture
def workspace(tmp_path):
    return write_demo_workspace(tmp_path)


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


class TestAuditCommand:
    def test_replays_a_stored_trace(self, tmp_path, simple_trace, capsys):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        rc = main(["audit", "https://site.test", "--trace-in", str(trace_file), "--throttle", "none"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "https://site.test [mobile] throttle=none" in out

    def test_repeat_reports_a_mean(self, tmp_path, simple_trace, capsys):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        rc = main(
            ["audit", "https://site.test", "--trace-in", str(trace_file), "--throttle", "4g", "--repeat", "3"]
        )
        assert rc == 0
        assert "mean performance score over 3 runs:" in capsys.readouterr().out

    def test_zero_repeat_is_a_usage_error(self, tmp_path, simple_trace):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        assert main(["audit", "https://x.test", "--trace-in", str(trace_file), "--repeat", "0"]) == 2

    def test_capture_without_endpoint_is_a_config_error(self, monkeypatch, capsys):
        monkeypatch.delenv("AUDIT_BROWSER_ENDPOINT", raising=False)
        rc = main(["audit", "https://site.test"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rtt", [float("nan"), [1]])
    def test_bad_rtt_in_a_profile_file_is_a_config_error(self, tmp_path, simple_trace, capsys, rtt):
        trace_file = tmp_path / "t.json"
        write_trace(simple_trace, trace_file)
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"rtt_ms": rtt, "downlink_kbps": 1000}), "utf-8")
        rc = main(["audit", "x", "--trace-in", str(trace_file), "--throttle", str(profile)])
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
        assert call_within(10, main, ["audit", "x", "--trace-in", str(trace_file), "--throttle", throttle]) == 0
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
        argv = ["audit", "x", "--trace-in", str(trace_file), "--throttle", str(profile_file)]
        assert call_within(10, main, argv) == 2
        captured = capsys.readouterr()
        assert "too extreme to simulate" in captured.err
        assert "Traceback" not in captured.err
        assert "performance score" not in captured.out

    def test_live_capture_is_throttled_once_like_a_replay(self, tmp_path, monkeypatch, capsys):
        recorded = build_demo_trace(5)
        requests = []

        def fake_capture(request, endpoint=None):
            requests.append((request.url, request.mode.kind, endpoint))
            return recorded

        monkeypatch.setattr(webaudit.capture, "capture_live", fake_capture)
        stored = tmp_path / "captured.json"
        argv = ["audit", "https://site.test", "--throttle", "4g", "--endpoint", "127.0.0.1:9"]
        assert main(argv + ["--trace-out", str(stored)]) == 0
        live = capsys.readouterr().out
        assert requests == [("https://site.test", "mobile", "127.0.0.1:9")]

        calibration = load_calibration()
        expected = tmp_path / "expected.json"
        write_trace(apply_throttle(recorded, resolve_throttle("4g", calibration, calibration.mode("mobile"))), expected)
        assert stored.read_bytes() == expected.read_bytes()

        replayed = tmp_path / "recorded.json"
        write_trace(recorded, replayed)
        assert main(argv + ["--trace-in", str(replayed)]) == 0
        assert capsys.readouterr().out == live

    def test_trace_in_and_out_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "https://x.test", "--trace-in", "a.json", "--trace-out", "b.json"])
        assert exc.value.code == 2


class TestBatchCommand:
    def test_full_run_exits_zero(self, workspace, tmp_path, capsys):
        rc, out = run_batch_cli(workspace, tmp_path)
        assert rc == 0
        assert out.exists()
        assert len(out.read_text("utf-8").splitlines()) == 24
        assert "24 audits (12 sites x 2 modes), 0 failed" in capsys.readouterr().out

    def test_failures_flip_the_exit_code(self, tmp_path, capsys):
        paths = write_demo_workspace(tmp_path, include_failure=True)
        rc, out = run_batch_cli(paths, tmp_path)
        assert rc == 1
        assert out.exists()  # results still written; failures are data
        assert "2 failed" in capsys.readouterr().out

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

    def test_bad_corpus_is_a_config_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n", "utf-8")
        rc = main(
            ["batch", "--corpus", str(bad), "--traces", str(workspace["traces"]), "--out", str(tmp_path / "r.jsonl")]
        )
        assert rc == 2


class TestAggregateAndReportCommands:
    def pipeline(self, workspace, tmp_path, fmt: str, extra=()) -> str:
        rc, results = run_batch_cli(workspace, tmp_path)
        assert rc == 0
        aggregates = tmp_path / "aggregates.json"
        assert main(["aggregate", "--results", str(results), "--out", str(aggregates)]) == 0
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

    def test_md_report_has_the_table_and_total(self, workspace, tmp_path):
        text = self.pipeline(workspace, tmp_path, "md", extra=("--decimal-comma",))
        assert "| No | Daerah | Rata-rata Skor Mobile | Rata-rata Skor Web | Tanggal Uji |" in text
        assert "| Rata-rata total |" in text
        assert "," in text.split("Rata-rata total |")[1].split("|")[1]

    def test_json_report_round_trips_aggregates(self, workspace, tmp_path):
        text = self.pipeline(workspace, tmp_path, "json")
        assert len(aggregates_from_report_json(text)) == 12

    def test_unknown_format_rejected_by_the_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--aggregates", "a", "--results", "r", "--format", "pdf", "--out", "o"])
        assert exc.value.code == 2

    def test_corrupt_results_file_is_a_config_error(self, tmp_path):
        bad = tmp_path / "r.jsonl"
        bad.write_text("{broken\n", "utf-8")
        assert main(["aggregate", "--results", str(bad), "--out", str(tmp_path / "a.json")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("performance_score", float("nan")),
            ("outlier_flag", "no"),
            ("mode", "tablet"),
            ("metrics.fcp", "NaN"),
            ("scores.fcp", float("nan")),
            ("category", 7),
            ("site.nickname", "x"),
            ("site.no", "7"),
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
        ],
    )
    def test_bad_result_field_names_the_line_and_field(self, workspace, tmp_path, capsys, field, value):
        rc, results = run_batch_cli(workspace, tmp_path)
        assert rc == 0
        aggregates = tmp_path / "aggregates.json"
        assert main(["aggregate", "--results", str(results), "--out", str(aggregates)]) == 0
        lines = results.read_text("utf-8").splitlines()
        number = max(n for n, line in enumerate(lines, start=1) if json.loads(line)["status"] == "ok")
        row = json.loads(lines[number - 1])
        *parents, key = field.split(".")
        target = row
        for name in parents:
            target = target[name]
        target[key] = value
        lines[number - 1] = json.dumps(row)
        results.write_text("\n".join(lines) + "\n", "utf-8")
        capsys.readouterr()
        for argv in (
            ["aggregate", "--results", str(results), "--out", str(tmp_path / "again.json")],
            ["report", "--aggregates", str(aggregates), "--results", str(results), "--format", "md",
             "--out", str(tmp_path / "report.md")],
        ):
            assert call_within(10, main, argv) == 2
            err = capsys.readouterr().err
            assert f"line {number}: $.{field}: " in err
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
            [{"id": "a", "parent_id": "b"}, {"id": "b", "parent_id": "a"}],
        )
        assert main(["simulate", "--plan", plan]) == 2

    def test_malformed_plan_rejected(self, tmp_path):
        plan = self.write_plan(tmp_path, {"requests": [{"bytes": 5}]})
        assert main(["simulate", "--plan", plan]) == 2

    @pytest.mark.parametrize("offset", [float("nan"), "5"])
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
        [("bytes", 1.5), ("bytes", True), ("bytes", -1), ("origin", 5)],
        ids=["fractional-bytes", "bool-bytes", "negative-bytes", "number-origin"],
    )
    def test_bad_request_field_names_the_field(self, tmp_path, capsys, field, value):
        plan = self.write_plan(tmp_path, {"requests": [{"id": "a", field: value}]})
        assert main(["simulate", "--plan", plan]) == 2
        err = capsys.readouterr().err
        assert f"error: $.requests[0].{field}: " in err
        assert "Traceback" not in err

    def test_null_origin_means_no_origin(self, tmp_path):
        plan = self.write_plan(tmp_path, [{"id": "a", "bytes": 1000, "origin": None}])
        assert main(["simulate", "--plan", plan]) == 0
        assert _load_plan(plan).requests[0].origin == ""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (("modes", "mobile", "viewport"), "width_px", 360.5),
            (("modes", "desktop", "viewport"), "height_px", True),
            (("quiet_window",), "max_inflight_requests", 2.5),
        ],
        ids=["fractional-width", "bool-height", "fractional-inflight"],
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


def test_package_and_cli_import_no_network_modules():
    # Only a live audit needs capture's HTTP and socket client.
    src = str(Path(webaudit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, webaudit, webaudit.cli; "
        "print(' '.join(m for m in ('urllib.request', 'http.client', 'ssl', 'socket') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


class TestParserBasics:
    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--corpus", "x.csv"])
        assert exc.value.code == 2
