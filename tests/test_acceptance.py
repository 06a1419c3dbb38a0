"""Acceptance gate: eight criteria, one PASS/FAIL line each.

The lines collect in conftest.ACCEPTANCE_LINES and print in the terminal
summary, after capture ends. Runtime budgets apply to criteria 1, 2, 4,
6 and 7.
"""

import json
import math
import random
import struct
import time
from contextlib import contextmanager
from pathlib import Path

import conftest
from conftest import REFERENCE_REGION_MEANS, random_plan, random_profile, random_trace
from oracles import max_fid_brute, quiet_window_scan, speed_index_riemann, waterfall_march
from webaudit.cli import main
from webaudit.config import load_calibration, load_member_regions
from webaudit.corpus import ingest_corpus, membership_filter
from webaudit.metrics import MetricSet, compute_all, compute_max_fid, compute_speed_index
from webaudit.netsim import UNTHROTTLED, apply_throttle, waterfall_times
from webaudit.report import RegionAggregate, overall_average, rank_regions
from webaudit.scoring import METRIC_KEYS, ScoreCurve, aggregate, metric_score
from webaudit.synth import build_corpus_rows, write_corpus_csv, write_demo_workspace

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(f"took {elapsed:.2f}s, budget {budget_s}s")
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"CRITERION {number}: FAIL")
        raise
    conftest.ACCEPTANCE_LINES.append(f"CRITERION {number}: PASS ({elapsed:.2f}s)")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_criterion_1_weight_table():
    with criterion(1, budget_s=1.0):
        # the table the pipeline scores with
        weights = load_calibration().weights
        assert weights.as_dict() == {
            "fcp": 0.2,
            "fmp": 0.067,
            "si": 0.267,
            "tti": 0.333,
            "fci": 0.133,
            "max_fid": 0.0,
        }
        assert abs(math.fsum(weights.as_dict().values()) - 1.0) <= 1e-9

        rng = random.Random(1)
        for _ in range(100):
            scores = MetricSet(*(rng.uniform(0.0, 100.0) for _ in METRIC_KEYS))
            baseline = aggregate(scores, weights)
            for fid_score in (0.0, 33.3, 100.0, rng.uniform(0.0, 100.0)):
                assert bits(aggregate(scores._replace(max_fid=fid_score), weights)) == bits(baseline)


def test_criterion_2_curve_control_points():
    with criterion(2, budget_s=5.0):
        rng = random.Random(2)
        for _ in range(100):
            podr = rng.uniform(20.0, 9000.0)
            median = podr * rng.uniform(1.05, 6.0)
            curve = ScoreCurve(median_ms=median, podr_ms=podr)
            assert abs(metric_score(median, curve) - 50.0) <= 1e-6
            assert abs(metric_score(podr, curve) - 90.0) <= 1e-6

            # sample in the curve's own log scale; past ~8 sigma the float
            # tail of the CDF saturates and no two scores can differ
            mu, sigma = math.log(median), math.log(median / podr) / 1.2815515655446004
            zs: set[float] = set()
            while len(zs) < 1000:
                zs.add(rng.uniform(-6.0, 6.0))
            values = [math.exp(mu + sigma * z) for z in sorted(zs)]
            scores = [metric_score(v, curve) for v in values]
            assert all(a > b for a, b in zip(scores, scores[1:]))


def test_criterion_3_aggregate_identities():
    with criterion(3):
        weights = load_calibration().weights
        assert aggregate(MetricSet(*[100.0] * 6), weights) == 100.0
        assert aggregate(MetricSet(*[0.0] * 6), weights) == 0.0
        expected = {"fcp": 20.0, "fmp": 6.7, "si": 26.7, "tti": 33.3, "fci": 13.3, "max_fid": 0.0}
        for key, want in expected.items():
            assert aggregate(MetricSet(*[0.0] * 6)._replace(**{key: 100.0}), weights) == want


def test_criterion_4_trace_metric_oracles():
    with criterion(4, budget_s=30.0):
        quiet = load_calibration().quiet_window
        rng = random.Random(4)
        for _ in range(1000):
            trace = random_trace(rng)
            m = compute_all(trace, quiet)
            assert m.tti == quiet_window_scan(trace, m.fcp, consider_network=True)
            assert m.fci == quiet_window_scan(trace, m.fcp, consider_network=False)
            assert abs(compute_speed_index(trace) - speed_index_riemann(trace)) <= 0.5
            assert compute_max_fid(trace, m.fcp, m.tti) == max_fid_brute(trace, m.fcp, m.tti)


def test_criterion_5_netsim_oracle():
    with criterion(5):
        rng = random.Random(5)
        for _ in range(500):
            plan = random_plan(rng)
            profile = random_profile(rng)
            _, expected = waterfall_march(*plan, profile)
            _, ends = waterfall_times(*plan, profile)
            assert len(ends) == len(expected)
            for end, want in zip(ends, expected):
                assert abs(end - want) <= 1.0

        for _ in range(50):
            trace = random_trace(rng)
            replayed = apply_throttle(trace, UNTHROTTLED)
            assert replayed is trace
            assert json.dumps(replayed.to_dict(), sort_keys=True) == json.dumps(
                trace.to_dict(), sort_keys=True
            )


def test_criterion_6_reference_table_reproduction(tmp_path):
    with criterion(6, budget_s=1.0):
        aggregates = [
            RegionAggregate(region, mobile, web, mobile, web, 1, 1, 0, None)
            for region, mobile, web in REFERENCE_REGION_MEANS
        ]
        overall = overall_average(aggregates)
        assert overall["mobile"] == 38.7
        assert overall["web"] == 63.6

        ranked = rank_regions(aggregates, "mobile")
        assert ranked[0].region == "Kota Bandung"
        assert ranked[-1].region == "Kab. Cirebon"

        corpus = tmp_path / "corpus.csv"
        write_corpus_csv(build_corpus_rows(1012, 530), corpus)
        records = ingest_corpus(corpus)
        assert len(records) == 1012
        members = membership_filter(records, load_member_regions())
        assert len(members) == 530


def test_criterion_7_end_to_end_determinism(tmp_path):
    with criterion(7, budget_s=10.0):
        outputs = []
        for parallel in (1, 8):
            root = tmp_path / f"p{parallel}"
            paths = write_demo_workspace(root)
            results = root / "results.jsonl"
            rc = main(
                [
                    "batch",
                    "--corpus", str(paths["corpus"]),
                    "--members", str(paths["members"]),
                    "--traces", str(paths["traces"]),
                    "--modes", "mobile,desktop",
                    "--throttle", "4g",
                    "--parallel", str(parallel),
                    "--test-date", "2019-08-25",
                    "--out", str(results),
                ]
            )
            assert rc == 0
            outputs.append(results.read_bytes())

            aggregates = root / "aggregates.json"
            assert main(["aggregate", "--results", str(results), "--out", str(aggregates)]) == 0
            report = root / "report.md"
            rc = main(
                [
                    "report",
                    "--aggregates", str(aggregates),
                    "--results", str(results),
                    "--format", "md",
                    "--out", str(report),
                ]
            )
            assert rc == 0

        assert outputs[0] == outputs[1]

        rendered = (tmp_path / "p1" / "report.md").read_text("utf-8")
        assert "| No | Daerah | Rata-rata Skor Mobile | Rata-rata Skor Web | Tanggal Uji |" in rendered
        golden = (FIXTURES / "golden_report.md").read_text("utf-8")
        assert rendered == golden


def test_criterion_8_failure_semantics(tmp_path):
    with criterion(8):
        clean_root, failing_root = tmp_path / "clean", tmp_path / "failing"
        rows = {}
        for root, include_failure in ((clean_root, False), (failing_root, True)):
            paths = write_demo_workspace(root, include_failure=include_failure)
            results = root / "results.jsonl"
            rc = main(
                [
                    "batch",
                    "--corpus", str(paths["corpus"]),
                    "--members", str(paths["members"]),
                    "--traces", str(paths["traces"]),
                    "--test-date", "2019-08-25",
                    "--out", str(results),
                ]
            )
            assert rc == (1 if include_failure else 0)
            aggregates = root / "aggregates.json"
            assert main(["aggregate", "--results", str(results), "--out", str(aggregates)]) == 0
            report = root / "report.md"
            assert main(
                [
                    "report",
                    "--aggregates", str(aggregates),
                    "--results", str(results),
                    "--format", "md",
                    "--out", str(report),
                ]
            ) == 0
            document = json.loads(aggregates.read_text("utf-8"))
            rows[include_failure] = {
                item["region"]: item for item in document["aggregates"]
            }

        # the failed site lands in Kota Bandung but must not move its means
        clean, failing = rows[False]["Kota Bandung"], rows[True]["Kota Bandung"]
        assert failing["mean_mobile"] == clean["mean_mobile"]
        assert failing["mean_web"] == clean["mean_web"]
        assert failing["n_failed"] == 2  # one no-paint site in two modes

        rendered = (failing_root / "report.md").read_text("utf-8")
        assert "## Kegagalan" in rendered
        assert "https://demo-nopaint.example.go.id" in rendered
        assert "NoContentfulPaint" in rendered
