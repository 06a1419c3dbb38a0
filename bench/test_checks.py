"""Each independent check accepts the program's output and rejects a
deliberately corrupted copy; the input generator is byte-stable per seed.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import random

import pytest

import checks
import inputs
from program import SRC, add_program_to_path

add_program_to_path()

from webaudit import cli, load_calibration, load_trace  # noqa: E402
from webaudit.netsim import apply_throttle  # noqa: E402
from webaudit.synth import write_demo_workspace  # noqa: E402

CALIBRATION = json.loads((SRC / "webaudit" / "data" / "calibration.json").read_text("utf-8"))
LINK = CALIBRATION["throttle_profiles"]["4g"]
QUIET = CALIBRATION["quiet_window"]


def _four_g(mode: str = "mobile"):
    from webaudit import resolve_throttle

    calibration = load_calibration()
    return resolve_throttle("4g", calibration, calibration.mode(mode))


@pytest.fixture(scope="module")
def large_page() -> dict:
    rng = random.Random("bench-tests")
    return inputs.render(inputs.page_spec(rng, 120, 8), inputs.RECORDED)


@pytest.fixture(scope="module")
def throttled_page(large_page, tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("page") / "page.json"
    path.write_text(json.dumps(large_page), "utf-8")
    return apply_throttle(load_trace(path), _four_g()).to_dict()


@pytest.fixture(scope="module")
def batch_outputs(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("demo")
    paths = write_demo_workspace(root)
    files = {name: root / name for name in ("results.jsonl", "aggregates.json", "report.md", "report.csv", "report.json")}
    argv = ["batch", "--corpus", str(paths["corpus"]), "--traces", str(paths["traces"]), "--parallel", "1"]
    assert cli.main(argv + ["--test-date", "2019-08-25", "--out", str(files["results.jsonl"])]) == 0
    assert cli.main(["aggregate", "--results", str(files["results.jsonl"]), "--out", str(files["aggregates.json"])]) == 0
    for fmt in ("md", "csv", "json"):
        report = ["report", "--aggregates", str(files["aggregates.json"]), "--results", str(files["results.jsonl"])]
        assert cli.main(report + ["--format", fmt, "--out", str(files[f"report.{fmt}"])]) == 0
    return {name: path.read_text("utf-8") for name, path in files.items()}


def _lines(outputs: dict) -> list[dict]:
    return [json.loads(line) for line in outputs["results.jsonl"].splitlines()]


def _members() -> list[str]:
    text = (SRC / "webaudit" / "data" / "member_regions.txt").read_text("utf-8")
    return [line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")]


def _reports(outputs: dict, **replaced: str) -> list[str]:
    files = {**outputs, **replaced}
    return checks.reports_problems(
        _lines(outputs), _members(), files["aggregates.json"], files["report.md"], files["report.csv"], files["report.json"]
    )


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_gives_identical_files(workload, tmp_path):
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        inputs.generate(workload, seed, tmp_path / name)
        digests.append(inputs.digest(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_large_pages_keep_their_size_mix_across_seeds():
    plans = [inputs.large_page_plan(seed)[1] for seed in (1, 2)]
    assert plans[0] != plans[1]
    assert sorted(plans[0]) == sorted(plans[1])
    sizes = sorted(n for n, _ in plans[0])
    assert sizes[0] >= inputs.MIN_REQUESTS and sizes[-1] <= inputs.MAX_REQUESTS
    assert len(set(sizes)) == inputs.LARGE_SITES


# -- waterfall ---------------------------------------------------------------


def test_plan_inferences_agree_on_ties_and_zero_length_requests():
    rng = random.Random(3)
    for _ in range(200):
        requests = []
        for _ in range(rng.randint(1, 12)):
            discovered = rng.choice([0, 10, 20, 30])
            start = discovered + rng.choice([0, 0, 5])
            requests.append({"discovered_ms": discovered, "start_ms": start, "end_ms": start + rng.choice([0, 0, 10, 20])})
        assert checks.plan_brute_force(requests) == checks.plan_sorted(requests)


def test_waterfall_matches_the_program(large_page, throttled_page):
    assert checks.waterfall_problems(large_page, throttled_page, LINK["rtt_ms"], LINK["downlink_kbps"]) == []


def test_waterfall_rejects_a_late_request(large_page, throttled_page):
    bad = copy.deepcopy(throttled_page)
    bad["requests"][40]["end_ms"] += 2.0
    assert checks.waterfall_problems(large_page, bad, LINK["rtt_ms"], LINK["downlink_kbps"])


def test_throttle_properties_hold_for_the_program(large_page, throttled_page):
    assert checks.throttle_property_problems(large_page, throttled_page, LINK["rtt_ms"], LINK["downlink_kbps"]) == []


def test_throttle_properties_reject_a_child_before_its_parent(large_page, throttled_page):
    bad = copy.deepcopy(throttled_page)
    child = next(i for i, r in enumerate(large_page["requests"]) if r["discovered_ms"] > 0)
    bad["requests"][child]["start_ms"] -= LINK["rtt_ms"]
    assert checks.throttle_property_problems(large_page, bad, LINK["rtt_ms"], LINK["downlink_kbps"])


def test_throttle_properties_reject_a_link_faster_than_capacity(large_page, throttled_page):
    bad = copy.deepcopy(throttled_page)
    for r in bad["requests"]:
        r["start_ms"] /= 4
        r["end_ms"] /= 4
    assert checks.throttle_property_problems(large_page, bad, LINK["rtt_ms"], LINK["downlink_kbps"])


# -- interactivity -----------------------------------------------------------


@pytest.mark.parametrize("trace_of", ["recorded", "throttled"])
def test_interactivity_matches_the_program(trace_of, large_page, throttled_page):
    from webaudit.metrics import compute_all
    from webaudit.trace import NormalizedTrace

    document = large_page if trace_of == "recorded" else throttled_page
    metrics = compute_all(NormalizedTrace.from_dict(document)).as_dict()
    assert checks.interactivity_problems(document, metrics, QUIET) == []


@pytest.mark.parametrize("key, delta", [("tti", 2.0), ("fci", -2.0), ("max_fid", 1.0), ("fcp", 1.0)])
def test_interactivity_rejects_a_shifted_metric(key, delta, large_page):
    from webaudit.metrics import compute_all
    from webaudit.trace import NormalizedTrace

    metrics = compute_all(NormalizedTrace.from_dict(large_page)).as_dict()
    metrics[key] += delta
    assert checks.interactivity_problems(large_page, metrics, QUIET)


# -- scores ------------------------------------------------------------------


def test_scores_match_the_program(batch_outputs):
    assert checks.results_problems(_lines(batch_outputs), CALIBRATION, 24) == []


@pytest.mark.parametrize(
    "field, corrupt",
    [
        ("scores", lambda line: line["scores"].__setitem__("si", line["scores"]["si"] + 1e-6)),
        ("performance_score", lambda line: line.__setitem__("performance_score", line["performance_score"] + 1e-9)),
        ("category", lambda line: line.__setitem__("category", "good" if line["category"] != "good" else "poor")),
        ("outlier_flag", lambda line: line.__setitem__("outlier_flag", not line["outlier_flag"])),
        ("metrics", lambda line: line["metrics"].__setitem__("fci", line["metrics"]["tti"] + 1.0)),
    ],
)
def test_scores_reject_a_corrupted_line(field, corrupt, batch_outputs):
    lines = _lines(batch_outputs)
    corrupt(lines[3])
    assert checks.results_problems(lines, CALIBRATION, 24)


def test_results_reject_a_missing_line(batch_outputs):
    assert checks.results_problems(_lines(batch_outputs)[1:], CALIBRATION, 24)


# -- reports -----------------------------------------------------------------


def test_reports_match_the_program(batch_outputs):
    assert _reports(batch_outputs) == []


def _bump_first_mean(text: str, key: str) -> str:
    document = json.loads(text)
    document["aggregates"][0][key] += 0.01
    return json.dumps(document)


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("aggregates.json", lambda text: _bump_first_mean(text, "mean_mobile")),
        ("report.json", lambda text: _bump_first_mean(text, "raw_mean_web")),
        ("report.csv", lambda text: text.replace(text.splitlines()[1].split(",")[2], "0.00", 1)),
        ("report.md", lambda text: text.replace("| Rata-rata total | ", "| Rata-rata total | 1", 1)),
        ("report.md", lambda text: text.replace("Audit gagal: 0", "Audit gagal: 1", 1)),
    ],
)
def test_reports_reject_a_corrupted_file(name, corrupt, batch_outputs):
    bad = corrupt(batch_outputs[name])
    assert bad != batch_outputs[name]
    assert _reports(batch_outputs, **{name: bad})


def test_md_chart_data_rejects_a_changed_raw_mean(batch_outputs):
    md = batch_outputs["report.md"]
    raw = repr(json.loads(batch_outputs["aggregates.json"])["aggregates"][2]["raw_mean_mobile"])
    assert raw in md
    assert _reports(batch_outputs, **{"report.md": md.replace(raw, repr(float(raw) + 1e-6), 1)})
