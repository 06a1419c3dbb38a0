"""Seeded mutation fuzzing of the documents the command line reads.

Each case mutates one document (the packaged calibration, a throttle
profile file, cells of a corpus CSV, a results line, an aggregates row,
outlier or failure entry, a stored trace or a request plan), runs it
through ``cli.main`` and requires one of the documented exit codes, 0, 1
or 2, with no exception escaping and no hang. The mutations come from
``random.Random`` with fixed seeds, so a failure names a reproducible
case.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import random
from pathlib import Path

import pytest

from conftest import call_within
from webaudit.cli import main
from webaudit.collector import write_trace
from webaudit.config import default_calibration_text
from webaudit.synth import build_demo_trace, write_demo_workspace

# Replacement values: JSON's edge cases and the types no field expects.
# INF_TEXT stands for the literal 1e400, which json.dumps cannot write.
INF_TEXT = "<1e400>"
POOL = (None, True, False, 0, -1, 1e308, -1e308, INF_TEXT, float("nan"), "", "fast", [], {}, 2**70)
CSV_POOL = ("", " ", "None", "true", "0", "-1", "1e308", "1e400", "nan", "fast", "[]", "{}", str(2**70), "\u00e9\u200b")
DELETE = object()

PLAN = [{"id": "doc", "bytes": 62500}, {"id": "img", "parent_id": "doc", "bytes": 25000}]
PROFILE = {"rtt_ms": 150, "downlink_kbps": 1638, "cpu_multiplier": 4}
# A plan with a chain, siblings discovered together, a zero-byte request and
# a second root. Its ids join the value pool, and half the cases first move
# one parent_id onto another request, which often closes a cycle.
CHAIN_PLAN = {
    "requests": [
        {"id": "doc", "parent_id": None, "bytes": 62500},
        {"id": "css", "parent_id": "doc", "discovery_offset_ms": 5, "bytes": 12500},
        {"id": "js", "parent_id": "doc", "discovery_offset_ms": 5, "bytes": 30000},
        {"id": "img", "parent_id": "css", "bytes": 0},
        {"id": "font", "parent_id": "js", "discovery_offset_ms": 12.5, "bytes": 8000},
        {"id": "late", "parent_id": None, "discovery_offset_ms": 300, "bytes": 4000},
    ]
}
PLAN_IDS = tuple(request["id"] for request in CHAIN_PLAN["requests"])
# Times a trace's schema accepts, from sub-millisecond to near the float
# limit, so that more mutated traces reach the replay and the metrics.
TRACE_POOL = POOL + (0.5, 250.0, 1e6, 1e300)
# Throttle profile files at the edges of what validation lets through.
EDGE_PROFILES = ({"rtt_ms": 0, "downlink_kbps": 1e-300}, {"rtt_ms": 1e308, "downlink_kbps": 1e308})


def _slots(node, path=()):
    """Every (path) to a value inside node, node itself excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def mutate(document, rng: random.Random, pool: tuple = POOL) -> tuple[object, list[str]]:
    """A copy of document with one to three values replaced by a value from
    pool or deleted, and what was done, for the failure message."""
    document = copy.deepcopy(document)
    done = []
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(document))
        if not slots:
            break
        path = rng.choice(slots)
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        value = DELETE if rng.random() < 0.2 else rng.choice(pool)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
        done.append(f"{'/'.join(map(str, path))} = {'<deleted>' if value is DELETE else repr(value)}")
    return document, done


def dump(document) -> str:
    return json.dumps(document).replace(json.dumps(INF_TEXT), "1e400")


def run(argv: list[str], case: str) -> int:
    try:
        code = call_within(10.0, main, argv)
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
    assert code in (0, 1, 2), f"{case}: exit code {code!r}"
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("fuzz")
    paths = write_demo_workspace(root)
    paths["trace"] = root / "trace.json"
    write_trace(build_demo_trace(2), paths["trace"])
    paths["plan"] = root / "plan.json"
    paths["plan"].write_text(json.dumps(PLAN), "utf-8")
    paths["doc"] = root / "mutated.json"
    paths["out"] = root / "results.jsonl"
    # A results file with failed lines, and its aggregates.
    failing = write_demo_workspace(root / "failing", include_failure=True)
    paths["results"], paths["aggregates"] = root / "batch.jsonl", root / "batch_aggregates.json"
    assert main(batch_argv({**failing, "out": paths["results"]})) == 1
    assert main(["aggregate", "--results", str(paths["results"]), "--out", str(paths["aggregates"])]) == 0
    return paths


def batch_argv(files: dict[str, Path], *extra: str) -> list[str]:
    return [
        "batch", "--corpus", str(files["corpus"]), "--members", str(files["members"]),
        "--traces", str(files["traces"]), "--modes", "mobile,desktop", "--test-date", "2019-08-25",
        "--out", str(files["out"]), *extra,
    ]  # fmt: skip


def test_mutated_calibrations(files, capsys):
    rng = random.Random(0xCA1)
    packaged = json.loads(default_calibration_text())
    codes = []
    for i in range(90):
        document, done = mutate(packaged, rng)
        files["doc"].write_text(dump(document), "utf-8")
        case = f"calibration {i}: {done}"
        calibration = ["--calibration", str(files["doc"])]
        codes.append(run(["score", "--trace", str(files["trace"]), *calibration], case))
        codes.append(run(["simulate", "--plan", str(files["plan"]), *calibration], case))
        if i % 6 == 0:
            codes.append(run(batch_argv(files, *calibration), case))
        capsys.readouterr()
    assert {0, 2} <= set(codes)


def test_mutated_throttle_profiles(files, capsys):
    rng = random.Random(0x960)
    codes = []
    for i in range(120):
        document, done = mutate(PROFILE, rng)
        files["doc"].write_text(dump(document), "utf-8")
        case = f"profile {i}: {done}"
        throttle = str(files["doc"])
        codes.append(run(["score", "--trace", str(files["trace"]), "--throttle", throttle], case))
        codes.append(run(["simulate", "--plan", str(files["plan"]), "--profile", throttle], case))
        capsys.readouterr()
    assert {0, 2} <= set(codes)


def test_mutated_corpus_cells(files, capsys, tmp_path):
    rng = random.Random(0xC5F)
    rows = list(csv.reader(io.StringIO(files["corpus"].read_text("utf-8"))))
    corpus = tmp_path / "corpus.csv"
    codes = []
    for i in range(60):
        mutated = [list(row) for row in rows]
        done = []
        for _ in range(rng.randint(1, 3)):
            row = rng.randrange(len(mutated))
            column = rng.randrange(len(mutated[row]))
            if rng.random() < 0.2:
                del mutated[row][column]
                done.append(f"row {row} cell {column} deleted")
            else:
                other = mutated[rng.randrange(len(mutated))]  # its cell here may repeat a url or region
                mutated[row][column] = rng.choice(CSV_POOL + tuple(other[column : column + 1]))
                done.append(f"row {row} cell {column} = {mutated[row][column]!r}")
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(mutated)
        corpus.write_text(text.getvalue(), "utf-8")
        argv = batch_argv(files)
        argv[argv.index("--corpus") + 1] = str(corpus)
        codes.append(run(argv, f"corpus {i}: {done}"))
        capsys.readouterr()
    assert {0, 2} <= set(codes)


def report_argvs(aggregates: Path, results: Path, out: Path) -> list[list[str]]:
    return [
        ["report", "--aggregates", str(aggregates), "--results", str(results), "--format", fmt, "--out", str(out)]
        for fmt in ("md", "csv", "json")
    ]


def test_mutated_result_lines(files, capsys, tmp_path):
    rng = random.Random(0x7E5)
    lines = files["results"].read_text("utf-8").splitlines()
    results, out = tmp_path / "results.jsonl", tmp_path / "out"
    codes = []
    for i in range(80):
        mutated = list(lines)
        number = rng.randrange(len(mutated))
        document, done = mutate(json.loads(mutated[number]), rng)
        mutated[number] = dump(document)
        results.write_text("\n".join(mutated) + "\n", "utf-8")
        # No report opens --results, so aggregate is the only reader of the line.
        codes.append(run(["aggregate", "--results", str(results), "--out", str(out)], f"results {i}, line {number + 1}: {done}"))
        capsys.readouterr()
    assert {0, 2} <= set(codes)


def test_mutated_aggregates_rows(files, capsys):
    rng = random.Random(0xA66)
    document = json.loads(files["aggregates"].read_text("utf-8"))
    argvs = report_argvs(files["doc"], files["results"], files["doc"].with_suffix(".out"))
    files["doc"].write_text(dump(document), "utf-8")
    assert {run(argv, "the document as written") for argv in argvs} == {0}
    codes = []
    for i in range(150):
        mutated = copy.deepcopy(document)
        # A row, an outlier entry or a failure item, in turn.
        name, entries = [
            ("aggregates", mutated["aggregates"]), ("outliers", mutated["outliers"]),
            ("failures.items", mutated["failures"]["items"]),
        ][i % 3]  # fmt: skip
        k = rng.randrange(len(entries))
        entries[k], done = mutate(entries[k], rng)
        files["doc"].write_text(dump(mutated), "utf-8")
        codes += [run(argv, f"aggregates {i}, {name}[{k}]: {done}") for argv in argvs]
        capsys.readouterr()
    # The reader holds each row, outlier and failure to what aggregate
    # writes, so nearly every mutation is refused.
    assert 2 in codes


def test_mutated_traces(files, capsys):
    rng = random.Random(0x7ACE)
    document = json.loads(files["trace"].read_text("utf-8"))
    codes = []
    for i in range(60):
        mutated, done = mutate(document, rng, TRACE_POOL)
        files["doc"].write_text(dump(mutated), "utf-8")
        case = f"trace {i}: {done}"
        trace = str(files["doc"])
        codes.append(run(["score", "--trace", trace], case))
        codes.append(run(["score", "--trace", trace, "--throttle", rng.choice(("4g", "none"))], case))
        capsys.readouterr()
    assert {0, 2} <= set(codes)


def test_mutated_plans(files, capsys, tmp_path):
    rng = random.Random(0x91A)
    edges = []
    for k, profile in enumerate(EDGE_PROFILES):
        edges.append(tmp_path / f"edge{k}.json")
        edges[-1].write_text(json.dumps(profile), "utf-8")
    codes, errors = [], []
    for i in range(150):
        document, done = copy.deepcopy(CHAIN_PLAN), []
        if rng.random() < 0.5:
            moved = rng.choice(document["requests"])
            moved["parent_id"] = rng.choice(PLAN_IDS)
            done.append(f"{moved['id']} waits on {moved['parent_id']}")
        document, mutated = mutate(document, rng, POOL + PLAN_IDS)
        done += mutated
        files["doc"].write_text(dump(document), "utf-8")
        profile = str(rng.choice(("4g", "none", *edges)))
        argv = ["simulate", "--plan", str(files["doc"]), "--profile", profile]
        codes.append(run(argv, f"plan {i} ({profile}): {done}"))
        errors.append(capsys.readouterr().err)
    assert {0, 2} <= set(codes)
    assert any("dependency cycle" in err for err in errors)
