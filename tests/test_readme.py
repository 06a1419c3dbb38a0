"""README.md read as a contract with the code. The checks are structural:
each reads a fenced block found by its heading and compares what it names
with the code, never the prose around it."""

import argparse
import ast
import importlib
import inspect
import json
import pkgutil
import re
import shlex
import shutil
from pathlib import Path

import pytest

import webaudit
from webaudit import audit_trace, cli, load_calibration, load_trace, netsim
from webaudit.capture import trace_from_performance_entries
from webaudit.collector import write_trace
from webaudit.config import resolve_throttle
from webaudit.corpus import ingest_corpus, read_results, write_results
from webaudit.errors import AuditError
from webaudit.report import aggregates_from_dict, emit_report
from webaudit.synth import build_demo_trace, write_demo_workspace
from webaudit.trace import NormalizedTrace

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading: str, info: str = "") -> list[str]:
    """The lines of the first fenced block under the README heading ``heading``:
    a heading line, or the bold label that starts a paragraph (**Trace JSON**);
    with ``info``, the first whose opening fence names it (```python)."""
    lines = README.read_text("utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line == heading or line.startswith(f"{heading} "))
    opening = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```" + info))
    assert not any(line.startswith("#") for line in lines[start + 1 : opening]), f"no block under {heading!r}"
    return lines[opening + 1 : lines.index("```", opening + 1)]


def documented_options() -> dict[str, set[str]]:
    """The options each subcommand's entry in the "Command line" block names."""
    # A synopsis entry starts "webaudit COMMAND"; indented lines continue it.
    documented: dict[str, set[str]] = {}
    for line in fenced_block("## Command line"):
        if line.startswith("webaudit "):
            command = line.split()[1]
            assert command not in documented, f"{command} has two synopsis entries"
            documented[command] = set()
        documented[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return documented


def parsed_options() -> dict[str, set[str]]:
    """The long options, bar --help, that the parser gives each subcommand."""
    (subcommands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {option for action in sub._actions for option in action.option_strings if option.startswith("--")}
        - {"--help"}
        for name, sub in subcommands.choices.items()
    }


def test_command_line_synopsis_has_one_entry_per_subcommand():
    assert sorted(documented_options()) == sorted(parsed_options())


@pytest.mark.parametrize("command", sorted(parsed_options()))
def test_command_line_synopsis_names_every_option_of_every_subcommand(command):
    assert documented_options().get(command) == parsed_options()[command]


def test_library_quick_start_prints_the_audit_of_its_trace(tmp_path, monkeypatch, capsys):
    write_trace(build_demo_trace(5), tmp_path / "trace.json")
    monkeypatch.chdir(tmp_path)
    exec(compile("\n".join(fenced_block("## Library quick start")), "README.md", "exec"), {})
    calibration = load_calibration()
    metrics, report = audit_trace(load_trace("trace.json"), calibration.mode("mobile"), calibration)
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(metrics.as_dict()), str(report.performance_score), report.category]


def documented_exit_codes() -> dict[int, set[str]]:
    """The exception classes each line of the "Exit codes" block names, by code."""
    codes = {}
    for line in fenced_block("### Exit codes"):
        code, rest = line.split(maxsplit=1)
        codes[int(code)] = set(re.findall(r"\b[A-Z]\w*\b", rest.split(";")[0]))
    return codes


def mapped_exit_codes() -> dict[int, set[str]]:
    """The exception classes each `except` clause of cli.main names, by the code it returns."""
    module = ast.parse(Path(cli.__file__).read_text("utf-8"))
    (main,) = [node for node in module.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    codes: dict[int, set[str]] = {}
    for handler in (node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)):
        (returned,) = [node.value.value for node in ast.walk(handler) if isinstance(node, ast.Return)]
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        codes.setdefault(returned, set()).update(t.id for t in types)
    return codes


def test_exit_code_block_names_the_classes_cli_main_maps():
    documented = documented_exit_codes()
    assert documented.pop(0) == set()
    assert documented == mapped_exit_codes()


def documented_calls() -> list[tuple[str, list[str]]]:
    """(name, arguments) of each distinct backticked call in README.md whose
    arguments are all identifiers, such as `netsim.replay_link(trace, profile)`."""
    calls = []
    for call in dict.fromkeys(re.findall(r"`([A-Za-z_][\w.]*\([^`()]*\))`", README.read_text("utf-8"))):
        name, arguments = call[:-1].split("(")
        arguments = [argument.strip() for argument in arguments.split(",")] if arguments.strip() else []
        if all(argument.isidentifier() for argument in arguments):
            calls.append((name, arguments))
    return calls


# webaudit.__main__ runs the command line when imported.
MODULES = {
    info.name: importlib.import_module(f"webaudit.{info.name}")
    for info in pkgutil.iter_modules(webaudit.__path__)
    if info.name != "__main__"
}


def defined_names() -> dict[str, object]:
    """Every function and class that a webaudit module defines, by name."""
    names: dict[str, object] = {}
    for module in MODULES.values():
        for name, value in vars(module).items():
            if callable(value) and getattr(value, "__module__", "").startswith("webaudit."):
                assert names.setdefault(name, value) is value, f"two webaudit objects are named {name}"
    return names


def call_problem(name: str, arguments: list[str]) -> str | None:
    """Why the documented call name(arguments) disagrees with the code, or None.

    The first part of a dotted name is a webaudit module or a name a webaudit
    module defines, and a bare name must be one of those; a dotted name whose
    first part is neither (`json.dumps`) is not webaudit's, and passes. The
    arguments must be the leading parameters of what the name resolves to,
    in order, without a method's self.
    """
    head, *rest = name.split(".")
    target = MODULES.get(head) or defined_names().get(head)
    if target is None:
        return None if rest else f"{name} is not defined in webaudit"
    owner = None
    for attr in rest:
        if not hasattr(target, attr):
            return f"{name}: {attr} is not defined in {head}"
        owner, target = target, getattr(target, attr)
    if isinstance(target, type) and hasattr(target, "_fields"):
        parameters = list(target._fields)
    else:
        parameters = list(inspect.signature(target).parameters)
        if isinstance(owner, type) and inspect.isfunction(target):
            del parameters[0]  # a method's self
    if parameters[: len(arguments)] != arguments:
        return f"{name}({', '.join(arguments)}): the code's parameters are ({', '.join(parameters)})"
    return None


@pytest.mark.parametrize(
    "name, arguments", [pytest.param(*call, id=f"{call[0]}({', '.join(call[1])})") for call in documented_calls()]
)
def test_documented_call_gives_the_leading_parameters(name, arguments):
    assert call_problem(name, arguments) is None


@pytest.mark.parametrize(
    "name, arguments",
    [
        ("categorize", ["score", "bands"]),
        ("netsim.replay_mode", ["trace", "link", "cpu_multiplier"]),
        ("netsim.waterfall_times", ["offsets", "parents"]),
        ("netsim.infer_plan", ["trace"]),
        ("infer_plan", ["trace"]),
    ],
)
def test_a_call_that_disagrees_with_the_code_is_found(name, arguments):
    assert call_problem(name, arguments) is not None


def test_a_call_outside_webaudit_passes():
    assert call_problem("json.dumps", ["record"]) is None


def trace_example_problem(block: list[str], tmp_path: Path) -> str | None:
    """Why the "Trace JSON" example block is not a trace that round-trips
    through write_trace and load_trace, or None."""
    try:
        trace = NormalizedTrace.from_dict(json.loads("\n".join(block)))
    except (ValueError, AuditError) as exc:  # a JSONDecodeError is a ValueError
        return str(exc)
    write_trace(trace, tmp_path / "example.json")
    if load_trace(tmp_path / "example.json") != trace:
        return "the example does not read back as written"
    return None


def test_trace_json_example_is_a_trace_that_round_trips(tmp_path):
    assert trace_example_problem(fenced_block("**Trace JSON**"), tmp_path) is None


@pytest.mark.parametrize(
    "old, new",
    [
        ('"nav_start": 0.0', '"nav_start": 5.0'),
        ('"kind": "contentful-paint"', '"kind": "paint"'),
        ('"start_ms": 880', '"start_ms": -880'),
        ('"end_ms": 520', '"end_ms": 5'),
        ('"fraction": 1.0}]', '"fraction": 1.5}]'),
        ('"bytes": 74000,', '"bytes": 74000'),
    ],
    ids=["nav-start", "paint-kind", "task-start", "request-end", "visual-fraction", "not-json"],
)
def test_an_edit_that_breaks_the_trace_json_example_is_found(tmp_path, old, new):
    block = fenced_block("**Trace JSON**")
    edited = "\n".join(block).replace(old, new)
    assert edited != "\n".join(block), f"{old!r} is not in the block"
    assert trace_example_problem(edited.splitlines(), tmp_path) is not None


def plan_example_problem(block: list[str], root: Path, capsys) -> str | None:
    """Why the "Plan JSON" example block is not a plan that plan_from_dict
    reads and whose requests `webaudit simulate --plan` prints in id order, or None."""
    text = "\n".join(block)
    try:
        document = json.loads(text)
        netsim.plan_from_dict(document)
    except (ValueError, AuditError) as exc:  # a JSONDecodeError is a ValueError
        return str(exc)
    requests = document["requests"] if isinstance(document, dict) else document
    (root / "plan.json").write_text(text, "utf-8")
    capsys.readouterr()
    code = cli.main(["simulate", "--plan", str(root / "plan.json")])
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:]]
    if code != 0 or printed != sorted(request["id"] for request in requests):
        return f"simulate --plan exits {code} and prints {printed}"
    return None


def test_plan_json_example_is_a_plan_that_simulate_reads(tmp_path, capsys):
    assert plan_example_problem(fenced_block("**Plan JSON**"), tmp_path, capsys) is None


@pytest.mark.parametrize(
    "old, new",
    [
        ('"parent_id": "doc"', '"parent": "doc"'),
        ('{"id": "doc"', '{"ID": "doc"'),
        ('"discovery_offset_ms": 5,', '"discovery_offset_ms": -5,'),
        ('"parent_id": "app.js"', '"parent_id": "app"'),
        ('"bytes": 30000', '"bytes": 30000.5'),
    ],
    ids=["misspelt-parent", "misspelt-id", "negative-offset", "unknown-parent", "fractional-bytes"],
)
def test_an_edit_that_breaks_the_plan_json_example_is_found(tmp_path, capsys, old, new):
    block = fenced_block("**Plan JSON**")
    edited = "\n".join(block).replace(old, new)
    assert edited != "\n".join(block), f"{old!r} is not in the block"
    assert plan_example_problem(edited.splitlines(), tmp_path, capsys) is not None


def profile_example_problem(block: list[str], root: Path) -> str | None:
    """Why the throttle-profile example under "Calibration JSON" is not a
    profile file that resolve_throttle reads, or None."""
    path = root / "profile.json"
    path.write_text("\n".join(block), "utf-8")
    try:
        resolve_throttle(str(path), load_calibration())
    except AuditError as exc:
        return str(exc)
    return None


def test_throttle_profile_example_is_a_profile_file(tmp_path):
    assert profile_example_problem(fenced_block("**Calibration JSON**"), tmp_path) is None


@pytest.mark.parametrize(
    "old, new",
    [
        ('"rtt_ms"', '"rtt"'),
        ('"downlink_kbps": 700', '"downlink_kbps": -700'),
        ('"cpu_multiplier": null', '"cpu_multiplier": 0.5'),
        ("300,", "300"),
    ],
    ids=["misspelt-rtt", "negative-downlink", "cpu-below-one", "not-json"],
)
def test_an_edit_that_breaks_the_throttle_profile_example_is_found(tmp_path, old, new):
    block = fenced_block("**Calibration JSON**")
    edited = "\n".join(block).replace(old, new)
    assert edited != "\n".join(block), f"{old!r} is not in the block"
    assert profile_example_problem(edited.splitlines(), tmp_path) is not None


def results_example_problem(block: list[str], root: Path) -> str | None:
    """Why the "Results JSONL" example block is not results lines that
    read_results reads and write_results writes back byte for byte, or None."""
    path = root / "results.jsonl"
    path.write_text("\n".join(block) + "\n", "utf-8")
    try:
        results = read_results(path)
    except AuditError as exc:
        return str(exc)
    write_results(results, root / "rewritten.jsonl")
    if (root / "rewritten.jsonl").read_bytes() != path.read_bytes():
        return "the example does not write back as read"
    return None


def test_results_jsonl_example_reads_and_writes_back_the_same_bytes(tmp_path):
    assert results_example_problem(fenced_block("**Results JSONL**"), tmp_path) is None


@pytest.mark.parametrize(
    "old, new",
    [
        ('"category":"average",', '"category":"average","nickname":"a",'),
        ('"outlier_flag":false,"performance_score":79', '"outlier_flag":"no","performance_score":79'),
        ('"performance_score":79.49259308527361', '"performance_score":101'),
        ('"mode":"mobile","outlier_flag":false', '"mode":"mobile","outlier_flag":true'),
        ('"category":"average","failure_reason":null', '"failure_reason":null,"category":"average"'),
    ],
    ids=["unknown-key", "flag-not-a-bool", "score-past-100", "flagged-failure", "keys-swapped"],
)
def test_an_edit_that_breaks_the_results_jsonl_example_is_found(tmp_path, old, new):
    block = fenced_block("**Results JSONL**")
    edited = "\n".join(block).replace(old, new, 1)
    assert edited != "\n".join(block), f"{old!r} is not in the block"
    assert results_example_problem(edited.splitlines(), tmp_path) is not None


def corpus_example_problem(block: list[str], root: Path) -> str | None:
    """Why the "Corpus CSV" example block is not a corpus whose every row
    ingest_corpus reads as a site, or None."""
    path = root / "corpus.csv"
    path.write_text("\n".join(block) + "\n", "utf-8")
    try:
        sites = ingest_corpus(path)
    except AuditError as exc:
        return str(exc)
    if len(sites) != len(block) - 1:
        return f"{len(block) - 1} rows read as {len(sites)} sites"
    return None


def test_corpus_csv_example_is_a_corpus(tmp_path):
    assert corpus_example_problem(fenced_block("**Corpus CSV**"), tmp_path) is None


@pytest.mark.parametrize(
    "old, new",
    [
        (",provinsi,", ",province,"),
        ("https://cirebonkab.go.id", "https://bandung.go.id"),
        ("no,institution,tier,region,url", "no,institution,tier,region"),
        ("\n3,", "\nthree,"),
    ],
    ids=["bad-tier", "repeated-url", "short-header", "number-not-an-integer"],
)
def test_an_edit_that_breaks_the_corpus_csv_example_is_found(tmp_path, old, new):
    block = fenced_block("**Corpus CSV**")
    edited = "\n".join(block).replace(old, new, 1)
    assert edited != "\n".join(block), f"{old!r} is not in the block"
    assert corpus_example_problem(edited.splitlines(), tmp_path) is not None


def aggregates_example_problem(block: list[str]) -> str | None:
    """Why the "Aggregates JSON" example block is not a document that
    aggregates_from_dict reads and the JSON report writes back byte for byte,
    or None."""
    text = "\n".join(block) + "\n"
    try:
        aggregates = aggregates_from_dict(json.loads(text))
    except (ValueError, AuditError) as exc:  # a JSONDecodeError is a ValueError
        return str(exc)
    if emit_report(aggregates, "json") != text:
        return "the example does not write back as read"
    return None


def test_aggregates_json_example_reads_and_writes_back_the_same_bytes():
    assert aggregates_example_problem(fenced_block("**Aggregates JSON**")) is None


@pytest.mark.parametrize(
    "old, new",
    [
        ('"mean_web": 60.13', '"mean_web": 60.12'),
        ('"total": 1', '"total": 2'),
        ('"n_failed": 1', '"n_failed": 0'),
        ('"mobile": 68.4', '"mobile": 68.3'),
        ('"mode": "desktop"', '"mode": "tablet"'),
        ('"test_date": "2019-08-25"', '"test_date": null'),
        ('"region": "Kota Bandung",\n      "url"', '"region": "Kota Cirebon",\n      "url"'),
        ('"n_ok_web": 1,', '"n_ok_web": 1, "nickname": 1,'),
    ],
    ids=[
        "mean-not-the-raw-rounded", "total-off-by-one", "failure-in-no-count", "overall-not-the-rows",
        "unknown-mode", "no-test-date", "outlier-in-no-row", "unknown-row-key",
    ],
)
def test_an_edit_that_breaks_the_aggregates_json_example_is_found(old, new):
    block = fenced_block("**Aggregates JSON**")
    edited = "\n".join(block).replace(old, new, 1)
    assert edited != "\n".join(block), f"{old!r} is not in the block"
    assert aggregates_example_problem(edited.splitlines()) is not None


def batch_run_problem(block: list[str], root: Path) -> str | None:
    """Why the "typical batch run" block does not run on the demo workspace,
    command by command through cli.main with each exiting 0, and leave the
    results, aggregates and report its batch, aggregate and report commands
    write, or None.

    A word with a "." or "/" in it names a file, taken under root. The demo
    workspace's corpus and traces are put where the batch's --corpus and
    --traces name.
    """
    text = "\n".join(block).replace("\\\n", " ")
    commands = [
        [str(root / word) if "." in word or "/" in word else word for word in shlex.split(line)]
        for line in text.splitlines()
        if line.strip()
    ]
    outputs = {argv[1]: argv[argv.index("--out") + 1] for argv in commands if len(argv) > 1 and "--out" in argv[:-1]}
    batch = next((argv for argv in commands if argv[1:2] == ["batch"]), [])
    if "--corpus" in batch[:-1] and "--traces" in batch[:-1]:
        workspace = write_demo_workspace(root / "demo workspace")
        shutil.move(workspace["corpus"], batch[batch.index("--corpus") + 1])
        shutil.move(workspace["traces"], batch[batch.index("--traces") + 1])
    for argv in commands:
        if argv[0] != "webaudit":
            return f"{shlex.join(argv)}: not a webaudit command"
        try:
            code = cli.main(argv[1:])
        except SystemExit as exc:  # a usage error
            code = exc.code
        if code != 0:
            return f"{shlex.join(argv)}: exit code {code}"
    for command in ("batch", "aggregate", "report"):
        if command not in outputs or not Path(outputs[command]).is_file():
            return f"the block's {command} command writes no --out file"
    return None


def test_typical_batch_run_runs_on_the_demo_workspace(tmp_path, capsys):
    assert batch_run_problem(fenced_block("A typical batch run"), tmp_path) is None


@pytest.mark.parametrize(
    "old, new",
    [
        ("--test-date", "--tested-on"),
        ("--throttle 4g", "--throttle 5g"),
        ("--results results.jsonl", "--results other.jsonl"),
        ("--format md", "--format pdf"),
        ("webaudit aggregate", "webaudit aggregates"),
        ("webaudit report --aggregates aggregates.json --format md --out report.md", ""),
    ],
    ids=["unknown-option", "unknown-throttle", "results-never-written", "unknown-format", "unknown-command", "no-report"],
)
def test_an_edit_that_breaks_the_typical_batch_run_is_found(tmp_path, capsys, old, new):
    block = fenced_block("A typical batch run")
    edited = "\n".join(block).replace(old, new)
    assert edited != "\n".join(block), f"{old!r} is not in the block"
    assert batch_run_problem(edited.splitlines(), tmp_path) is not None


# Performance entries with the keys the "Recording a trace from a browser"
# snippet emits: whole paint, element and resource entries, long tasks
# and two navigation milestones.
ENTRIES = {
    "paint": [
        {"name": "first-paint", "entryType": "paint", "startTime": 310.5, "duration": 0},
        {"name": "first-contentful-paint", "entryType": "paint", "startTime": 320.0, "duration": 0},
    ],
    "elements": [
        {"name": "image-paint", "entryType": "element", "startTime": 0, "renderTime": 640.2, "loadTime": 600.0,
         "size": 50000, "identifier": "", "url": "https://example.test/hero.jpg"},
    ],
    "longtasks": [{"startTime": 400.0, "duration": 80.0}],
    "resources": [
        {"name": "https://example.test/app.css", "entryType": "resource", "startTime": 20.0, "requestStart": 25.0,
         "responseEnd": 300.0, "transferSize": 12000, "initiatorType": "link"},
        {"name": "https://example.test/hero.jpg", "entryType": "resource", "startTime": 330.0, "requestStart": 0,
         "responseEnd": 590.0, "transferSize": 48000, "initiatorType": "img"},
    ],
    "navigation": {"domContentLoaded": 700.0, "loadEventEnd": 900.0},
}  # fmt: skip


def test_converter_entries_have_the_keys_the_snippet_emits():
    snippet = "\n".join(fenced_block("## Recording a trace from a browser", "js"))
    assert re.findall(r"(?m)^    (\w+):", snippet) == list(ENTRIES)
    assert re.findall(r"(?m)^      (\w+):", snippet) == list(ENTRIES["navigation"])


def converter_problem(block: list[str], root: Path) -> str | None:
    """Why the converter block, run in root on ENTRIES saved as entries.json,
    does not leave the trace of those entries in a trace.json that load_trace
    reads, or None."""
    (root / "entries.json").write_text(json.dumps(ENTRIES), "utf-8")
    try:
        exec(compile("\n".join(block), "README.md", "exec"), {})
        trace = load_trace("trace.json")
    except Exception as exc:  # whatever the block raises is its problem
        return f"{type(exc).__name__}: {exc}"
    if trace != trace_from_performance_entries(ENTRIES):
        return "trace.json is not the trace of the entries"
    return None


def test_converter_block_writes_the_trace_of_the_entries(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert converter_problem(fenced_block("## Recording a trace from a browser", "python"), tmp_path) is None


@pytest.mark.parametrize(
    "old, new",
    [
        ("import trace_from_performance_entries", "import trace_from_performance_entry"),
        ('"trace.json")', '"trace.out")'),
        ('open("entries.json"', 'open("entries.txt"'),
        ("from webaudit.collector import", "from webaudit.trace import"),
    ],
    ids=["misspelt-converter", "other-output", "other-input", "writer-not-there"],
)
def test_an_edit_that_breaks_the_converter_block_is_found(tmp_path, monkeypatch, old, new):
    monkeypatch.chdir(tmp_path)
    block = fenced_block("## Recording a trace from a browser", "python")
    edited = "\n".join(block).replace(old, new)
    assert edited != "\n".join(block), f"{old!r} is not in the block"
    assert converter_problem(edited.splitlines(), tmp_path) is not None
