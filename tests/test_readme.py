"""README.md read as a contract with the code. The checks are structural:
each reads a fenced block found by its heading and compares what it names
with the code, never the prose around it."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from webaudit import audit_trace, cli, load_calibration, load_trace
from webaudit.collector import write_trace
from webaudit.synth import build_demo_trace

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading: str) -> list[str]:
    """The lines of the first fenced block under the README heading ``heading``."""
    lines = README.read_text("utf-8").splitlines()
    start = lines.index(heading)
    opening = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
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
