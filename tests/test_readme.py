"""README.md read as a contract with the code. The checks are structural:
each reads a fenced block found by its heading and compares what it names
with the code, never the prose around it."""

import argparse
import re
from pathlib import Path

import pytest

from webaudit import cli

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
