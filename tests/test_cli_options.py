"""Every command-line option must be exercised by a test.

An option no test passes is a setting whose effect nothing checks; it can
stop working, or outlive the feature it served, without a failure. The
check is by name: an option string of `cli.build_parser()` counts as
tested when some other module under `tests/` holds it as a string
constant.
"""

import argparse
import ast
from pathlib import Path

import pytest

from lidarcalib import cli

TESTS = Path(__file__).parent


def option_strings() -> set[str]:
    """The option strings of every subcommand, help options left out."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {option for sub in commands.choices.values()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings}


def string_constants() -> set[str]:
    """Every string constant of the test modules but this one."""
    found = set()
    for path in TESTS.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        found.update(node.value for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return found


@pytest.mark.parametrize("option", sorted(option_strings()))
def test_option_is_tested(option):
    assert option in string_constants(), f"no test passes {option}"
