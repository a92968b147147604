"""The ``repro`` command-line surface, pinned.

``tests/data/cli_surface.json`` lists, for every command (``""`` is the
bare single-client form), each option string with its default, type,
choices, nargs and const.  It was recorded from the per-command parsers
that preceded the single parser tree, so a refactor of the tree cannot
add, drop or re-default a flag unnoticed.  A deliberate surface change
updates the file in the same commit.

The CI workflow's ``python -m repro.cli`` invocations are parsed here
too (without running them), so a change that breaks one fails locally.
"""

import argparse
import json
import re
import shlex
import textwrap
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main, parse_args

ROOT = Path(__file__).resolve().parents[1]
SURFACE = ROOT / "tests" / "data" / "cli_surface.json"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _options(parser: argparse.ArgumentParser) -> dict:
    out = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        record = {
            "default": action.default,
            "type": getattr(action.type, "__name__", None),
            "choices": (
                list(action.choices) if action.choices is not None else None
            ),
            "nargs": action.nargs,
            "const": action.const,
            "required": action.required,
        }
        out["/".join(action.option_strings) or action.dest] = {
            key: value
            for key, value in record.items()
            if key == "default" or value not in (None, False)
        }
    return out


def _command_parsers() -> dict:
    """Command name -> parser, for every command of the tree."""
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


class TestSurface:
    def test_every_option_and_default_is_unchanged(self):
        expected = json.loads(SURFACE.read_text())
        actual = {
            name: _options(parser)
            for name, parser in _command_parsers().items()
        }
        assert sorted(actual) == sorted(expected)
        for name in expected:
            assert actual[name] == expected[name], name

    def test_command_words_match_the_tree(self):
        words = {name.split(" ")[0] for name in _command_parsers()}
        assert words == {"", *COMMANDS}

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert re.search(rf"^\s+{name}\s", out, re.M), name
        assert "bench serve" in out
        # the bare single-client form is still documented
        assert "[client]" in out and "--show-abstraction" in out

    def test_readme_command_map_matches_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        text = build_parser().format_help()
        block = text.split("  COMMAND\n", 1)[1].split("\n\n", 1)[0]
        assert textwrap.dedent(block) in (ROOT / "README.md").read_text()

    def test_parse_error_is_a_usage_error_exit(self, capsys):
        assert main(["batch", "--jobs", "many"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: repro batch: argument --jobs")


def _ci_invocations():
    """Each non-comment ``python -m repro.cli`` line of the CI workflow,
    with backslash continuations joined."""
    text = CI_WORKFLOW.read_text().replace("\\\n", " ")
    return [
        line.strip()
        for line in text.splitlines()
        if "python -m repro.cli" in line
        and not line.strip().startswith("#")
    ]


CI_INVOCATIONS = _ci_invocations()


class TestCiInvocations:
    def test_ci_invokes_the_cli(self):
        assert len(CI_INVOCATIONS) >= 10

    @pytest.mark.parametrize(
        "line",
        CI_INVOCATIONS,
        ids=[
            f"{i}-{line.split('repro.cli ')[1].split()[0]}"
            for i, line in enumerate(CI_INVOCATIONS)
        ],
    )
    def test_ci_invocation_parses(self, line):
        match = re.fullmatch(r"(?:timeout \d+ )?python -m repro\.cli (.*)", line)
        assert match, f"unrecognized CI invocation: {line!r}"
        argv = shlex.split(match.group(1))
        expected = "bench serve" if argv[:2] == ["bench", "serve"] else argv[0]
        args = parse_args(argv)
        assert args.command == expected
        assert callable(args.run)
