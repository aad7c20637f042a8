"""The README's CLI block, library entry points and algorithm list match the code."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from reebdraw import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the section ``heading``."""
    return re.search(rf"```{lang}\n(.*?)```", README[README.index(heading):], re.S).group(1)


def test_every_cli_line_parses():
    parser = cli.build_parser()
    lines = code_block("## CLI", "sh").splitlines()
    assert len(lines) > 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "reebdraw", line
        parser.parse_args(argv[1:])


def test_library_entry_points_import():
    exec(code_block("## Library entry points", "python"), {})


def test_documented_algorithms_are_the_cli_choices():
    documented = re.search(r"`layout --algorithm` accepts `([^`]*)`", README).group(1)
    assert sorted(a.strip() for a in documented.split("|")) == sorted(cli._ALGORITHMS)
