"""Every fenced ``python`` block of README.md runs as written, and every
``twindom`` command of its ``sh`` blocks parses, so a name or a flag the
package no longer has cannot survive in the documentation."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from twindom import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def _twindom_words(part: str) -> list[str]:
    """The words of a ``twindom`` command, from ``twindom`` on, whether it
    is run as ``twindom`` or as ``python -m twindom``; else none."""
    words = shlex.split(part, comments=True)
    if words[:3] == ["python", "-m", "twindom"]:
        words = words[2:]
    return words if words[:1] == ["twindom"] else []


# the twindom commands of the sh blocks, split at pipes, less # comments
COMMANDS = [words for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.splitlines() for part in line.split("|")
            if (words := _twindom_words(part))]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_cli_commands():
    assert len(COMMANDS) >= 14


@pytest.mark.parametrize("words", COMMANDS, ids=[" ".join(w[1:]) for w in COMMANDS])
def test_cli_command_parses(words):
    cli.build_parser().parse_args(words[1:])
