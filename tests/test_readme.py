"""The commands that README shows match the tree: its Scripts block names
exactly the files of scripts/, its Layout block exactly the modules of
src/sphertrans, and each of its sphertrans commands parses."""

import re
import shlex
from pathlib import Path

import pytest

from sphertrans.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent


def _code_block(heading: str) -> list[str]:
    """The lines of the first fenced block under README's `## heading`,
    with each backslash continuation joined to its line."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    block = section.split("```", 2)[1]
    return block.replace("\\\n", " ").splitlines()


def test_the_scripts_block_names_every_script():
    named = {name for line in _code_block("Scripts")
             for name in re.findall(r"scripts/(\S+)", line)}
    assert named == {path.name for path in (ROOT / "scripts").iterdir() if path.is_file()}


def test_the_layout_block_names_every_module():
    named = {name for line in _code_block("Layout")
             for name in re.findall(r"^\s+(\w+\.py)\s", line)}
    modules = {path.name for path in (ROOT / "src" / "sphertrans").glob("*.py")}
    assert named == modules - {"__init__.py"}


@pytest.mark.parametrize("heading", ["CLI", "Scripts"])
def test_every_sphertrans_command_parses(heading):
    commands = [line for line in _code_block(heading) if line.startswith("sphertrans ")]
    assert commands
    for line in commands:
        try:
            _build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README's {heading} block shows a command that does not parse: {line}")
