"""The README's examples, run as written: its Python blocks, and its CLI
commands in process through ``cli.main``, as written and with ``--format
json``."""

import json
import re
import shlex
from pathlib import Path

import pytest

from iaarank.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


PYTHON_BLOCKS = blocks("python")
COMMANDS = [
    shlex.split(line)[1:]
    for block in blocks("sh")
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("iaarank ")
]


def test_readme_holds_two_python_blocks_and_eight_commands():
    assert len(PYTHON_BLOCKS) == 2
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=["quickstart", "multi-criteria"])
def test_python_block_runs(capsys, source):
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(COMMANDS)]
)
def test_command_runs(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
    if argv[0] != "plotdata":  # plotdata writes CSV whatever --format says
        assert main([*argv, "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)
