"""The README's examples, run as written: its Python blocks, and its CLI
commands in process through ``cli.main``, as written and with ``--format
json``; and its Performance ledger, whose rows name code that exists at the
size they give and whose commands run, each in a fresh interpreter."""

import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import iaarank
from iaarank.cli import main

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text(encoding="utf-8")
# The ledger's commands import the same package as this process, installed
# or not, in place of src.
PACKAGE_ROOT = str(Path(iaarank.__file__).resolve().parents[1])


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


def section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


PERFORMANCE = section("Performance")
# one row per mechanism: | # | mechanism [alternative] | where | lines | ... |
LEDGER = [
    [cell.strip() for cell in line.strip("|").split("|")]
    for line in PERFORMANCE.splitlines()
    if re.match(r"\| \d+ \|", line)
]
LEDGER_COMMANDS = [
    line for block in re.findall(r"^```sh\n(.*?)^```", PERFORMANCE, re.M | re.S)
    for line in block.splitlines() if " -m timeit " in line or " -X importtime " in line
]


def test_ledger_holds_the_fifteen_mechanisms():
    assert [row[0] for row in LEDGER] == [str(i) for i in range(1, 16)]
    assert LEDGER_COMMANDS


@pytest.mark.parametrize("row", LEDGER, ids=[row[0] for row in LEDGER])
def test_ledger_row_names_code_that_exists_at_its_size(row):
    # Each object in the "where" column imports: a module's name, or a
    # class's method. Its item in the "lines" column, in the same order and
    # split by "; ", ends in the object's whole length: "43", "3 of 36" for a
    # part of it, or "-17 ..., now 53" for one a mechanism was taken out of.
    names = re.findall(r"`([\w.]+)`", row[2])
    items = row[3].split("; ")
    assert names and len(items) == len(names), row
    for name, item in zip(names, items):
        module, *attributes = name.split(".")
        target = importlib.import_module(f"iaarank.{module}")
        for attribute in attributes:
            target = getattr(target, attribute)
        assert int(re.findall(r"\d+", item)[-1]) == len(inspect.getsourcelines(target)[0]), name


@pytest.mark.parametrize("command", LEDGER_COMMANDS, ids=range(len(LEDGER_COMMANDS)))
def test_ledger_command_runs(command):
    # As a reader runs it from the repository root, in a new interpreter, so
    # no name this suite has already loaded or bound helps it; timeit runs
    # the statement once after its setup.
    words = shlex.split(command)
    if words[0] == "PYTHONPATH=src:tests":
        words = words[1:]
    assert words[0] == "python3", command
    if words[1:3] == ["-m", "timeit"]:
        words[3:3] = ["-n", "1", "-r", "1"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((PACKAGE_ROOT, str(TESTS)))}
    done = subprocess.run([sys.executable, *words[1:]], cwd=TESTS.parent, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
