"""The process entry, `python -m iaarank`: the same exit codes and bytes as
cli.main in process, whole outputs through a pipe and through --output, and
the atexit handlers still run."""

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import iaarank
from iaarank.cli import main

FILMS = ["--input", "films", "--scale-min", "1", "--scale-max", "10"]
# The child imports the same package as this process, installed or not.
PACKAGE_ROOT = str(Path(iaarank.__file__).resolve().parents[1])
TIMEOUT = 120


def child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": PACKAGE_ROOT + (os.pathsep + path if path else "")}


def run_process(*args, code=None):
    """(exit code, stdout bytes, stderr text) of a child Python: `-m iaarank`
    with args, or `-c code` with args as its argv."""
    head = ["-m", "iaarank"] if code is None else ["-c", code]
    done = subprocess.run([sys.executable, *head, *args], capture_output=True,
                          env=child_env(), timeout=TIMEOUT)
    return done.returncode, done.stdout, done.stderr.decode("utf-8")


def run_in_process(*args):
    """(exit code, stdout bytes, stderr text) of cli.main on args."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def write_wide_dataset(path):
    """40 alternatives of 60 distinct continuous intervals each: a build
    --format json of several hundred KB."""
    rng = random.Random(19)
    lines = ["alternative,criterion,source,left,right"]
    for a in range(40):
        for s in range(60):
            left, right = sorted(rng.uniform(0, 10) for _ in range(2))
            lines.append(f"A{a:02d},c,s{s:02d},{left!r},{right!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "args, expected",
    [
        (["rank", *FILMS, "--method", "ideal-ratio", "--format", "json"], 0),
        (["build", "--input", "{missing}", "--scale-min", "1", "--scale-max", "10"], 2),
        (["build", "--input", "films", "--scale-min", "5", "--scale-max", "1"], 3),
        (["rank", *FILMS, "--method", "ideal-ratio", "--measure", "jaccard"], 4),
    ],
    ids=["ok", "missing input", "inverted scale", "undefined ranking"],
)
def test_process_matches_main(tmp_path, args, expected):
    args = [arg.format(missing=tmp_path / "missing.csv") for arg in args]
    result = run_process(*args)
    assert result == run_in_process(*args)
    code, out, err = result
    assert code == expected
    if expected == 0:
        assert out and err == ""
    else:
        assert out == b"" and err.startswith("error: ")


def test_large_output_arrives_whole(tmp_path):
    args = ["build", "--input", write_wide_dataset(tmp_path / "wide.csv"),
            "--scale-min", "0", "--scale-max", "10", "--format", "json"]
    code, expected, err = run_in_process(*args)
    assert (code, err) == (0, "")
    assert len(expected) > 300_000
    assert run_process(*args) == (0, expected, "")
    target = tmp_path / "out.json"
    assert run_process(*args, "--output", str(target)) == (0, b"", "")
    assert target.read_bytes() == expected


def test_atexit_handlers_run_with_the_heap_frozen():
    # The collector stays off until exit, and the exit is a normal one.
    script = (
        "import atexit, gc, sys\n"
        "from iaarank.cli import entry\n"
        "atexit.register(lambda: sys.stderr.write(\n"
        "    f'atexit {gc.isenabled()} {gc.get_freeze_count() > 0}'))\n"
        "entry()\n"
    )
    args = ["similarity", *FILMS, "Film A", "Film B"]
    code, out, err = run_process(*args, code=script)
    assert (code, out, err) == (0, run_in_process(*args)[1], "atexit False True")
