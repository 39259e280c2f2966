"""cli._read_argv against argparse: argv drawn from the option table, well
formed or not, is either declined (None) or read to exactly the namespace
_build_parser().parse_args gives it; and the benchmark's jobs and the
README's commands are read, not declined, so a silent fall-back to argparse
fails here. Then cli.main on argv drawn from the same table and a fixed set
of hostile inputs: no exception escapes it, and it exits 0, 2, 3 or 4 with
one error line or argparse's usage, or with JSON that holds only finite
numbers, except on O's inputs near the top of the float range."""

import atexit
import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from iaarank.cli import _COMMANDS, _REQUIRED, _SHARED, _build_parser, _read_argv, main
from test_readme import COMMANDS as README_COMMANDS
from workload_inputs import WORKLOADS

FLAGS = sorted({flag for _, options in _COMMANDS.values()
                for flag, *_ in _SHARED + options if flag.startswith("--")})
# values the reader must read, or decline, as argparse would
TRICKY = ["", "--", "-", "-1", "-1,1", "-x", "--input", "nan", "-nan", "inf", "1e400",
          " 1 ", "1_0", "0x1", "a=b", "a b", "films", "json", "é"]
NOISE = ["-h", "--help", "--he", "--inp", "--scale", "--bogus", "--", "-", "-x",
         "--format=", "--matrix=1"]


def same(read, parsed):
    """vars() equal, each value of the same type, a NaN equal to a NaN."""
    return read.keys() == parsed.keys() and all(
        type(read[key]) is type(parsed[key])
        and (read[key] == parsed[key]
             or type(read[key]) is float and math.isnan(read[key]) and math.isnan(parsed[key]))
        for key in read)


def value_for(kind):
    if kind is float:
        return st.floats(min_value=0).map(repr) | st.integers(0, 20).map(str)
    if kind is str:
        return st.text(max_size=4)
    return st.sampled_from(kind)


def as_tokens(flag, value):
    """`--flag value` or `--flag=value`."""
    return st.sampled_from([[flag, value], [f"{flag}={value}"]])


LABELS = st.lists(st.text(alphabet="AB é=", max_size=3), min_size=1, max_size=3)
# one each: a noise token, a flag given a tricky value, a flag given no
# value, and a run of labels
FAULTS = st.one_of(
    st.sampled_from(NOISE).map(lambda token: [token]),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(TRICKY)).flatmap(lambda fv: as_tokens(*fv)),
    st.sampled_from(FLAGS).map(lambda flag: [flag]),
    LABELS,
)


@st.composite
def argvs(draw):
    """A subcommand and its options, each flag in either form; similarity's
    labels before, between or after them; then up to two faults, placed
    anywhere."""
    command = draw(st.sampled_from([*_COMMANDS, "similarity", "simil", "--help"]))
    options = _SHARED + _COMMANDS.get(command, ("", ()))[1]
    items = []
    for flag, kind, default, _ in options:
        if kind is list:
            items += draw(st.lists(LABELS, max_size=1))
        elif kind is bool:
            items += draw(st.lists(st.just([flag]), max_size=2))
        else:
            # a required flag is mostly given once; the others mostly not at all
            counts = [1, 1, 1, 1, 0, 2] if default is _REQUIRED else [0, 0, 1, 2]
            for _ in range(draw(st.sampled_from(counts))):
                items.append(draw(value_for(kind).flatmap(lambda value: as_tokens(flag, value))))
    items += draw(st.lists(FAULTS, max_size=2))
    return [command] + [token for item in draw(st.permutations(items)) for token in item]


@settings(max_examples=600, deadline=None)
@given(argvs())
@example(["similarity", "A", "--input", "films", "B", "--scale-min", "1", "--scale-max", "2"])
@example(["similarity", "--criterion", "c", "A", "B", "--scale-min", "1", "--scale-max", "2"])
@example(["build", "--input=--", "--scale-min", "1", "--scale-max", "2"])
@example(["build", "--input", "", "--scale-min=-1", "--scale-max", "nan", "--format=csv"])
@example(["rank", "--scale-min", "1", "--scale-max", "2", "--method", "x"])
@example(["similarity", "--scale-min", "1", "--scale-max", "2", "--matrix", "--matrix"])
@example(["topsis", "--scale-min", "1", "--scale-max", "2", "--weights", "-1,1"])
def test_a_namespace_read_is_the_one_argparse_parses(argv):
    read = _read_argv(argv)
    if read is not None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parsed = _build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse rejects what the reader read: {err.getvalue()}")
        assert same(vars(read), vars(parsed)), (vars(read), vars(parsed))


SCALE = ["--scale-min", "0", "--scale-max", "10"]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", *SCALE, "--inp", "films"],
        ["build", *SCALE, "--help"],
        ["build", *SCALE, "--format", "xml"],
        ["build", *SCALE, "--epsilon", "x"],
        ["build", *SCALE, "--output"],
        ["build", "--scale-min", "0"],
        ["build", *SCALE, "--input=--"],
        ["build", *SCALE, "--", "x"],
        ["build", *SCALE, "X"],
        ["topsis", *SCALE, "--weights", "-1,1"],
        ["similarity", *SCALE, "A", "--matrix", "B"],
        ["similarity", *SCALE, "--matrix=1"],
        ["simil", *SCALE],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no argv",
)
def test_what_the_reader_leaves_to_argparse(argv):
    assert _read_argv(argv) is None


JOBS = [workload.argv("dataset.csv") for workload in WORKLOADS.values()]
JOBS += [argv for command in README_COMMANDS for argv in (command, [*command, "--format", "json"])]


@pytest.mark.parametrize("argv", JOBS, ids=[" ".join(argv[:2]) for argv in JOBS])
def test_every_benchmark_job_and_readme_command_is_read(argv):
    read = _read_argv(argv)
    assert read is not None
    assert same(vars(read), vars(_build_parser().parse_args(argv)))


# An option given "--" with "=": argparse releases that strip the "--"
# (3.10, 3.11 and early 3.12) leave the flag no value, and later ones keep
# "--" as its value, which main takes for no value. Either way it is a usage
# error under the subcommand's usage: a text flag's "expected one argument"
# on every Python, and where argparse keeps the "--", a float or a choice
# flag's own invalid-value message (None: the same on every Python).
STRIPS = _build_parser().parse_args(["build", "--input=--", *SCALE]).input == []
FLOAT, CHOICE = "invalid float value: '--'", "invalid choice: '--'"
DASH_DASH = [
    (["build", "--input=--", *SCALE], "--input", None),
    (["build", "--scale-min=--", "--scale-max", "10"], "--scale-min", FLOAT),
    (["build", "--scale-min", "0", "--scale-max=--"], "--scale-max", FLOAT),
    (["rank", *SCALE, "--epsilon=--"], "--epsilon", FLOAT),
    (["topsis", *SCALE, "--epsilon=--"], "--epsilon", FLOAT),
    (["topsis", *SCALE, "--weights=--"], "--weights", None),
    (["topsis", *SCALE, "--directions=--"], "--directions", None),
    (["rank", *SCALE, "--criterion=--"], "--criterion", None),
    (["rank", *SCALE, "--ideal=--"], "--ideal", None),  # universal never reads it
    (["build", *SCALE, "--output=--"], "--output", None),
    (["topsis", *SCALE, "--exclude-criterion=--"], "--exclude-criterion", None),
    (["topsis", *SCALE, "--tie-break-criterion=--"], "--tie-break-criterion", None),
    (["build", *SCALE, "--format=--"], "--format", CHOICE),
    (["rank", *SCALE, "--method=--"], "--method", CHOICE),
]


@pytest.mark.parametrize("argv, flag, kept", DASH_DASH,
                         ids=[f"{argv[0]} {flag}=--" for argv, flag, _ in DASH_DASH])
def test_a_dash_dash_value_is_a_usage_error(tmp_path, monkeypatch, argv, flag, kept):
    monkeypatch.chdir(tmp_path)  # --output=-- must not write a file named "--"
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 2 and not out.getvalue() and not list(tmp_path.iterdir())
    assert err.getvalue().startswith(f"usage: iaarank {argv[0]} ")
    if kept is None or STRIPS:
        assert err.getvalue().endswith(f"error: argument {flag}: expected one argument\n")
    else:
        assert f"\niaarank {argv[0]}: error: argument {flag}: {kept}" in err.getvalue()


# U's property: any argv drawn from the option table, on any of a fixed set
# of hostile inputs, ends in exit 0, 2, 3 or 4 with no exception out of main.
FOLDER = Path(tempfile.mkdtemp(prefix="iaarank-argv-"))
atexit.register(shutil.rmtree, FOLDER, True)
HEADER = "alternative,criterion,source,left,right\n"
GOOD = "A,c1,s1,1,3\nA,c1,s2,2,5\nA,c2,s1,4,6\nA,c2,s2,5,9\n" \
       "B,c1,s1,6,8\nB,c1,s2,7,9\nB,c2,s1,1,2\nB,c2,s2,2,4\n"
# O's inputs, whose intermediates overflow: wide bounds on a scale near the
# top of the float range
WIDE = "A,c1,s1,-1e308,1e308\nA,c1,s2,-5e307,9e307\nB,c1,s1,-1e308,1e307\nB,c1,s2,1e306,1e308\n"
HOSTILE = {
    "good.csv": (HEADER + GOOD).encode(),
    "empty.csv": b"",
    "header.csv": HEADER.encode(),
    "bom.csv": ("\ufeff" + HEADER + GOOD).encode(),
    "crlf.csv": (HEADER + GOOD).replace("\n", "\r\n").encode(),
    "latin1.csv": (HEADER + GOOD.replace("A,", "\xe9,")).encode("latin-1"),
    "nan.csv": (HEADER + GOOD + "C,c1,s1,nan,2\n").encode(),
    "inf.csv": (HEADER + GOOD + "C,c1,s1,1,inf\n").encode(),
    "reversed.csv": (HEADER + GOOD + "C,c1,s1,5,2\n").encode(),
    "repeat.csv": (HEADER + GOOD + "A,c1,s1,1,2\n").encode(),
    "ragged.csv": (HEADER + GOOD + "A,c1,s3,1,2\n").encode(),
    "short.csv": (HEADER + GOOD + "C,c1,s1,2\n").encode(),
    "long.csv": (HEADER + GOOD + "C,c1,s1,2,3,4\n").encode(),
    "missing-cell.csv": (HEADER + GOOD + "C,c1,s1,2,3\n").encode(),
    "newline.csv": (HEADER + GOOD + '"C\nD",c1,s1,2,3\n"C\nD",c2,s1,2,3\n').encode(),
    "bad.json": b'[{"alternative": "A"',
    "types.json": b'[{"alternative": "A", "criterion": "c1", "source": "s1", "left": "1", "right": true}]',
    "good.json": json.dumps([dict(zip(HEADER.strip().split(","), row.split(",")[:3]),
                                  left=float(row.split(",")[3]), right=float(row.split(",")[4]))
                             for row in GOOD.splitlines()]).encode(),
    "wide.csv": (HEADER + WIDE).encode(),
}
for name, content in HOSTILE.items():
    (FOLDER / name).write_bytes(content)
(FOLDER / "ideals.csv").write_text(HEADER + "best,c1,s1,10,10\nworst,c1,s1,0,0\n", encoding="utf-8")
(FOLDER / "folder").mkdir()
# Each option's values: those that make a job run, first, then the others,
# which a draw adds as at most two faults, each after the flag's first value.
FILES = [str(FOLDER / name) for name in [*HOSTILE, "folder", "missing.csv"]]
READABLE = [str(FOLDER / name) for name in ("good.csv", "bom.csv", "crlf.csv", "good.json",
                                            "ragged.csv")] + ["films", "synthetic-3x2"]
VALUES = {
    "--input": (READABLE, FILES + ["", "--"]),
    "--ideal": (["auto", str(FOLDER / "ideals.csv")], FILES + ["", "--"]),
    "--output": ([str(FOLDER / "out.txt")], [str(FOLDER / "missing" / "out.txt"), "", "--"]),
    "--criterion": (["c1", "c2"], ["overall", "nope", "", "--"]),
    "--exclude-criterion": (["c1"], ["c2", "nope", "", "--"]),
    "--tie-break-criterion": (["c2"], ["c1", "nope", "", "--"]),
    "--weights": (["1,1", "1,2"], ["1", "-1,1", "0,0", "a,b", "1e308,1e308", "nan,1", "", "--"]),
    "--directions": (["b,c", "benefit,cost"], ["c", "x,b", "", "--"]),
    "--scale-min": (["0", "1"], []),
    "--scale-max": (["10"], []),
    "--epsilon": (["1e-9", "0.5", "0"], []),
}
# any float flag's faults keep O's bounds near the top of the float range
FLOAT_FAULTS = ["-1", "0.5", "11", "1e-300", "nan", "inf", "1e309", "x", "", "-1.7e308",
                "1.7e308", "--"]


def pools(flag, kind):
    """(the values that make a job run, the others) of one option."""
    if type(kind) is tuple:
        return list(kind), ["x", "", "--"]
    valid, faults = VALUES[flag]
    return valid, faults + FLOAT_FAULTS if kind is float else faults


@st.composite
def jobs(draw):
    """A subcommand, each of its options given a working value, and two
    labels or --matrix for similarity; then up to two faults, each a flag
    given a value that fails or a pair of labels more or less, in any
    order."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    options = _SHARED + _COMMANDS[command][1]
    items, faults = [], []
    for flag, kind, default, _ in options:
        if kind is list:
            items.append(draw(st.sampled_from([["A", "B"], ["--matrix"]])))
            faults.append(st.lists(st.sampled_from(["A", "X", "C\nD", ""]), max_size=2))
            continue
        if kind is bool:
            faults.append(st.just([flag]))
            continue
        valid, bad = pools(flag, kind)
        if default is _REQUIRED or draw(st.booleans()):
            items.append(draw(st.sampled_from(valid).flatmap(lambda v, f=flag: as_tokens(f, v))))
        faults.append(st.sampled_from(valid + bad).flatmap(lambda v, f=flag: as_tokens(f, v)))
    items += draw(st.lists(st.one_of(faults), max_size=2))
    return [command] + [token for item in draw(st.permutations(items)) for token in item]


def no_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def known_overflow(argv):
    """O's inputs: bounds, a scale or weights near the top of the float range."""
    return any("wide.csv" in token or "e308" in token for token in argv)


@settings(max_examples=300, deadline=None)
@given(jobs())
def test_no_argv_ends_in_a_traceback(argv):
    output = FOLDER / "out.txt"
    output.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
    if code:
        usage = lines[0].startswith("usage: iaarank") and ": error: " in err.getvalue()
        assert usage or len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        return
    assert not lines, err.getvalue()
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    text = output.read_text(encoding="utf-8") if args.output else out.getvalue()
    if args.command == "plotdata" or args.format == "csv":
        return
    records = [text] if args.format == "json" else text.splitlines() \
        if args.command in ("build", "attributes") else []
    try:
        for record in records:
            json.loads(record, parse_constant=no_constant)
    except ValueError:
        if not known_overflow(argv):
            raise
        event("O's known overflow (test_near_the_top_of_the_float_range_json_is_finite)")


WIDE_SCALE = ["--input", str(FOLDER / "wide.csv"), "--scale-min=-1.7e308", "--scale-max", "1.7e308"]


@pytest.mark.xfail(strict=True, reason="O: intermediates overflow near the top of the "
                   "float range, and the JSON holds NaN or Infinity")
@pytest.mark.parametrize("argv", [
    ["attributes", *WIDE_SCALE],
    ["rank", "--method", "ideal-ratio", *WIDE_SCALE],
    ["similarity", "--matrix", *WIDE_SCALE],
    ["topsis", *WIDE_SCALE],
    ["rank", "--method", "ideal-ratio", "--input", str(FOLDER / "good.csv"),
     "--scale-min=-1.7e308", "--scale-max", "10"],
], ids=["attributes", "rank", "similarity", "topsis", "rank on a wide scale"])
def test_near_the_top_of_the_float_range_json_is_finite(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--format", "json"]) == 0
    json.loads(out.getvalue(), parse_constant=no_constant)
