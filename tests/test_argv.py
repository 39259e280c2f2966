"""cli._read_argv against argparse: argv drawn from the option table, well
formed or not, is either declined (None) or read to exactly the namespace
_build_parser().parse_args gives it; and the benchmark's jobs and the
README's commands are read, not declined, so a silent fall-back to argparse
fails here."""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iaarank.cli import _COMMANDS, _REQUIRED, _SHARED, _build_parser, _read_argv
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
