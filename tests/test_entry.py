"""The process entry, `python -m iaarank`: the same exit codes and bytes as
cli.main in process, --help and usage errors included, whole outputs through
a pipe and through --output, the atexit handlers still run, and a job loads
only the modules its subcommand runs and compiles only its own handler and
writer; and the benchmark's tracer, or any
caller that sets a library name on cli, still finds the CLI's library calls
there, while no job writes a name into cli."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import iaarank
from iaarank import cli
from iaarank.cli import main

FILMS = ["--input", "films", "--scale-min", "1", "--scale-max", "10"]
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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
    "args, expected, err_start",
    [
        (["rank", *FILMS, "--method", "ideal-ratio", "--format", "json"], 0, None),
        (["--help"], 0, None),
        (["build", *FILMS, "--bogus"], 2, "usage: iaarank "),
        (["build", "--input", "{missing}", "--scale-min", "1", "--scale-max", "10"], 2,
         "error: "),
        (["build", "--input", "films", "--scale-min", "5", "--scale-max", "1"], 3,
         "error: "),
        (["rank", *FILMS, "--method", "ideal-ratio", "--measure", "jaccard"], 4,
         "error: "),
        (["rank", "--help"], 0, None),
        (["build", "--inp", "films", "--scale-min", "1", "--scale-max", "10"], 0, None),
        (["topsis", *FILMS, "--weights", "-1,1"], 2, "usage: iaarank topsis "),
        (["build", "--input", "films", "--scale-min", "1"], 2, "usage: iaarank build "),
        (["similarity", "X", "--matrix", "Y", *FILMS], 2, "usage: iaarank "),
    ],
    ids=["ok", "--help", "usage error", "missing input", "inverted scale",
         "undefined ranking", "rank --help", "abbreviated flag", "value like a flag",
         "missing required flag", "second run of labels"],
)
def test_process_matches_main(tmp_path, monkeypatch, args, expected, err_start):
    # argparse wraps --help and usage lines to COLUMNS, read on both sides
    monkeypatch.setenv("COLUMNS", "80")
    args = [arg.format(missing=tmp_path / "missing.csv") for arg in args]
    result = run_process(*args)
    assert result == run_in_process(*args)
    code, out, err = result
    assert code == expected
    if err_start is None:
        assert out and err == ""
    else:
        assert out == b"" and err.startswith(err_start)


def test_a_well_formed_job_loads_neither_argparse_nor_json():
    # cli._read_argv reads the job's argv off the option table, and the JSON
    # writer needs only _json's escaper: the job adds neither argparse, nor
    # the gettext and locale its messages load, nor json to what the
    # interpreter had loaded before it.
    script = (
        "import atexit, runpy, sys\n"
        "before = set(sys.modules)\n"
        "atexit.register(lambda: sys.stderr.write(' '.join(\n"
        "    {'argparse', 'gettext', 'locale', 'json'} & set(sys.modules) - before)))\n"
        "runpy.run_module('iaarank', run_name='__main__', alter_sys=True)\n"
    )
    args = ["similarity", "--matrix", "--measure", "combined", "--format", "json", *FILMS]
    code, out, err = run_process(*args, code=script)
    assert (code, out, err) == (0, run_in_process(*args)[1], "")


def test_the_writer_escapes_strings_with_the_stdlibs_function():
    assert cli.encode_basestring_ascii is json.encoder.encode_basestring_ascii


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


def test_stdout_that_cannot_encode_a_label_exits_2(tmp_path):
    # An ASCII stdout (or a cp1252 pipe on Windows) cannot write "é": the job
    # ends in one error line and exit 2, not a traceback, and writes nothing,
    # since the stream encodes the whole text before writing any of it.
    data = tmp_path / "accented.csv"
    data.write_text("alternative,criterion,source,left,right\n"
                    "é,c,s1,1,3\né,c,s2,2,4\nb,c,s1,5,6\n", encoding="utf-8")
    args = ["rank", "--input", str(data), "--scale-min", "0", "--scale-max", "10",
            "--format", "text"]
    env = {**child_env(), "PYTHONIOENCODING": "ascii"}
    done = subprocess.run([sys.executable, "-m", "iaarank", *args], capture_output=True,
                          env=env, timeout=TIMEOUT)
    err = done.stderr.decode("utf-8")
    assert done.returncode == 2
    assert done.stdout == b""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "ascii" in err and "--output writes UTF-8" in err
    target = tmp_path / "out.txt"
    done = subprocess.run([sys.executable, "-m", "iaarank", *args, "--output", str(target)],
                          capture_output=True, env=env, timeout=TIMEOUT)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert target.read_bytes() == run_in_process(*args)[1]
    assert "é".encode("utf-8") in target.read_bytes()


OPTIONAL = {"attributes", "similarity", "ranking", "topsis"}


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["build", *FILMS], set()),
        (["attributes", *FILMS], {"attributes"}),
        (["plotdata", *FILMS], {"attributes"}),
        (["similarity", *FILMS, "Film A", "Film B"], {"attributes", "similarity"}),
        (["similarity", *FILMS, "--matrix"], {"attributes", "similarity"}),
        (["rank", *FILMS, "--method", "ideal-ratio"], {"attributes", "similarity", "ranking"}),
        (["rank", *FILMS, "--method", "universal"], {"attributes", "ranking"}),
        (["rank", *FILMS, "--method", "baseline"], {"ranking"}),
        (["topsis", *FILMS], OPTIONAL),
        (["--help"], set()),
    ],
    ids=["build", "attributes", "plotdata", "similarity pair", "similarity --matrix",
         "rank", "rank universal", "rank baseline", "topsis", "--help"],
)
def test_a_job_loads_only_the_modules_its_subcommand_runs(args, loaded):
    # `python -m iaarank`, run through runpy as -m runs it, lists the
    # package's modules in sys.modules as it exits.
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(' '.join(\n"
        "    m[8:] for m in sys.modules if m.startswith('iaarank.'))))\n"
        "runpy.run_module('iaarank', run_name='__main__', alter_sys=True)\n"
    )
    code, out, err = run_process(*args, code=script)
    assert code == 0 and out
    assert set(err.split()) & OPTIONAL == loaded


def modules_loaded(*args, script=None):
    """(exit code, the names under iaarank. in sys.modules as the child
    exits) of `python -m iaarank` with args, or of a script."""
    script = script or ("import runpy\n"
                        "runpy.run_module('iaarank', run_name='__main__', alter_sys=True)\n")
    head = ("import atexit, sys\n"
            "atexit.register(lambda: sys.stderr.write(' '.join(\n"
            "    m[8:] for m in sys.modules if m.startswith('iaarank.'))))\n")
    code, _, err = run_process(*args, code=head + script)
    return code, set(err.split())


HANDLERS = {"cli_build", "cli_attributes", "cli_similarity", "cli_rank", "cli_topsis",
            "cli_plotdata"}
# the CLI's modules, and the library's paths a valid CSV input skips
CLI_PARTS = HANDLERS | {"cli"}
COLD = {"_rows", "_fuzzy_record"}
JOBS = [
    ["build", "--format", "json"],
    ["attributes", "--format", "json"],
    ["similarity", "Film A", "Film B", "--format", "json"],
    ["similarity", "--matrix", "--format", "json"],
    ["rank", "--method", "ideal-ratio", "--format", "json"],
    ["topsis", "--format", "json"],
    ["plotdata", "--format", "json"],
    ["build", "--format", "csv"],
    ["attributes", "--format", "csv"],
    ["rank", "--method", "baseline", "--format", "csv"],
    ["topsis", "--format", "csv"],
    ["build", "--format", "text"],
    ["similarity", "--matrix", "--format", "text"],
    ["rank", "--method", "universal", "--format", "text"],
    ["topsis", "--format", "text"],
    ["plotdata"],
]


@pytest.mark.parametrize("args", JOBS, ids=" ".join)
def test_a_job_loads_only_cli_and_its_own_handler(args):
    # Whatever its format, a job loads no other subcommand's handler, and a
    # valid CSV input loads neither the loader's JSON and failing-row paths
    # nor the checks of from_dict.
    code, modules = modules_loaded(*args, *FILMS)
    assert code == 0
    assert modules & (CLI_PARTS | COLD) == {"cli", f"cli_{args[0]}"}


def test_help_loads_no_handler():
    code, modules = modules_loaded("--help")
    assert code == 0
    assert modules & (CLI_PARTS | COLD) == {"cli"}


@pytest.mark.parametrize(
    "name, rows, expected",
    [
        ("valid.csv", "alternative,criterion,source,left,right\nA,c,s1,1,2\n", 0),
        ("valid.json", '[{"alternative": "A", "criterion": "c", "source": "s1", '
         '"left": 1, "right": 2}]', 0),
        ("off-scale.csv", "alternative,criterion,source,left,right\nA,c,s1,1,20\n", 3),
        ("non-numeric.csv", "alternative,criterion,source,left,right\nA,c,s1,x,2\n", 2),
        ("off-scale.json", '[{"alternative": "A", "criterion": "c", "source": "s1", '
         '"left": 1, "right": 20}]', 3),
    ],
    ids=["csv", "json", "off-scale row", "non-numeric row", "off-scale json row"],
)
def test_only_a_json_dataset_loads_the_loaders_json_reader(tmp_path, name, rows, expected):
    # a failing CSV row is named by the loader's one check, in intervals
    path = tmp_path / name
    path.write_text(rows, encoding="utf-8")
    code, modules = modules_loaded("build", "--input", str(path), "--scale-min", "0",
                                   "--scale-max", "10", "--format", "json")
    assert code == expected
    assert ("_rows" in modules) == name.endswith(".json")
    assert "_fuzzy_record" not in modules


def test_the_checks_of_from_dict_load_only_when_it_is_called():
    script = (
        "from iaarank import FuzzyNumber, IntervalSet, ScaleConfig, construct_fuzzy\n"
        "scale = ScaleConfig(0, 10)\n"
        "fz = construct_fuzzy(IntervalSet([(1, 2), (2, 3)]), scale)\n"
        "record = fz.to_dict()\n"
        "assert 'iaarank._fuzzy_record' not in sys.modules\n"
        "assert FuzzyNumber.from_dict(record, scale) == fz\n"
    )
    code, modules = modules_loaded(script=script)
    assert code == 0 and "_fuzzy_record" in modules and "_rows" not in modules


@pytest.mark.parametrize(
    "args, ideals, ranked, vectors",
    [
        (["build"], 0, False, 0),
        (["attributes"], 0, False, 1),
        (["plotdata"], 0, False, 0),
        (["similarity", "--matrix"], 0, False, 1),
        (["rank", "--method", "ideal-ratio"], 2, True, 1),
        (["topsis"], 0, False, None),
    ],
    ids=["build", "attributes", "plotdata", "similarity --matrix", "rank", "topsis"],
)
def test_the_tracer_finds_every_library_call(tmp_path, args, ideals, ranked, vectors):
    # perfbench/spans.py sets its span wrappers on cli (load_dataset,
    # construct_fuzzy, attribute_vector, the rankers, ...) and on topsis's
    # construct_fuzzy; a handler reads each name off cli as it calls it, so
    # a call routed around them would count less here. The tracer reads
    # cli.topsis_rank through cli.__getattr__. vectors is the number of
    # attribute vectors per fuzzy number (topsis counts one per separation
    # term, so it is not checked).
    out, report = tmp_path / "out.txt", tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(SPANS), "--out", str(out), "--report", str(report),
         "--mode", "traced", "--", *args, *FILMS],
        capture_output=True, env=child_env(), timeout=TIMEOUT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["exit"] == 0
    assert out.read_bytes() == run_in_process(*args, *FILMS)[1]
    dataset = iaarank.load_dataset(iaarank.bundled_path("films"), iaarank.ScaleConfig(1, 10))
    alternatives = len(dataset.alternatives)
    counts = result["counts"]
    assert counts["intervals.rows"] == sum(cell.n for cell in dataset.cells.values())
    assert counts["fuzzy.cells"] == alternatives * len(dataset.criteria) + ideals
    assert counts.get("ranking.items", 0) == (alternatives if ranked else 0)
    if vectors is not None:
        assert counts["attributes.vectors"] == vectors * counts["fuzzy.cells"]


JOBS = [
    ["build"], ["attributes"], ["plotdata"], ["similarity", "Film A", "Film B"],
    ["similarity", "--matrix"], ["rank", "--method", "ideal-ratio"],
    ["rank", "--method", "universal"], ["rank", "--method", "baseline"], ["topsis"],
]
# The library names the handlers read off cli, served by cli.__getattr__.
LATE_BOUND = {
    "AttributeVector", "attribute_vector", "measure_similarity", "similarity_matrix",
    "rank_baseline_mean", "rank_universal", "rank_by_ideal_ratio", "DecisionMatrix",
    "topsis_rank", "membership_polyline",
}


def test_no_job_writes_a_name_into_cli():
    before = set(vars(cli))
    for args in JOBS:
        code, out, err = run_in_process(*args, *FILMS)
        assert (code, err) == (0, "") and out, args
    assert set(vars(cli)) == before
    assert LATE_BOUND.isdisjoint(vars(cli))


def test_a_name_set_on_cli_is_the_one_a_job_calls(monkeypatch):
    # As the tracer's spans are found, but for names the tracer does not wrap.
    calls = {}

    def counting(name):
        original = getattr(cli, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        return counted

    plotdata = ["plotdata", *FILMS]
    baseline = ["rank", "--method", "baseline", *FILMS]
    expected = [run_in_process(*plotdata), run_in_process(*baseline)]
    # Set in cli's namespace, which the undo then leaves as it was:
    # monkeypatch.setattr would restore the value getattr served, binding it.
    for name in ("membership_polyline", "rank_baseline_mean"):
        monkeypatch.setitem(vars(cli), name, counting(name))
    assert [run_in_process(*plotdata), run_in_process(*baseline)] == expected
    cells = len(iaarank.load_dataset(iaarank.bundled_path("films"),
                                     iaarank.ScaleConfig(1, 10)).cells)
    assert calls == {"membership_polyline": cells, "rank_baseline_mean": 1}
