"""Command-line front end.

Subcommands: build, attributes, similarity, rank, topsis, plotdata. Exit
codes: 0 success, 2 I/O or parse failure, 3 validation failure, 4 undefined
ranking (zero similarity to both ideals under the overlap measure).

Each command returns (payload, header, rows, text) and never reads --format;
one writer, _render, turns that into the output. json writes the payload
through _json_text, which gives json.dumps(payload, indent=2) byte for byte
from one walk that calls itself once per value, without the stdlib's
pure-Python indent encoder; csv writes the header and the rows (a
generator), and text calls text(), or writes the payload list as JSON lines
where a command has no text form (build, attributes). rank and topsis write
a RankingResult: its to_dict is the payload, its entries' _fields the CSV
columns. attributes' columns are AttributeVector's; plotdata always writes CSV.

A job loads only the modules its subcommand runs. This module imports
errors, intervals and fuzzy, and builds each cell's fuzzy number itself with
its construct_fuzzy, in alternatives x criteria order (_numbers). Each
subcommand's parser names the package exports its handler calls (names), and
main binds them as globals here through the package's lazy exports (_bind),
so build loads none of attributes, similarity, ranking and topsis, and only
topsis loads topsis. A name already bound is kept: the benchmark's tracer
reads these globals (an unbound one through this module's __getattr__, which
serves the package's exports) and wraps them in spans before the job runs.

main() is the one runner: it parses the arguments, binds the handler's
names, runs the job and maps its errors to exit codes. entry(), behind
`python -m iaarank` and the `iaarank` script, runs main() with the cyclic
garbage collector off and freezes the heap before it exits. A job's data
(rows, interval sets, fuzzy numbers, attribute vectors, result records) is
acyclic and freed by reference counting, so a collection pass during the job
frees nothing, and the interpreter's final collection skips the frozen heap.
The exit goes through sys.exit, so atexit handlers run and stdout and stderr
are flushed; main() writes and closes --output itself and never touches the
collector. It writes stdout inside its error handling, so a stdout that
cannot encode the output exits 2 and writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import DivisionByZero, IaaRankError, MalformedRow, RaggedCellWarning
from .fuzzy import FuzzyNumber, construct_fuzzy
from .intervals import (
    BUNDLED_DATASETS,
    MEASURES,
    SEPARATION_MEASURES,
    MultiCriteriaDataset,
    ScaleConfig,
    bundled_path,
    ideal_interval_set,
    load_dataset,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_UNDEFINED = 4

_package = sys.modules[__package__]


def _bind(names) -> None:
    """Bind each package export here, loading its module, and keep a name
    already bound: a caller may have replaced it, as the benchmark's tracer
    wraps these globals in spans before the job runs."""
    for name in names:
        globals().setdefault(name, getattr(_package, name))


def __getattr__(name: str):
    if name in _package._EXPORTS:
        return getattr(_package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _path(value: str, flag: str) -> Path:
    """The path a flag names; an empty value, which Path reads as '.', is an
    I/O error naming the flag."""
    if not value:
        raise FileNotFoundError(f"{flag} needs a path, got an empty value")
    return Path(value)


def _read(value: str, flag: str, scale: ScaleConfig) -> MultiCriteriaDataset:
    """The dataset a flag names by path or bundled name. Each warning the
    loader gives (a ragged dataset's) is one `warning:` line on stderr,
    whatever the -W setting."""
    path = bundled_path(value) if value in BUNDLED_DATASETS else _path(value, flag)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RaggedCellWarning)
        dataset = load_dataset(path, scale)
    for warning in caught:
        print(f"warning: {path}: {warning.message}", file=sys.stderr)
    return dataset


def _load(args) -> MultiCriteriaDataset:
    return _read(args.input, "--input", ScaleConfig(args.scale_min, args.scale_max))


def _check_criterion(dataset, flag: str, requested: str) -> None:
    if requested not in dataset.criteria:
        raise ValueError(
            f"{flag}: criterion {requested!r} not in dataset "
            f"(have: {', '.join(dataset.criteria)})"
        )


def _pick_criterion(dataset, requested: str | None) -> str:
    """The requested criterion, or the dataset's only one."""
    if requested is not None:
        _check_criterion(dataset, "--criterion", requested)
        return requested
    if len(dataset.criteria) > 1:
        raise ValueError(
            "dataset has several criteria; select one with --criterion"
        )
    return dataset.criteria[0]


def _auto_ideals(scale, cells) -> tuple[FuzzyNumber, FuzzyNumber]:
    n = max(cell.n for cell in cells)
    best = construct_fuzzy(ideal_interval_set(scale, n, "best"), scale)
    worst = construct_fuzzy(ideal_interval_set(scale, n, "worst"), scale)
    return best, worst


def _file_ideals(path: str, scale: ScaleConfig) -> tuple[FuzzyNumber, FuzzyNumber]:
    dataset = _read(path, "--ideal", scale)
    if set(dataset.alternatives) != {"best", "worst"} or len(dataset.criteria) != 1:
        raise ValueError(
            "ideal file must hold exactly the alternatives 'best' and 'worst' "
            "on a single criterion"
        )
    criterion = dataset.criteria[0]
    return (
        construct_fuzzy(dataset.cell("best", criterion), scale),
        construct_fuzzy(dataset.cell("worst", criterion), scale),
    )


def _check_epsilon(epsilon: float) -> None:
    """--epsilon is read by rank and topsis only; the others ignore it."""
    if epsilon < 0:
        raise ValueError("--epsilon must be non-negative")
    if not math.isfinite(epsilon):
        raise ValueError("--epsilon must be finite")


def _plain(value: float) -> str:
    """A coordinate as text: a whole number below 1e16 as an int, else its repr."""
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def _field(value) -> str:
    """A CSV field: text as is, None empty, a bool in lower case, a number as
    its repr."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _csv_text(header, rows) -> str:
    # With its default "\r\n" row end, csv.writer quotes every field holding
    # "\r" or "\n" (with "\n" alone, Python 3.11 leaves a bare "\r" unquoted);
    # each row end is then cut back to "\n".
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    lines = []
    for row in (header, *rows):
        writer.writerow([_field(value) for value in row])
        lines.append(buffer.getvalue()[:-2] + "\n")
        buffer.seek(0)
        buffer.truncate()
    return "".join(lines)


_CONSTANTS = {True: "true", False: "false", None: "null"}
_STR = {str}


class _FloatText(dict):
    """float -> its JSON text, made for one _json_text call, so each distinct
    value is formatted once (a build payload holds each breakpoint three
    times: in two regions and in the endpoints). Only finite non-zero values
    become keys: 0.0 and -0.0 are equal keys with different texts, and a NaN
    equals nothing; those and the infinities take the stdlib's text each
    time."""

    def __missing__(self, value: float) -> str:
        if 0.0 < abs(value) < math.inf:
            text = self[value] = float.__repr__(value)
            return text
        return json.dumps(value)


def _json_text(value) -> str:
    """json.dumps(value, indent=2), byte for byte.

    With indent, the stdlib encodes in pure Python, formatting every float
    anew through layers of generators. This walk appends pieces to one list:
    dicts with only str keys, lists and tuples by exact type, and the exact
    str, int, float, bool and None leaves, strings through the stdlib's own
    escaper and floats through the call's float cache. Anything else (a
    subclass, a dict with a non-str key, a value json cannot encode) goes to
    json.dumps for its subtree, re-indented to its depth: JSON text holds no
    raw newline but its indentation. An empty container is written here too,
    never by json.dumps, whose indent encoder leaves cyclic garbage behind
    on every call. A cyclic value raises RecursionError where json.dumps
    raises ValueError.
    """
    parts = []
    append = parts.append
    leaf = {
        str: encode_basestring_ascii,
        int: int.__repr__,
        float: _FloatText().__getitem__,
        bool: _CONSTANTS.__getitem__,
        type(None): _CONSTANTS.__getitem__,
    }.get

    def write(value, pad):
        """Append value's text; pad is the newline and indent of its line."""
        kind = type(value)
        text = leaf(kind)
        if text is not None:
            append(text(value))
            return
        inner = pad + "  "
        sep = "," + inner
        if kind is list or kind is tuple:
            lead = "[" + inner
            for item in value:
                append(lead)
                lead = sep
                write(item, inner)
            append(pad + "]" if value else "[]")
        elif kind is dict and _STR.issuperset(map(type, value)):
            lead = "{" + inner
            for key, item in value.items():
                append(f"{lead}{encode_basestring_ascii(key)}: ")
                lead = sep
                write(item, inner)
            append(pad + "}" if value else "{}")
        else:
            append(json.dumps(value, indent=2).replace("\n", pad))

    write(value, "\n")
    return "".join(parts)


def _render(fmt: str, payload, header, rows, text) -> str:
    """The one writer: the payload as JSON, the header and rows as CSV, or
    text(); with no text form, the payload list as JSON lines."""
    if fmt == "json":
        return _json_text(payload) + "\n"
    if fmt == "csv":
        return _csv_text(header, rows)
    if text is None:
        return "".join(json.dumps(record) + "\n" for record in payload)
    return text()


def _numbers(dataset) -> dict[tuple[str, str], FuzzyNumber]:
    """Each cell's fuzzy number by (alternative, criterion), built in
    alternatives x criteria order."""
    scale = dataset.scale
    return {
        (alternative, criterion): construct_fuzzy(dataset.cell(alternative, criterion), scale)
        for alternative in dataset.alternatives
        for criterion in dataset.criteria
    }


def _cell_records(args, payload) -> list[dict]:
    """One record per dataset cell: its alternative, criterion and payload(fz)."""
    return [
        {"alternative": alternative, "criterion": criterion, **payload(fz)}
        for (alternative, criterion), fz in _numbers(_load(args)).items()
    ]


def cmd_build(args):
    records = _cell_records(args, FuzzyNumber.to_dict)
    rows = (
        (r["alternative"], r["criterion"], _plain(left), _plain(right), height)
        for r in records
        for left, right, height in r["regions"]
    )
    return records, ("alternative", "criterion", "left", "right", "height"), rows, None


def cmd_attributes(args):
    records = _cell_records(args, lambda fz: attribute_vector(fz).to_dict())
    header = ("alternative", "criterion", "q1", "q2", "q3", "q4", "q5",
              *AttributeVector._fields[1:])
    # each record's values are the alternative, the criterion, then the
    # vector's fields in _fields order, quartiles first
    rows = (
        (alternative, criterion, *quartiles, *rest)
        for alternative, criterion, quartiles, *rest in map(dict.values, records)
    )
    return records, header, rows, None


def _matrix_text(labels, matrix) -> str:
    width = max(len(label) for label in labels)
    columns = [max(6, len(label)) for label in labels]
    lines = [" " * width + "  " + "  ".join(
        f"{label:>{column}}" for label, column in zip(labels, columns))]
    for label, row in zip(labels, matrix):
        lines.append(f"{label:<{width}}  " + "  ".join(
            f"{v:{column}.4f}" for v, column in zip(row, columns)))
    return "\n".join(lines) + "\n"


def cmd_similarity(args):
    dataset = _load(args)
    criterion = _pick_criterion(dataset, args.criterion)
    if args.matrix:
        if args.labels:
            raise ValueError("similarity --matrix takes no alternative labels")
        labels = list(dataset.alternatives)
        column = [construct_fuzzy(cell, dataset.scale)
                  for cell in dataset.column(criterion)]
        matrix = similarity_matrix(args.measure, column)
        return (
            {"measure": args.measure, "labels": labels, "matrix": matrix},
            ("label", *labels),
            ((label, *row) for label, row in zip(labels, matrix)),
            lambda: _matrix_text(labels, matrix),
        )
    if len(args.labels) != 2:
        raise ValueError("similarity needs two alternative labels or --matrix")
    first, second = args.labels
    for label in (first, second):
        if label not in dataset.alternatives:
            raise ValueError(f"unknown alternative {label!r}")
    a, b = (construct_fuzzy(dataset.cell(label, criterion), dataset.scale)
            for label in (first, second))
    value = measure_similarity(args.measure, a, b)
    return (
        {"measure": args.measure, "a": first, "b": second, "similarity": value},
        ("a", "b", "measure", "similarity"),
        ((first, second, args.measure, value),),
        lambda: f"{value:.4f}\n",
    )


def _ranked(result, text):
    """A RankingResult: its to_dict, and one CSV row per entry in the entries'
    _fields order (order_and_rank refuses an empty list, so entries[0] exists)."""
    return (result.to_dict(), result.entries[0]._fields,
            (e._values() for e in result.entries), lambda: text(result))


def _ranking_text(result) -> str:
    width = max(len("label"), *(len(e.label) for e in result.entries))
    lines = [f"{'label':<{width}}  {'score':>8}  rank"]
    for e in result.entries:
        score = "-" if e.score is None else f"{e.score:.4f}"
        lines.append(f"{e.label:<{width}}  {score:>8}  {e.rank:>4}")
    return "\n".join(lines) + "\n"


def cmd_rank(args):
    _check_epsilon(args.epsilon)
    dataset = _load(args)
    cells = dataset.column(_pick_criterion(dataset, args.criterion))
    if args.method == "baseline":
        result = rank_baseline_mean(cells)
    else:
        numbers = [construct_fuzzy(cell, dataset.scale) for cell in cells]
        if args.method == "universal":
            result = rank_universal(numbers, args.epsilon)
        else:
            if args.ideal == "auto":
                best, worst = _auto_ideals(dataset.scale, cells)
            else:
                best, worst = _file_ideals(args.ideal, dataset.scale)
            result = rank_by_ideal_ratio(
                numbers,
                best,
                worst,
                measure=args.measure,
                epsilon=args.epsilon,
            )
    return _ranked(result, _ranking_text)


def _topsis_text(result) -> str:
    lines = []
    for ideal in result.ideals:
        note = " (degenerate)" if ideal.degenerate else ""
        lines.append(
            f"criterion {ideal.criterion}: PIS={ideal.pis.label} "
            f"NIS={ideal.nis.label}{note}"
        )
    width = max(len("label"), *(len(e.label) for e in result.entries))
    lines.append(f"{'label':<{width}}  {'D+':>8}  {'D-':>8}  {'CC':>8}  rank")
    for e in result.entries:
        flag = " *" if e.degenerate else ""
        lines.append(
            f"{e.label:<{width}}  {e.d_plus:8.4f}  {e.d_minus:8.4f}  "
            f"{e.closeness:8.4f}  {e.rank:>4}{flag}"
        )
    return "\n".join(lines) + "\n"


def _check_count(flag: str, values: tuple, criteria: tuple[str, ...]) -> None:
    """A list flag gives one value per ranked criterion, none for an excluded one."""
    count, wanted = len(values), len(criteria)
    if count != wanted:
        raise ValueError(
            f"{flag}: {count} {'value' if count == 1 else 'values'} for {wanted} "
            f"{'criterion' if wanted == 1 else 'criteria'} ({', '.join(criteria)})"
        )


def cmd_topsis(args):
    _check_epsilon(args.epsilon)
    dataset = _load(args)
    if args.exclude_criterion is not None:
        _check_criterion(dataset, "--exclude-criterion", args.exclude_criterion)
        dataset = dataset.without_criterion(args.exclude_criterion)
    if args.tie_break_criterion is not None:
        if args.tie_break_criterion == args.exclude_criterion:
            raise ValueError(
                f"--tie-break-criterion: criterion {args.tie_break_criterion!r} "
                "was removed by --exclude-criterion"
            )
        _check_criterion(dataset, "--tie-break-criterion", args.tie_break_criterion)
    weights = None
    if args.weights is not None:
        try:
            weights = tuple(float(part) for part in args.weights.split(","))
        except ValueError as exc:  # float's message quotes the bad part
            raise ValueError(f"--weights: {exc}") from None
    directions = None
    if args.directions is not None:
        mapping = {"b": "benefit", "c": "cost", "benefit": "benefit", "cost": "cost"}
        try:
            directions = tuple(
                mapping[part.strip().lower()] for part in args.directions.split(",")
            )
        except KeyError as exc:
            raise ValueError(
                f"--directions: unknown direction {exc.args[0]!r}"
            ) from None
    for flag, values in (("--weights", weights), ("--directions", directions)):
        if values is not None:
            _check_count(flag, values, dataset.criteria)
    matrix = DecisionMatrix.from_dataset(dataset, weights, directions)
    result = topsis_rank(
        matrix,
        measure=args.measure,
        epsilon=args.epsilon,
        tie_break_criterion=args.tie_break_criterion,
    )
    return _ranked(result, _topsis_text)


def cmd_plotdata(args):
    """CSV only: main renders it as CSV whatever --format says."""
    rows = (
        (alternative, criterion, _plain(x), _plain(mu))
        for (alternative, criterion), fz in _numbers(_load(args)).items()
        for x, mu in membership_polyline(fz)
    )
    return None, ("alternative", "criterion", "x", "mu"), rows, None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--input",
        default="films",
        help="dataset path, or a bundled name: " + ", ".join(sorted(BUNDLED_DATASETS)),
    )
    common.add_argument("--scale-min", type=float, required=True)
    common.add_argument("--scale-max", type=float, required=True)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", default=None, help="write here instead of stdout")
    common.add_argument("--epsilon", type=float, default=1e-9,
                        help="relative tie tolerance; ties are tolerance clusters")
    common.set_defaults(names=())  # the package exports the handler calls

    parser = argparse.ArgumentParser(
        prog="iaarank",
        description="Aggregate interval-valued data into fuzzy numbers, "
        "compare them, and rank alternatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[common],
                             help="emit one fuzzy-number record per cell")
    p_build.set_defaults(handler=cmd_build)

    p_attr = sub.add_parser("attributes", parents=[common],
                            help="emit the attribute vector per cell")
    p_attr.set_defaults(handler=cmd_attributes,
                        names=("AttributeVector", "attribute_vector"))

    p_sim = sub.add_parser("similarity", parents=[common],
                           help="similarity between two alternatives, or a matrix")
    p_sim.add_argument("labels", nargs="*", help="two alternative labels")
    p_sim.add_argument("--measure", choices=MEASURES, default="combined")
    p_sim.add_argument("--matrix", action="store_true")
    p_sim.add_argument("--criterion", default=None)
    p_sim.set_defaults(handler=cmd_similarity,
                       names=("measure_similarity", "similarity_matrix"))

    p_rank = sub.add_parser("rank", parents=[common], help="rank the alternatives")
    p_rank.add_argument("--method", choices=("universal", "ideal-ratio", "baseline"),
                        default="universal")
    p_rank.add_argument("--measure", choices=MEASURES, default="combined")
    p_rank.add_argument("--ideal", default="auto",
                        help="'auto' for scale-extreme ideals, or a dataset file "
                        "with alternatives 'best' and 'worst'")
    p_rank.add_argument("--criterion", default=None)
    p_rank.set_defaults(handler=cmd_rank, names=(
        "rank_baseline_mean", "rank_by_ideal_ratio", "rank_universal"))

    p_topsis = sub.add_parser("topsis", parents=[common],
                              help="multi-criteria closeness ranking")
    p_topsis.add_argument("--measure", choices=SEPARATION_MEASURES, default="combined")
    p_topsis.add_argument("--weights", default=None,
                          help="comma-separated per-criterion weights; write "
                          "--weights=-1,1 when the list starts with a minus sign")
    p_topsis.add_argument("--directions", default=None,
                          help="comma-separated per-criterion b|benefit or c|cost")
    p_topsis.add_argument("--exclude-criterion", default=None)
    p_topsis.add_argument("--tie-break-criterion", default=None)
    p_topsis.set_defaults(handler=cmd_topsis,
                          names=("DecisionMatrix", "topsis_rank"))

    p_plot = sub.add_parser("plotdata", parents=[common],
                            help="membership profile vertices as CSV")
    p_plot.set_defaults(handler=cmd_plotdata, names=("membership_polyline",))

    return parser


def main(argv=None) -> int:
    """Run one job on argv (default sys.argv[1:]); return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _bind(args.names)
    fmt = "csv" if args.handler is cmd_plotdata else args.format
    try:
        text = _render(fmt, *args.handler(args))
        if args.output is not None:
            _path(args.output, "--output").write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except DivisionByZero as exc:
        print(f"error: undefined ranking: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except UnicodeEncodeError as exc:  # stdout encodes all the text before writing any
        print(f"error: stdout's encoding ({sys.stdout.encoding}) cannot encode "
              f"{exc.object[exc.start:exc.end]!a}; --output writes UTF-8",
              file=sys.stderr)
        return EXIT_IO
    except (OSError, MalformedRow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (IaaRankError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def entry() -> None:
    """Run main() with the collector off, freeze the heap, and exit with its
    code through sys.exit, which keeps the atexit handlers and the flushes of
    stdout and stderr."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
