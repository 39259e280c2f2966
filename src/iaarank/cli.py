"""Command-line front end.

Subcommands: build, attributes, similarity, rank, topsis, plotdata. Exit
codes: 0 success, 2 I/O or parse failure, 3 validation failure, 4 undefined
ranking (zero similarity to both ideals under the overlap measure).

A job compiles only the code it runs. A subcommand's handler, with its text
form and the helpers only it uses, is run() in cli_<subcommand>, which
args.handler imports when the job calls it; cli_shared holds what several
handlers share, and cli_csv the CSV writer. A handler reads each library
name it calls off this module at the call (cli.construct_fuzzy): a name a
caller has set here, as the benchmark's tracer does, wins, and any other
falls through to __getattr__ and the package's lazy exports. Of the
library, this module imports only errors, intervals and fuzzy.

A handler returns (payload, header, rows, text) and never reads --format;
_render writes it: json through _json_text (json.dumps(payload, indent=2)
byte for byte, without the stdlib's pure-Python indent encoder), csv as the
header and the rows (a generator) through cli_csv, and text by calling
text(), or as JSON lines of the payload list where a command has no text
form (build, attributes). plotdata always writes CSV.

main() runs one job: it parses the arguments, runs the handler and maps its
errors to exit codes. It writes stdout inside its error handling, so a
stdout that cannot encode the output exits 2 and writes nothing, and it
never touches the collector. entry(), behind `python -m iaarank` and the
`iaarank` script, runs main() with the cyclic collector off and freezes the
heap before it exits through sys.exit, so atexit handlers run and the
streams flush: a job's data is acyclic and freed by reference counting, so
a collection would free nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import warnings
from importlib import import_module
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import DivisionByZero, IaaRankError, MalformedRow, RaggedCellWarning
# a global here, read off cli by the handlers, so the tracer and tests patch it here
from .fuzzy import construct_fuzzy
from .intervals import (
    BUNDLED_DATASETS,
    MEASURES,
    SEPARATION_MEASURES,
    MultiCriteriaDataset,
    ScaleConfig,
    bundled_path,
    load_dataset,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_UNDEFINED = 4

_package = sys.modules[__package__]


def __getattr__(name: str):
    if name in _package._EXPORTS:
        return getattr(_package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _handler(command: str):
    """A subcommand's handler: run(args) of its module, cli_<command>, which
    only a job of that subcommand imports."""
    def handler(args):
        return import_module(f".cli_{command}", __package__).run(args)
    return handler


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
        from .cli_csv import csv_text
        return csv_text(header, rows)
    if text is None:
        return "".join(json.dumps(record) + "\n" for record in payload)
    return text()


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

    parser = argparse.ArgumentParser(
        prog="iaarank",
        description="Aggregate interval-valued data into fuzzy numbers, "
        "compare them, and rank alternatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[common],
                             help="emit one fuzzy-number record per cell")
    p_build.set_defaults(handler=_handler("build"))

    p_attr = sub.add_parser("attributes", parents=[common],
                            help="emit the attribute vector per cell")
    p_attr.set_defaults(handler=_handler("attributes"))

    p_sim = sub.add_parser("similarity", parents=[common],
                           help="similarity between two alternatives, or a matrix")
    p_sim.add_argument("labels", nargs="*", help="two alternative labels")
    p_sim.add_argument("--measure", choices=MEASURES, default="combined")
    p_sim.add_argument("--matrix", action="store_true")
    p_sim.add_argument("--criterion", default=None)
    p_sim.set_defaults(handler=_handler("similarity"))

    p_rank = sub.add_parser("rank", parents=[common], help="rank the alternatives")
    p_rank.add_argument("--method", choices=("universal", "ideal-ratio", "baseline"),
                        default="universal")
    p_rank.add_argument("--measure", choices=MEASURES, default="combined")
    p_rank.add_argument("--ideal", default="auto",
                        help="'auto' for scale-extreme ideals, or a dataset file "
                        "with alternatives 'best' and 'worst'")
    p_rank.add_argument("--criterion", default=None)
    p_rank.set_defaults(handler=_handler("rank"))

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
    p_topsis.set_defaults(handler=_handler("topsis"))

    p_plot = sub.add_parser("plotdata", parents=[common],
                            help="membership profile vertices as CSV")
    p_plot.set_defaults(handler=_handler("plotdata"))

    return parser


def main(argv=None) -> int:
    """Run one job on argv (default sys.argv[1:]); return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fmt = "csv" if args.command == "plotdata" else args.format
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
