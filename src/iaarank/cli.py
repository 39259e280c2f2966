"""Command-line front end.

Subcommands: build, attributes, similarity, rank, topsis, plotdata. Exit
codes: 0 success, 2 I/O or parse failure, 3 validation failure, 4 undefined
ranking (zero similarity to both ideals under the overlap measure).

A job compiles only the code it runs. A subcommand's handler, with its text
form and the helpers only it uses, is run() in cli_<subcommand>, which _run
imports by the subcommand's name when the job calls it; cli_shared holds
what several handlers share, and cli_csv the CSV writer. A handler reads
each library name it calls off this module at the call
(cli.construct_fuzzy): a name a caller has set here, as the benchmark's
tracer does, wins, and any other falls through to __getattr__ and the
package's lazy exports. Of the library, this module imports only errors,
intervals and fuzzy.

A handler returns (payload, header, rows, text) and never reads --format;
_render writes it: json through _json_text (json.dumps(payload, indent=2)
byte for byte, without the stdlib's pure-Python indent encoder), csv as the
header and the rows (a generator) through cli_csv, and text by calling
text(), or as JSON lines of the payload list where a command has no text
form (build, attributes). plotdata always writes CSV.

main() runs one job: it reads the arguments, runs the handler and maps its
errors to exit codes. One option table (_SHARED and _COMMANDS) holds every
subcommand's flags. _read_argv reads the argv that argparse reads alike on
every supported Python off it, without importing argparse, and
_build_parser builds the argparse parser from it for any argv the reader
declines, so every help text, usage error and exit code is argparse's. The
JSON writer takes its string escaper from _json, the C function json.encoder
binds, and json itself loads only for the JSON-lines form and for values of
other types. It writes stdout inside its error handling, so a
stdout that cannot encode the output exits 2 and writes nothing, and it
never touches the collector. entry(), behind `python -m iaarank` and the
`iaarank` script, runs main() with the cyclic collector off and freezes the
heap before it exits through sys.exit, so atexit handlers run and the
streams flush: a job's data is acyclic and freed by reference counting, so
a collection would free nothing.
"""

from __future__ import annotations

import gc
import sys
import warnings
from _json import encode_basestring_ascii
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

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


def _run(args):
    """Run the handler of the subcommand args name: run(args) of its module,
    cli_<command>, which only a job of that subcommand imports."""
    return import_module(f".cli_{args.command}", __package__).run(args)


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
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_STR = {str}


class _FloatText(dict):
    """float -> its JSON text, made for one _json_text call, so each distinct
    value is formatted once (a build payload holds each breakpoint three
    times: in two regions and in the endpoints). Only finite non-zero values
    become keys: 0.0 and -0.0 are equal keys with different texts, and a NaN
    equals nothing. A NaN or an infinity takes json.dumps's text, through
    _NON_FINITE."""

    def __missing__(self, value: float) -> str:
        text = float.__repr__(value)
        if text in _NON_FINITE:
            return _NON_FINITE[text]
        if value:
            self[value] = text
        return text


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
            import json
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
        import json
        return "".join(json.dumps(record) + "\n" for record in payload)
    return text()


# The option table, which both _read_argv and _build_parser read: each
# subcommand's help and its options after _SHARED's. An option is (flag,
# kind, default, help): kind is str or float for a value, a tuple of its
# choices, bool for a store-true switch, or list for similarity's run of
# positional labels; a default of _REQUIRED makes the flag required.
_REQUIRED = object()
_SHARED = (
    ("--input", str, "films",
     "dataset path, or a bundled name: " + ", ".join(sorted(BUNDLED_DATASETS))),
    ("--scale-min", float, _REQUIRED, None),
    ("--scale-max", float, _REQUIRED, None),
    ("--format", ("text", "json", "csv"), "text", None),
    ("--output", str, None, "write here instead of stdout"),
    ("--epsilon", float, 1e-9, "relative tie tolerance; ties are tolerance clusters"),
)
_COMMANDS = {
    "build": ("emit one fuzzy-number record per cell", ()),
    "attributes": ("emit the attribute vector per cell", ()),
    "similarity": ("similarity between two alternatives, or a matrix", (
        ("labels", list, None, "two alternative labels"),
        ("--measure", MEASURES, "combined", None),
        ("--matrix", bool, False, None),
        ("--criterion", str, None, None),
    )),
    "rank": ("rank the alternatives", (
        ("--method", ("universal", "ideal-ratio", "baseline"), "universal", None),
        ("--measure", MEASURES, "combined", None),
        ("--ideal", str, "auto", "'auto' for scale-extreme ideals, or a dataset file "
         "with alternatives 'best' and 'worst'"),
        ("--criterion", str, None, None),
    )),
    "topsis": ("multi-criteria closeness ranking", (
        ("--measure", SEPARATION_MEASURES, "combined", None),
        ("--weights", str, None, "comma-separated per-criterion weights; write "
         "--weights=-1,1 when the list starts with a minus sign"),
        ("--directions", str, None, "comma-separated per-criterion b|benefit or c|cost"),
        ("--exclude-criterion", str, None, None),
        ("--tie-break-criterion", str, None, None),
    )),
    "plotdata": ("membership profile vertices as CSV", ()),
}


def _dest(flag: str) -> str:
    """The attribute argparse names a flag's value by."""
    return flag.lstrip("-").replace("-", "_")


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace _build_parser().parse_args(argv) returns, for argv that
    argparse reads alike on every supported Python: a subcommand, then its
    exact long flags, each `--flag value` (a value not starting with "-") or
    `--flag=value`, and for similarity one contiguous run of labels. None
    for anything else (help, an abbreviation, an unknown or missing flag, a
    missing value, a value "--", a float or a choice argparse rejects, a
    second run of labels), which argparse then reads or rejects itself."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _SHARED + _COMMANDS[argv[0]][1]
    kinds = {flag: kind for flag, kind, _, _ in options}
    values = {_dest(flag): default for flag, _, default, _ in options}
    values["command"] = argv[0]
    labels = []
    run_end = i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            if "labels" not in kinds or labels and run_end != i - 1:
                return None
            labels.append(token)
            run_end = i
            continue
        flag, eq, value = token.partition("=")
        kind = kinds.get(flag)
        if kind is bool and not eq:
            value = True
        elif kind is None or kind is bool:
            return None
        else:
            if not eq:
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                value = argv[i]
                i += 1
            if value == "--":  # which argparse on 3.11 reads as []
                return None
            if kind is float:
                try:
                    value = float(value)
                except ValueError:
                    return None
            elif kind is not str and value not in kind:
                return None
        values[_dest(flag)] = value
    if "labels" in kinds:
        values["labels"] = labels
    return None if _REQUIRED in values.values() else SimpleNamespace(**values)


def _build_parser():
    """The argparse parser of the option table. It reads the argv that
    _read_argv declines, and writes every help text and usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="iaarank",
        description="Aggregate interval-valued data into fuzzy numbers, "
        "compare them, and rank alternatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=summary)
        for flag, kind, default, text in _SHARED + options:
            if kind is list:
                subparser.add_argument(flag, nargs="*", help=text)
            elif kind is bool:
                subparser.add_argument(flag, action="store_true", help=text)
            else:
                subparser.add_argument(
                    flag, type=float if kind is float else None,
                    choices=kind if type(kind) is tuple else None,
                    default=None if default is _REQUIRED else default,
                    required=default is _REQUIRED, help=text)
    return parser


def main(argv=None) -> int:
    """Run one job on argv (default sys.argv[1:]); return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
            # argparse releases that strip "--" from --input=-- (3.10, 3.11,
            # early 3.12) store []; only similarity's labels are a list.
            for flag, kind, _, _ in _SHARED + _COMMANDS[args.command][1]:
                if kind is not list and type(getattr(args, _dest(flag))) is list:
                    parser.error(f"argument {flag}: expected one argument")
        except SystemExit as exc:
            return int(exc.code or 0)
    fmt = "csv" if args.command == "plotdata" else args.format
    try:
        text = _render(fmt, *_run(args))
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
