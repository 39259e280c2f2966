"""Command-line front end.

Subcommands: build, attributes, similarity, rank, topsis, plotdata. Exit
codes: 0 success, 2 I/O or parse failure, 3 validation failure, 4 undefined
ranking (zero similarity to both ideals under the overlap measure).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from .attributes import attribute_vector, membership_polyline
from .errors import DivisionByZero, IaaRankError, MalformedInterval, MalformedRow
from .fuzzy import FuzzyNumber, construct_fuzzy
from .intervals import (
    BUNDLED_DATASETS,
    MultiCriteriaDataset,
    ScaleConfig,
    bundled_path,
    ideal_interval_set,
    load_dataset,
)
from .ranking import rank_baseline_mean, rank_by_ideal_ratio, rank_universal
from .similarity import MEASURES, measure_similarity, similarity_matrix
from .topsis import SEPARATION_MEASURES, DecisionMatrix, topsis_rank

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_UNDEFINED = 4

def _resolve_input(value: str) -> Path:
    if value in BUNDLED_DATASETS:
        return bundled_path(value)
    return Path(value)


def _load(args) -> MultiCriteriaDataset:
    scale = ScaleConfig(args.scale_min, args.scale_max)
    return load_dataset(_resolve_input(args.input), scale)


def _pick_criterion(dataset, requested: str | None) -> MultiCriteriaDataset:
    """The dataset narrowed to the requested criterion, or to its only one."""
    if requested is not None:
        if requested not in dataset.criteria:
            raise ValueError(
                f"criterion {requested!r} not in dataset "
                f"(have: {', '.join(dataset.criteria)})"
            )
        return dataset.only_criterion(requested)
    if len(dataset.criteria) > 1:
        raise ValueError(
            "dataset has several criteria; select one with --criterion"
        )
    return dataset


def _auto_ideals(dataset, criterion) -> tuple[FuzzyNumber, FuzzyNumber]:
    n = max(cell.n for cell in dataset.column(criterion))
    best = construct_fuzzy(ideal_interval_set(dataset.scale, n, "best"), dataset.scale)
    worst = construct_fuzzy(ideal_interval_set(dataset.scale, n, "worst"), dataset.scale)
    return best, worst


def _file_ideals(path: str, scale: ScaleConfig) -> tuple[FuzzyNumber, FuzzyNumber]:
    dataset = load_dataset(_resolve_input(path), scale)
    if set(dataset.alternatives) != {"best", "worst"} or len(dataset.criteria) != 1:
        raise ValueError(
            "ideal file must hold exactly the alternatives 'best' and 'worst' "
            "on a single criterion"
        )
    criterion = dataset.criteria[0]
    return (
        construct_fuzzy(dataset.cell("best", criterion), scale, label="ideal best"),
        construct_fuzzy(dataset.cell("worst", criterion), scale, label="ideal worst"),
    )


def _check_epsilon(epsilon: float) -> None:
    """--epsilon is read by rank and topsis only; the others ignore it."""
    if epsilon < 0:
        raise ValueError("--epsilon must be non-negative")
    if not math.isfinite(epsilon):
        raise ValueError("--epsilon must be finite")


def _plain(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _json_lines(records) -> str:
    return "".join(json.dumps(record) + "\n" for record in records)


def _csv_text(header, rows) -> str:
    # With its default "\r\n" row end, csv.writer quotes every field holding
    # "\r" or "\n" (with "\n" alone, Python 3.11 leaves a bare "\r" unquoted);
    # each row end is then cut back to "\n".
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    lines = []
    for row in (header, *rows):
        writer.writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
        buffer.seek(0)
        buffer.truncate()
    return "".join(lines)


def _cell_records(args, payload) -> list[dict]:
    """One record per dataset cell: its alternative, criterion and payload(fz)."""
    matrix = DecisionMatrix.from_dataset(_load(args))
    return [
        {"alternative": alternative, "criterion": criterion, **payload(fz)}
        for (alternative, criterion), fz in matrix.cells.items()
    ]


def cmd_build(args) -> str:
    records = _cell_records(args, FuzzyNumber.to_dict)
    if args.format == "json":
        return _json_text(records)
    if args.format == "csv":
        rows = [
            (r["alternative"], r["criterion"], _plain(l), _plain(rt), repr(h))
            for r in records
            for l, rt, h in r["regions"]
        ]
        return _csv_text(("alternative", "criterion", "left", "right", "height"), rows)
    return _json_lines(records)


def cmd_attributes(args) -> str:
    records = _cell_records(args, lambda fz: attribute_vector(fz).to_dict())
    if args.format == "json":
        return _json_text(records)
    if args.format == "csv":
        rows = [
            (
                r["alternative"],
                r["criterion"],
                *(repr(q) for q in r["quartiles"]),
                repr(r["centroid_x"]),
                repr(r["centroid_y"]),
                repr(r["area"]),
                repr(r["height"]),
                repr(r["perimeter"]),
                repr(r["agreement_ratio"]),
            )
            for r in records
        ]
        header = (
            "alternative", "criterion", "q1", "q2", "q3", "q4", "q5",
            "centroid_x", "centroid_y", "area", "height", "perimeter",
            "agreement_ratio",
        )
        return _csv_text(header, rows)
    return _json_lines(records)


def cmd_similarity(args) -> str:
    dataset = _pick_criterion(_load(args), args.criterion)
    column = DecisionMatrix.from_dataset(dataset).column(dataset.criteria[0])
    numbers = dict(zip(dataset.alternatives, column))
    if args.matrix:
        labels = list(dataset.alternatives)
        matrix = similarity_matrix(args.measure, column)
        if args.format == "json":
            return _json_text(
                {"measure": args.measure, "labels": labels, "matrix": matrix}
            )
        if args.format == "csv":
            rows = [
                (label, *(repr(v) for v in row)) for label, row in zip(labels, matrix)
            ]
            return _csv_text(("label", *labels), rows)
        width = max(len(label) for label in labels)
        lines = [" " * width + "  " + "  ".join(f"{label:>6}" for label in labels)]
        for label, row in zip(labels, matrix):
            lines.append(
                f"{label:<{width}}  " + "  ".join(f"{v:6.4f}" for v in row)
            )
        return "\n".join(lines) + "\n"
    if len(args.labels) != 2:
        raise ValueError("similarity needs two alternative labels or --matrix")
    first, second = args.labels
    for label in (first, second):
        if label not in numbers:
            raise ValueError(f"unknown alternative {label!r}")
    value = measure_similarity(args.measure, numbers[first], numbers[second])
    if args.format == "json":
        return _json_text(
            {"measure": args.measure, "a": first, "b": second, "similarity": value}
        )
    if args.format == "csv":
        return _csv_text(("a", "b", "measure", "similarity"),
                         [(first, second, args.measure, repr(value))])
    return f"{value:.4f}\n"


def _render_ranking(result, fmt: str) -> str:
    if fmt == "json":
        return _json_text(result.to_dict())
    if fmt == "csv":
        rows = [
            (
                e.label,
                "" if e.score is None else repr(e.score),
                str(e.rank),
            )
            for e in result.entries
        ]
        return _csv_text(("label", "score", "rank"), rows)
    width = max(len(e.label) for e in result.entries)
    lines = [f"{'label':<{width}}  {'score':>8}  rank"]
    for e in result.entries:
        score = "-" if e.score is None else f"{e.score:.4f}"
        lines.append(f"{e.label:<{width}}  {score:>8}  {e.rank:>4}")
    return "\n".join(lines) + "\n"


def cmd_rank(args) -> str:
    _check_epsilon(args.epsilon)
    dataset = _pick_criterion(_load(args), args.criterion)
    criterion = dataset.criteria[0]
    if args.method == "baseline":
        result = rank_baseline_mean(dataset.column(criterion))
    else:
        numbers = DecisionMatrix.from_dataset(dataset).column(criterion)
        if args.method == "universal":
            result = rank_universal(numbers, args.epsilon)
        else:
            if args.ideal == "auto":
                best, worst = _auto_ideals(dataset, criterion)
            else:
                best, worst = _file_ideals(args.ideal, dataset.scale)
            result = rank_by_ideal_ratio(
                numbers,
                best,
                worst,
                measure=args.measure,
                epsilon=args.epsilon,
            )
    return _render_ranking(result, args.format)


def cmd_topsis(args) -> str:
    _check_epsilon(args.epsilon)
    dataset = _load(args)
    if args.exclude_criterion:
        dataset = dataset.without_criterion(args.exclude_criterion)
    weights = None
    if args.weights:
        weights = tuple(float(part) for part in args.weights.split(","))
    directions = None
    if args.directions:
        mapping = {"b": "benefit", "c": "cost", "benefit": "benefit", "cost": "cost"}
        try:
            directions = tuple(
                mapping[part.strip().lower()] for part in args.directions.split(",")
            )
        except KeyError as exc:
            raise ValueError(f"unknown direction {exc.args[0]!r}") from None
    matrix = DecisionMatrix.from_dataset(dataset, weights, directions)
    result = topsis_rank(
        matrix,
        measure=args.measure,
        epsilon=args.epsilon,
        tie_break_criterion=args.tie_break_criterion,
    )
    if args.format == "json":
        return _json_text(result.to_dict())
    if args.format == "csv":
        rows = [
            (
                e.label,
                repr(e.d_plus),
                repr(e.d_minus),
                repr(e.closeness),
                str(e.rank),
                str(e.degenerate).lower(),
            )
            for e in result.entries
        ]
        return _csv_text(
            ("label", "d_plus", "d_minus", "closeness", "rank", "degenerate"), rows
        )
    lines = []
    for ideal in result.ideals:
        note = " (degenerate)" if ideal.degenerate else ""
        lines.append(
            f"criterion {ideal.criterion}: PIS={ideal.pis_label} "
            f"NIS={ideal.nis_label}{note}"
        )
    width = max(len(e.label) for e in result.entries)
    lines.append(f"{'label':<{width}}  {'D+':>8}  {'D-':>8}  {'CC':>8}  rank")
    for e in result.entries:
        flag = " *" if e.degenerate else ""
        lines.append(
            f"{e.label:<{width}}  {e.d_plus:8.4f}  {e.d_minus:8.4f}  "
            f"{e.closeness:8.4f}  {e.rank:>4}{flag}"
        )
    return "\n".join(lines) + "\n"


def cmd_plotdata(args) -> str:
    matrix = DecisionMatrix.from_dataset(_load(args))
    rows = [
        (alternative, criterion, _plain(x), _plain(mu))
        for (alternative, criterion), fz in matrix.cells.items()
        for x, mu in membership_polyline(fz)
    ]
    return _csv_text(("alternative", "criterion", "x", "mu"), rows)


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
    p_build.set_defaults(handler=cmd_build)

    p_attr = sub.add_parser("attributes", parents=[common],
                            help="emit the attribute vector per cell")
    p_attr.set_defaults(handler=cmd_attributes)

    p_sim = sub.add_parser("similarity", parents=[common],
                           help="similarity between two alternatives, or a matrix")
    p_sim.add_argument("labels", nargs="*", help="two alternative labels")
    p_sim.add_argument("--measure", choices=MEASURES, default="combined")
    p_sim.add_argument("--matrix", action="store_true")
    p_sim.add_argument("--criterion", default=None)
    p_sim.set_defaults(handler=cmd_similarity)

    p_rank = sub.add_parser("rank", parents=[common], help="rank the alternatives")
    p_rank.add_argument("--method", choices=("universal", "ideal-ratio", "baseline"),
                        default="universal")
    p_rank.add_argument("--measure", choices=MEASURES, default="combined")
    p_rank.add_argument("--ideal", default="auto",
                        help="'auto' for scale-extreme ideals, or a dataset file "
                        "with alternatives 'best' and 'worst'")
    p_rank.add_argument("--criterion", default=None)
    p_rank.set_defaults(handler=cmd_rank)

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
    p_topsis.set_defaults(handler=cmd_topsis)

    p_plot = sub.add_parser("plotdata", parents=[common],
                            help="membership profile vertices as CSV")
    p_plot.set_defaults(handler=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.handler(args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
    except DivisionByZero as exc:
        print(f"error: undefined ranking: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (OSError, MalformedRow, MalformedInterval) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (IaaRankError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not args.output:
        sys.stdout.write(text)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
