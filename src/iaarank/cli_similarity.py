"""The similarity subcommand: one pair's similarity, or the matrix of a
criterion's alternatives."""

from . import cli
from .cli import pick_criterion


def _matrix_text(labels, matrix) -> str:
    width = max(len(label) for label in labels)
    columns = [max(6, len(label)) for label in labels]
    lines = [" " * width + "  " + "  ".join(
        f"{label:>{column}}" for label, column in zip(labels, columns))]
    for label, row in zip(labels, matrix):
        lines.append(f"{label:<{width}}  " + "  ".join(
            f"{v:{column}.4f}" for v, column in zip(row, columns)))
    return "\n".join(lines) + "\n"


def run(args):
    dataset = cli._load(args)
    criterion = pick_criterion(dataset, args.criterion)
    if args.matrix:
        if args.labels:
            raise ValueError("similarity --matrix takes no alternative labels")
        labels = list(dataset.alternatives)
        column = [cli.construct_fuzzy(cell, dataset.scale)
                  for cell in dataset.column(criterion)]
        matrix = cli.similarity_matrix(args.measure, column)
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
    a, b = (cli.construct_fuzzy(dataset.cell(label, criterion), dataset.scale)
            for label in (first, second))
    value = cli.measure_similarity(args.measure, a, b)
    return (
        {"measure": args.measure, "a": first, "b": second, "similarity": value},
        ("a", "b", "measure", "similarity"),
        ((first, second, args.measure, value),),
        lambda: f"{value:.4f}\n",
    )
