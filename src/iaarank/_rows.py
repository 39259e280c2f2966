"""The loader's rows off its common path, which only a job that takes that
path imports: the rows of a JSON dataset, the error of a row that fails
load_dataset's guard, and the error of a cell that repeats a source."""

import json
from operator import itemgetter
from pathlib import Path

from .errors import InvertedBounds, MalformedInterval, MalformedRow, OutOfScale
from .intervals import DATASET_HEADER, ScaleConfig, _interval_bounds


def read_json_rows(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8-sig") as handle:  # a leading BOM is dropped
        text = handle.read()
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise MalformedRow(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, list):
        raise MalformedRow(f"{path}: expected a JSON array of row objects")
    rows = []
    for index, entry in enumerate(payload, start=1):
        if not isinstance(entry, dict) or set(DATASET_HEADER) - set(entry):
            raise MalformedRow(
                f"{path} row {index}: expected keys {', '.join(DATASET_HEADER)}",
                line=index,
            )
        left, right = entry["left"], entry["right"]
        # json.loads gives a JSON number as an exact int or float; a bool is
        # an int subclass, so exact types keep true and false out.
        if type(left) not in (int, float) or type(right) not in (int, float):
            raise MalformedRow(
                f"{path} row {index}: bounds must be numbers, got "
                f"({left!r}, {right!r})",
                line=index,
            )
        labels = tuple(entry[key] for key in DATASET_HEADER[:3])
        if not all(type(label) is str for label in labels):
            raise MalformedRow(
                f"{path} row {index}: labels must be strings, got "
                f"{', '.join(map(repr, labels))}",
                line=index,
            )
        try:
            "".join(labels).encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate escape, "\ud800"
            raise MalformedRow(
                f"{path} row {index}: labels must be valid Unicode text", line=index
            ) from exc
        rows.append((index, *labels, left, right))
    return rows


def reject_row(path: Path, line_no: int, left, right, scale: ScaleConfig) -> None:
    """Raise the error of a row that failed the loader's guard.

    Reruns the full checks in their documented order: conversion to float,
    finiteness and order (_interval_bounds), then the scale, which a row
    passing the first three must fail, as the guard tests the same floats.
    """
    try:
        left, right = _interval_bounds(left, right)
    except (TypeError, ValueError) as exc:
        raise MalformedRow(
            f"{path} line {line_no}: non-numeric bound ({left!r}, {right!r})",
            line=line_no,
        ) from exc
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise MalformedRow(
            f"{path} line {line_no}: bound beyond the float range", line=line_no
        ) from exc
    except InvertedBounds as exc:
        raise InvertedBounds(f"{path} line {line_no}: {exc}", line=line_no) from exc
    except MalformedInterval as exc:
        raise MalformedRow(f"{path} line {line_no}: {exc}", line=line_no) from exc
    raise OutOfScale(
        f"{path} line {line_no}: interval [{left}, {right}] outside scale "
        f"[{scale.scale_min}, {scale.scale_max}]",
        line=line_no,
    )


def reject_repeat(path: Path, rows: list[tuple], alternative: str, criterion: str) -> None:
    """Raise the error of a cell that names a source twice: the first repeat
    in the cell's rows sorted stably by source, with the line it repeats."""
    members = sorted(
        ((source, line_no) for line_no, row_alternative, row_criterion, source, *_ in rows
         if row_alternative == alternative and row_criterion == criterion),
        key=itemgetter(0),
    )
    for (source, first), (again, line_no) in zip(members, members[1:]):
        if source == again:
            raise MalformedRow(
                f"{path} line {line_no}: repeats source {source!r} of line "
                f"{first} for alternative {alternative!r}, criterion "
                f"{criterion!r}",
                line=line_no,
            )
