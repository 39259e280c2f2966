"""Crisp intervals, interval sets, measurement scales, and dataset loading.

An interval set aggregates one closed interval per source (one expert, one
observation, ...). Duplicate intervals are kept: the set is a multiset and
downstream membership counts depend on multiplicity. Datasets are long-format
tables mapping (alternative, criterion) pairs to interval sets on a shared,
explicitly configured scale.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections import defaultdict
from collections.abc import Iterable, Mapping
from operator import itemgetter
from pathlib import Path

from ._record import Record
from .errors import (
    EmptyDataset,
    InvertedBounds,
    MalformedInterval,
    MalformedRow,
    OutOfScale,
    RaggedCellWarning,
    ZeroSources,
)

DATASET_HEADER = ("alternative", "criterion", "source", "left", "right")

BUNDLED_DATASETS = {
    "films": "films.csv",
    "synthetic-3x2": "synthetic_3x2.csv",
}


def _interval_bounds(left, right) -> tuple[float, float]:
    """[left, right] as two floats: both finite, left <= right, else the error."""
    left, right = float(left), float(right)
    if not (math.isfinite(left) and math.isfinite(right)):
        raise MalformedInterval(
            f"interval bounds must be finite, got [{left}, {right}]"
        )
    if left > right:
        raise InvertedBounds(f"left bound {left} exceeds right bound {right}")
    return left, right


class ScaleConfig(Record):
    """Measurement scale; every interval must lie within [scale_min, scale_max]."""

    _fields = ("scale_min", "scale_max")

    def __init__(self, scale_min: float, scale_max: float):
        scale_min, scale_max = float(scale_min), float(scale_max)
        if not (math.isfinite(scale_min) and math.isfinite(scale_max)):
            raise ValueError("scale bounds must be finite")
        if scale_min >= scale_max:
            raise ValueError(
                f"scale_min must be strictly below scale_max, got "
                f"[{scale_min}, {scale_max}]"
            )
        super().__init__(scale_min, scale_max)

    @property
    def range(self) -> float:
        return self.scale_max - self.scale_min


class IntervalSet(Record):
    """Multiset of intervals gathered for one alternative.

    Built from (left, right) pairs, one per source, and stored as two float
    columns in source order, ``lefts`` and ``rights``: non-empty, of equal
    length, finite, each left bound at most its right one. A caller of the
    unchecked ``_from_fields`` vouches for these.
    """

    _fields = ("lefts", "rights", "label")

    def __init__(self, intervals: Iterable[tuple[float, float]], label: str = ""):
        pairs = [_interval_bounds(left, right) for left, right in intervals]
        if not pairs:
            raise ZeroSources(f"interval set {label!r} has no intervals")
        lefts, rights = zip(*pairs)
        super().__init__(lefts, rights, label)

    @property
    def n(self) -> int:
        return len(self.lefts)


def ideal_interval_set(scale: ScaleConfig, n: int, which: str) -> IntervalSet:
    """n sources all giving the scale maximum ("best") or minimum ("worst")."""
    if n < 1:
        raise ZeroSources("ideal interval set needs at least one source")
    if which not in ("best", "worst"):
        raise ValueError(f"which must be 'best' or 'worst', got {which!r}")
    values = (scale.scale_max if which == "best" else scale.scale_min,) * n
    return IntervalSet._from_fields(values, values, f"ideal {which}")


def midpoint_mean(interval_set: IntervalSet) -> float:
    """Mean of interval midpoints: the traditional preprocessing baseline."""
    total = 0.0
    for left, right in zip(interval_set.lefts, interval_set.rights):
        total += (left + right) / 2
    return total / interval_set.n


class MultiCriteriaDataset(Record):
    """Alternatives x criteria grid of interval sets on one scale."""

    _fields = ("alternatives", "criteria", "cells", "scale")

    def __init__(self, alternatives: Iterable[str], criteria: Iterable[str],
                 cells: Mapping[tuple[str, str], IntervalSet], scale: ScaleConfig):
        alternatives, criteria, cells = tuple(alternatives), tuple(criteria), dict(cells)
        for alternative in alternatives:
            for criterion in criteria:
                if (alternative, criterion) not in cells:
                    raise MalformedRow(
                        f"missing cell for alternative {alternative!r}, "
                        f"criterion {criterion!r}"
                    )
        super().__init__(alternatives, criteria, cells, scale)

    def cell(self, alternative: str, criterion: str) -> IntervalSet:
        return self.cells[(alternative, criterion)]

    def column(self, criterion: str) -> list[IntervalSet]:
        """Cells of one criterion in alternative order."""
        if criterion not in self.criteria:
            raise KeyError(f"unknown criterion {criterion!r}")
        return [self.cells[(alt, criterion)] for alt in self.alternatives]

    def only_criterion(self, criterion: str) -> MultiCriteriaDataset:
        """The single-criterion dataset of one column."""
        cells = {
            (alt, criterion): cell
            for alt, cell in zip(self.alternatives, self.column(criterion))
        }
        return MultiCriteriaDataset(self.alternatives, (criterion,), cells, self.scale)

    def without_criterion(self, criterion: str) -> MultiCriteriaDataset:
        if criterion not in self.criteria:
            raise KeyError(f"unknown criterion {criterion!r}")
        kept = tuple(c for c in self.criteria if c != criterion)
        if not kept:
            raise EmptyDataset("excluding the only criterion leaves no data")
        cells = {
            key: value for key, value in self.cells.items() if key[1] != criterion
        }
        return MultiCriteriaDataset(self.alternatives, kept, cells, self.scale)


def _read_csv_rows(path: Path) -> list[tuple[int, str, str, str, str, str]]:
    """(line, alternative, criterion, source, left, right) of each data row.

    The labels are stripped; the bounds are not, because float ignores the
    whitespace around a number (load_dataset strips them if they fail)."""
    rows = []
    width = len(DATASET_HEADER)
    # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header = None
        reader = csv.reader(handle)
        start = 1  # physical line on which the next record starts
        try:
            for record in reader:
                line_no, start = start, reader.line_num + 1
                if header is not None and len(record) == width:
                    alternative, criterion, source, left, right = record
                    alternative = alternative.strip()
                    criterion = criterion.strip()
                    source = source.strip()
                    # a row of blank fields is skipped like a blank line
                    if alternative or criterion or source or (left + right).strip():
                        rows.append((line_no, alternative, criterion, source, left, right))
                    continue
                if not "".join(record).strip():
                    continue
                if header is None:
                    header = tuple(cell.strip().lower() for cell in record)
                    if header != DATASET_HEADER:
                        raise MalformedRow(
                            f"{path}: expected header {','.join(DATASET_HEADER)}, "
                            f"got {','.join(header)}",
                            line=line_no,
                        )
                    continue
                raise MalformedRow(
                    f"{path} line {line_no}: expected {width} fields, got {len(record)}",
                    line=line_no,
                )
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise MalformedRow(f"{path} line {start}: {exc}", line=start) from exc
    return rows


def _read_json_rows(path: Path) -> list[tuple]:
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


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled example dataset ('films', 'synthetic-3x2')."""
    try:
        filename = BUNDLED_DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown bundled dataset {name!r}; choose from "
            f"{sorted(BUNDLED_DATASETS)}"
        ) from None
    return Path(__file__).parent / "data" / filename


def _checked_bounds(path: Path, line_no: int, left, right, scale: ScaleConfig,
                    strip: bool) -> tuple[float, float]:
    """The bounds of a row that failed the loader's guard, or the row's error.

    Reruns the full checks in their documented order: conversion to float,
    finiteness and order (_interval_bounds), then the scale. With strip, as
    for a CSV row, the bounds are stripped first, so the messages show them
    stripped; a bound padded with one of the separators "\\x1c" to "\\x1f",
    which str.strip removes and float does not, passes here.
    """
    if strip:
        left, right = left.strip(), right.strip()
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
    if not (scale.scale_min <= left and right <= scale.scale_max):
        raise OutOfScale(
            f"{path} line {line_no}: interval [{left}, {right}] outside scale "
            f"[{scale.scale_min}, {scale.scale_max}]",
            line=line_no,
        )
    return left, right


def load_dataset(path: str | Path, scale: ScaleConfig) -> MultiCriteriaDataset:
    """Load a long-format CSV (or JSON mirror) dataset and validate it.

    Rows are grouped per (alternative, criterion) cell and ordered by source
    label inside each cell; a source repeated within a cell is a MalformedRow
    naming both lines. Alternatives and criteria keep first-appearance order.
    Each row is checked once: both bounds finite, left <= right, and both on
    the scale; each cell's bounds are stored as two float columns. Differing
    source counts across one alternative's criteria raise a RaggedCellWarning
    only: the aggregation accepts any number of sources per cell.
    """
    path = Path(path)
    from_csv = path.suffix.lower() != ".json"
    read_rows = _read_csv_rows if from_csv else _read_json_rows
    try:
        raw_rows = read_rows(path)
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text ({exc})") from exc
    if not raw_rows:
        raise EmptyDataset(f"{path} contains no data rows")

    scale_min, scale_max = scale.scale_min, scale.scale_max
    grouped: defaultdict[tuple[str, str], list] = defaultdict(list)
    for line_no, alternative, criterion, source, left, right in raw_rows:
        try:
            lo, hi = float(left), float(right)
        except (TypeError, ValueError, OverflowError):
            lo = hi = math.nan
        # A NaN or infinite bound fails the guard too: the scale is finite.
        if not scale_min <= lo <= hi <= scale_max:
            lo, hi = _checked_bounds(path, line_no, left, right, scale, from_csv)
        grouped[(alternative, criterion)].append((source, line_no, lo, hi))

    # Each alternative and criterion first appears with its first cell.
    alternatives = tuple(dict.fromkeys(alternative for alternative, _ in grouped))
    criteria = tuple(dict.fromkeys(criterion for _, criterion in grouped))
    cells = {}
    for (alternative, criterion), members in grouped.items():
        members.sort(key=itemgetter(0))
        sources, _, lefts, rights = zip(*members)
        if len(set(sources)) < len(sources):
            for (source, first, *_), (again, line_no, *_) in zip(members, members[1:]):
                if source == again:
                    raise MalformedRow(
                        f"{path} line {line_no}: repeats source {source!r} of line "
                        f"{first} for alternative {alternative!r}, criterion "
                        f"{criterion!r}",
                        line=line_no,
                    )
        cells[(alternative, criterion)] = IntervalSet._from_fields(
            lefts, rights, alternative
        )

    for alternative in alternatives:
        counts = {
            criterion: cells[(alternative, criterion)].n
            for criterion in criteria
            if (alternative, criterion) in cells
        }
        if len(set(counts.values())) > 1:
            warnings.warn(
                f"alternative {alternative!r} has differing source counts "
                f"across criteria: {counts}",
                RaggedCellWarning,
                stacklevel=2,
            )

    return MultiCriteriaDataset(alternatives, criteria, cells, scale)
