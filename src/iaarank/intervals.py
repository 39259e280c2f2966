"""Crisp intervals, interval sets, measurement scales, and dataset loading.

An interval set aggregates one closed interval per source (one expert, one
observation, ...). Duplicate intervals are kept: the set is a multiset and
downstream membership counts depend on multiplicity. Datasets are long-format
tables mapping (alternative, criterion) pairs to interval sets on a shared,
explicitly configured scale.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Iterable, Mapping
from pathlib import Path

from ._record import Record
from .errors import (
    EmptyDataset,
    InvertedBounds,
    MalformedInterval,
    MalformedRow,
    RaggedCellWarning,
    ZeroSources,
)

DATASET_HEADER = ("alternative", "criterion", "source", "left", "right")

BUNDLED_DATASETS = {
    "films": "films.csv",
    "synthetic-3x2": "synthetic_3x2.csv",
}

# The similarity measures, and those TOPSIS separates by. They are named here,
# in a module every job loads, so the CLI's parser offers them without loading
# similarity or topsis.
MEASURES = ("jaccard", "attribute", "combined")
SEPARATION_MEASURES = ("attribute", "combined")


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
    """Mean of interval midpoints: the traditional preprocessing baseline.

    The midpoints are added in ascending order, so the mean does not depend
    on the order of the sources. The loop is plain: math.fsum raises where a
    sum that overflows gives inf or nan."""
    pairs = zip(interval_set.lefts, interval_set.rights)
    total = 0.0
    for midpoint in sorted((left + right) / 2 for left, right in pairs):
        total += midpoint
    return total / interval_set.n


class MultiCriteriaDataset(Record):
    """Alternatives x criteria grid, each label once, of exactly its cells on
    one scale: the loader's interval sets, or a DecisionMatrix's fuzzy numbers."""

    _fields = ("alternatives", "criteria", "cells", "scale")

    def __init__(self, alternatives: Iterable[str], criteria: Iterable[str],
                 cells: Mapping[tuple[str, str], IntervalSet], scale: ScaleConfig,
                 *more):  # a subclass's further fields, which it checks itself
        alternatives, criteria, cells = tuple(alternatives), tuple(criteria), dict(cells)
        for kind, labels in (("alternative", alternatives), ("criterion", criteria)):
            if len(set(labels)) < len(labels):
                first = next(x for x in labels if labels.count(x) > 1)
                raise ValueError(f"repeated {kind} {first!r}")
        for alternative in alternatives:
            for criterion in criteria:
                if (alternative, criterion) not in cells:
                    raise MalformedRow(
                        f"missing cell for alternative {alternative!r}, "
                        f"criterion {criterion!r}"
                    )
        if len(cells) > len(alternatives) * len(criteria):
            grid = {(alt, crit) for alt in alternatives for crit in criteria}
            extra = next(key for key in cells if key not in grid)
            raise ValueError(f"cell {extra!r} outside the alternatives x criteria grid")
        super().__init__(alternatives, criteria, cells, scale, *more)

    def cell(self, alternative: str, criterion: str):
        """The cell of one alternative under one criterion; a KeyError names
        the unknown label."""
        try:
            return self.cells[(alternative, criterion)]
        except KeyError:
            if alternative not in self.alternatives:
                raise KeyError(f"unknown alternative {alternative!r}") from None
            raise KeyError(f"unknown criterion {criterion!r}") from None

    def column(self, criterion: str) -> list:
        """Cells of one criterion in alternative order."""
        if criterion not in self.criteria:
            raise KeyError(f"unknown criterion {criterion!r}")
        return [self.cells[(alt, criterion)] for alt in self.alternatives]

    def map(self, build) -> dict:
        """{(alternative, criterion): build(cell, scale)} in alternatives x
        criteria order."""
        cells, scale = self.cells, self.scale
        return {
            (alternative, criterion): build(cells[(alternative, criterion)], scale)
            for alternative in self.alternatives
            for criterion in self.criteria
        }

    def without_criterion(self, criterion: str) -> MultiCriteriaDataset:
        """The grid without one criterion, as a MultiCriteriaDataset whatever
        the subclass (a DecisionMatrix's weights and directions go)."""
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

    Every field is stripped, so a bound padded with one of the separators
    "\\x1c" to "\\x1f", which str.strip removes and float does not, loads."""
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
                    left = left.strip()
                    right = right.strip()
                    # a row of blank fields is skipped like a blank line
                    if alternative or criterion or source or left or right:
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


def load_dataset(path: str | Path, scale: ScaleConfig) -> MultiCriteriaDataset:
    """Load a long-format CSV (or JSON mirror) dataset and validate it.

    Rows are grouped per (alternative, criterion) cell and ordered by source
    label inside each cell; a source repeated within a cell is a MalformedRow
    naming both lines, and a cell missing from the grid one naming the file.
    Alternatives and criteria keep first-appearance order. Each row is
    checked once, by one chained comparison of its two floats,
    scale_min <= left <= right <= scale_max, which a NaN or infinite bound
    fails too. The JSON reader and the errors of a failing row or a repeated
    source are in _rows, which loads only on those paths. Only a cell whose
    sources arrive out of order is sorted: loading costs O(rows) plus those
    sorts. Differing source counts across one alternative's criteria raise a
    RaggedCellWarning only: the aggregation accepts any number of sources
    per cell.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        from ._rows import read_json_rows as read_rows
    else:
        read_rows = _read_csv_rows
    try:
        raw_rows = read_rows(path)
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text ({exc})") from exc
    if not raw_rows:
        raise EmptyDataset(f"{path} contains no data rows")

    scale_min, scale_max = scale.scale_min, scale.scale_max
    # A run is consecutive rows of one cell; only a row that starts one looks
    # its cell up, so a cell split across runs gathers its rows in file order.
    grouped: dict[tuple[str, str], tuple[list, list, list]] = {}
    alternative = criterion = None
    for line_no, row_alternative, row_criterion, source, left, right in raw_rows:
        try:
            lo, hi = float(left), float(right)
        except (TypeError, ValueError, OverflowError):
            lo = hi = math.nan
        # A NaN or infinite bound fails the guard too: the scale is finite.
        if not scale_min <= lo <= hi <= scale_max:
            from ._rows import reject_row
            reject_row(path, line_no, left, right, scale)
        if row_criterion != criterion or row_alternative != alternative:
            alternative, criterion = row_alternative, row_criterion
            columns = grouped.get((alternative, criterion))
            if columns is None:
                columns = grouped[(alternative, criterion)] = ([], [], [])
            sources, lefts, rights = columns
        sources.append(source)
        lefts.append(lo)
        rights.append(hi)

    # Each alternative and criterion first appears with its first cell.
    alternatives = tuple(dict.fromkeys(alternative for alternative, _ in grouped))
    criteria = tuple(dict.fromkeys(criterion for _, criterion in grouped))
    cells = {}
    for (alternative, criterion), (sources, lefts, rights) in grouped.items():
        if sorted(sources) != sources:
            order = sorted(range(len(sources)), key=sources.__getitem__)
            lefts = [lefts[i] for i in order]
            rights = [rights[i] for i in order]
        if len(set(sources)) < len(sources):
            from ._rows import reject_repeat
            reject_repeat(path, raw_rows, alternative, criterion)
        cells[(alternative, criterion)] = IntervalSet._from_fields(
            tuple(lefts), tuple(rights), alternative
        )

    # Under one criterion each alternative has one cell, so one source count.
    if len(criteria) > 1:
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

    try:
        return MultiCriteriaDataset(alternatives, criteria, cells, scale)
    except MalformedRow as exc:  # a missing cell
        raise MalformedRow(f"{path}: {exc}") from exc
