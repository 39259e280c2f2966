"""Multi-criteria closeness ranking over fuzzy-number decision matrices.

Per criterion the best and worst alternatives under the universal comparison
serve as the positive and negative ideal solutions (swapped on cost
criteria). Separations replace distances with weighted dissimilarity
(one minus similarity), and the closeness coefficient ranks alternatives by
remoteness from the worst relative to total separation. Outputs are a
reconstruction of the classic pipeline adapted to fuzzy-number cells.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from ._record import Record
from .errors import ScaleMismatch
from .fuzzy import FuzzyNumber, construct_fuzzy
from .intervals import SEPARATION_MEASURES, MultiCriteriaDataset, ScaleConfig
from .ranking import DEFAULT_EPSILON, RankingResult, order_and_rank, universal_levels
from .similarity import PairKernel

DIRECTIONS = ("benefit", "cost")


class DecisionMatrix(MultiCriteriaDataset):
    """Alternatives x criteria grid of fuzzy numbers with weighted directions.

    It extends the loader's grid, whose presence check, cell, column and map
    it inherits; an inherited without_criterion returns the grid without that
    criterion as a MultiCriteriaDataset, with no weights or directions. Every
    cell lies on the matrix's scale; a cell on another one raises
    ScaleMismatch.
    """

    _fields = (*MultiCriteriaDataset._fields, "weights", "directions")

    def __init__(self, alternatives: Iterable[str], criteria: Iterable[str],
                 cells: Mapping[tuple[str, str], FuzzyNumber], scale: ScaleConfig,
                 weights: Sequence[float], directions: Sequence[str]):
        criteria = tuple(criteria)
        if len(weights) != len(criteria):
            raise ValueError("one weight per criterion required")
        if len(directions) != len(criteria):
            raise ValueError("one direction per criterion required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = 0.0
        for w in weights:
            total += w
        if not math.isfinite(total):
            raise ValueError("weights must be finite, with a finite sum")
        if total <= 0:
            raise ValueError("weights must not all be zero")
        weights = tuple(float(w) / total for w in weights)
        for direction in directions:
            if direction not in DIRECTIONS:
                raise ValueError(
                    f"direction must be one of {DIRECTIONS}, got {direction!r}"
                )
        super().__init__(alternatives, criteria, cells, scale, weights, directions)
        low, high = scale.scale_min, scale.scale_max
        for alternative in self.alternatives:
            for criterion in criteria:
                cell = self.cells[(alternative, criterion)]
                if cell.scale != scale:
                    raise ScaleMismatch(
                        f"cell ({alternative!r}, {criterion!r}) on "
                        f"[{cell.scale.scale_min}, {cell.scale.scale_max}] does "
                        f"not match the matrix scale [{low}, {high}]"
                    )

    @classmethod
    def from_dataset(
        cls,
        dataset: MultiCriteriaDataset,
        weights: Sequence[float] | None = None,
        directions: Sequence[str] | None = None,
    ) -> DecisionMatrix:
        """Elevate every dataset cell to a fuzzy number; defaults: equal
        weights, all-benefit directions. cells is dataset.map(construct_fuzzy),
        with this module's construct_fuzzy, in alternatives x criteria order.
        """
        count = len(dataset.criteria)
        return cls(
            alternatives=dataset.alternatives,
            criteria=dataset.criteria,
            cells=dataset.map(construct_fuzzy),
            scale=dataset.scale,
            weights=tuple(weights) if weights is not None else (1.0,) * count,
            directions=tuple(directions)
            if directions is not None
            else ("benefit",) * count,
        )


class CriterionIdeals(Record):
    _fields = ("criterion", "pis", "nis", "degenerate")


def select_ideals(
    matrix: DecisionMatrix, epsilon: float = DEFAULT_EPSILON
) -> tuple[CriterionIdeals, ...]:
    """Choose the per-criterion ideal solutions from the alternatives.

    The top alternative under the universal ranking is the positive ideal and
    the bottom one the negative ideal; cost criteria swap the two. Where
    several alternatives at an end have exactly equal universal keys (a shape
    and its mirror image, say), which always share the end's tie group, the
    one with the smallest (profile, label) is taken, so the ideals do not
    depend on the row order. A criterion whose alternatives all fall in one
    universal tie group is flagged degenerate.
    """
    levels = universal_levels(epsilon)

    def keys(fz):
        return [key(fz) for key, _ in levels]

    def content(fz):
        return fz.profile, fz.label

    ideals = []
    for index, criterion in enumerate(matrix.criteria):
        ordered, ranks, _ = order_and_rank(matrix.column(criterion), levels)
        ends = ((0, keys(ordered[0])), (-1, keys(ordered[-1])))
        top, bottom = (
            min((fz for fz, rank in zip(ordered, ranks)
                 if rank == ranks[end] and keys(fz) == end_keys), key=content)
            for end, end_keys in ends
        )
        if matrix.directions[index] == "cost":
            top, bottom = bottom, top
        ideals.append(CriterionIdeals(criterion, top, bottom, ranks[-1] == 1))
    return tuple(ideals)


def separations(
    matrix: DecisionMatrix,
    ideals: Sequence[CriterionIdeals],
    measure: str = "combined",
) -> list[tuple[float, float]]:
    """Weighted dissimilarity of every alternative to the two ideal profiles.

    Returns (D+, D-) pairs aligned with matrix.alternatives; criterion terms
    are summed in criterion order with normalized weights. Each cell and each
    ideal is prepared for the similarity kernel once, on the matrix's scale.
    """
    if measure not in SEPARATION_MEASURES:
        raise ValueError(
            f"measure must be one of {SEPARATION_MEASURES}, got {measure!r}"
        )
    kernel = PairKernel(measure, matrix.scale)
    prepared = [(kernel.prepare(ideal.pis), kernel.prepare(ideal.nis)) for ideal in ideals]
    pairs = []
    for alternative in matrix.alternatives:
        d_plus = 0.0
        d_minus = 0.0
        for index, criterion in enumerate(matrix.criteria):
            cell = kernel.prepare(matrix.cell(alternative, criterion))
            weight = matrix.weights[index]
            pis, nis = prepared[index]
            d_plus += weight * (1.0 - kernel(cell, pis))
            d_minus += weight * (1.0 - kernel(cell, nis))
        pairs.append((d_plus, d_minus))
    return pairs


class TopsisEntry(Record):
    _fields = ("label", "d_plus", "d_minus", "closeness", "rank", "degenerate")


class TopsisResult(RankingResult):
    """A ranking by closeness under a separation measure, with each
    criterion's ideals; to_dict writes an ideal's numbers as their labels."""

    _fields = ("measure", "entries", "ideals", "ties")

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "ideals": [
                {
                    "criterion": ideal.criterion,
                    "pis": ideal.pis.label,
                    "nis": ideal.nis.label,
                    "degenerate": ideal.degenerate,
                }
                for ideal in self.ideals
            ],
        }


def topsis_rank(
    matrix: DecisionMatrix,
    measure: str = "combined",
    epsilon: float = DEFAULT_EPSILON,
    tie_break_criterion: str | None = None,
) -> TopsisResult:
    """Rank alternatives by closeness coefficient D- / (D+ + D-).

    A vanishing denominator (the alternative coincides with both ideals)
    yields closeness 0.5 with a degenerate flag instead of failing, so batch
    runs always complete. Exact closeness ties are ordered on the universal
    keys of the tie-break criterion's cells when one is configured, and stay
    tied only within one tolerance cluster of those keys; without one they
    share a rank. Tied rows are reported in ties.
    """
    if tie_break_criterion not in (None, *matrix.criteria):
        raise ValueError(f"unknown tie-break criterion {tie_break_criterion!r}")
    ideals = select_ideals(matrix, epsilon)
    pairs = separations(matrix, ideals, measure)
    rows = []
    for label, (d_plus, d_minus) in zip(matrix.alternatives, pairs):
        total = d_plus + d_minus
        if total > 0:
            closeness, degenerate = d_minus / total, False
        else:
            closeness, degenerate = 0.5, True
        rows.append((label, d_plus, d_minus, closeness, degenerate))

    levels = [(lambda row: -row[3], 0.0)]
    if tie_break_criterion is not None:
        levels += universal_levels(
            epsilon, number=lambda row: matrix.cell(row[0], tie_break_criterion)
        )
    ordered, ranks, groups = order_and_rank(rows, levels)
    entries = tuple(
        TopsisEntry._from_fields(label, d_plus, d_minus, closeness, rank, degenerate)
        for (label, d_plus, d_minus, closeness, degenerate), rank in zip(ordered, ranks)
    )
    ties = tuple(tuple(ordered[i][0] for i in group) for group in groups)
    return TopsisResult(measure, entries, ideals, ties)
