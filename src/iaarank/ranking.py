"""Ranking relations for fuzzy numbers.

Three methods: the universal three-key total order (higher centroid-x, then
lower perimeter, then higher centroid-y), the ideal-ratio score against
synthetic best/worst references, and the traditional midpoint-mean baseline
on the raw interval sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import groupby
from typing import Sequence

from .attributes import attribute_vector
from .errors import DivisionByZero
from .fuzzy import FuzzyNumber, check_same_scale
from .intervals import IntervalSet, midpoint_mean
from .similarity import DEFAULT_WEIGHTS, SimilarityWeights, measure_similarity

A_GREATER = 1
EQUAL = 0
B_GREATER = -1

DEFAULT_EPSILON = 1e-9


def _close(x: float, y: float, epsilon: float) -> bool:
    return abs(x - y) <= epsilon * max(1.0, abs(x), abs(y))


def universal_compare(
    a: FuzzyNumber, b: FuzzyNumber, epsilon: float = DEFAULT_EPSILON
) -> int:
    """Compare two fuzzy numbers without external context.

    Keys in order: greater centroid-x wins; on a tie the lower perimeter wins
    (a tighter outline means more certainty, so the centroid is more
    trustworthy); on a further tie the greater centroid-y wins. Returns 1
    when a outranks b, -1 when b outranks a, 0 when all three keys tie.
    Ties use a relative tolerance of epsilon per key.
    """
    check_same_scale(a, b)
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and non-negative")
    attrs_a = attribute_vector(a)
    attrs_b = attribute_vector(b)
    keys = (
        (attrs_a.centroid_x, attrs_b.centroid_x, True),
        (attrs_a.perimeter, attrs_b.perimeter, False),
        (attrs_a.centroid_y, attrs_b.centroid_y, True),
    )
    for value_a, value_b, higher_wins in keys:
        if _close(value_a, value_b, epsilon):
            continue
        return A_GREATER if (value_a > value_b) == higher_wins else B_GREATER
    return EQUAL


@dataclass(frozen=True)
class RankingEntry:
    label: str
    score: float | None
    rank: int


@dataclass(frozen=True)
class RankingResult:
    """Alternatives in rank order with competition-style 1-based ranks.

    Entries compared equal share the smaller rank; ties lists the label
    groups that compared equal.
    """

    method: str
    entries: tuple[RankingEntry, ...]
    ties: tuple[tuple[str, ...], ...] = ()

    def labels(self) -> tuple[str, ...]:
        return tuple(entry.label for entry in self.entries)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "entries": [
                {"label": e.label, "score": e.score, "rank": e.rank}
                for e in self.entries
            ],
            "ties": [list(group) for group in self.ties],
        }


def competition_ranks(ordered, equal) -> tuple[list[int], list[tuple[int, ...]]]:
    """Competition ranks of a sorted sequence and its groups of tied positions.

    equal is asked once for each pair of neighbours, in order. An item equal
    to its predecessor shares its rank; any other item at 0-based position p
    gets rank p + 1. Every run of two or more equal neighbours is one tie
    group, listed by position.
    """
    ranks: list[int] = []
    for position, item in enumerate(ordered):
        if position == 0 or not equal(ordered[position - 1], item):
            rank = position + 1
        ranks.append(rank)
    runs = (tuple(run) for _, run in groupby(range(len(ranks)), key=ranks.__getitem__))
    return ranks, [run for run in runs if len(run) > 1]


def descending(x: float, y: float) -> int:
    """Comparator that puts the greater score first; 0 only when x == y."""
    if x != y:
        return -1 if x > y else 1
    return 0


def order_and_rank(items, compare):
    """Sort items with compare, best first, and rank the sorted sequence.

    compare(a, b) is negative when a belongs before b; two neighbours tie
    exactly when it returns 0. Returns the sorted list with its competition
    ranks and tie groups (see competition_ranks). The sort is stable.
    """
    if not items:
        raise ValueError("nothing to rank")
    ordered = sorted(items, key=cmp_to_key(compare))
    ranks, groups = competition_ranks(ordered, lambda a, b: compare(a, b) == 0)
    return ordered, ranks, groups


def _build_result(method, items, compare, scores) -> RankingResult:
    """Rank items with compare and label each sorted item by scores."""
    ordered, ranks, groups = order_and_rank(items, compare)
    labeled = [scores(item) for item in ordered]
    entries = tuple(
        RankingEntry(label=label, score=score, rank=rank)
        for (label, score), rank in zip(labeled, ranks)
    )
    ties = tuple(tuple(labeled[i][0] for i in group) for group in groups)
    return RankingResult(method=method, entries=entries, ties=ties)


def rank_universal(
    items: Sequence[FuzzyNumber], epsilon: float = DEFAULT_EPSILON
) -> RankingResult:
    """Total order of the items under the universal comparison.

    Stable: exact ties keep their input order and share a rank.
    """
    return _build_result(
        "universal",
        items,
        lambda a, b: -universal_compare(a, b, epsilon),
        scores=lambda fz: (fz.label, None),
    )


def ideal_ratio(
    fz: FuzzyNumber,
    ideal_best: FuzzyNumber,
    ideal_worst: FuzzyNumber,
    measure: str = "combined",
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
) -> float:
    """Similarity to the ideal best over total similarity to both ideals.

    Higher means better. Raises DivisionByZero when both similarities vanish
    (possible under the pure overlap measure when the number touches neither
    ideal); the error carries the offending label.
    """
    s_best = measure_similarity(measure, fz, ideal_best, weights)
    s_worst = measure_similarity(measure, fz, ideal_worst, weights)
    total = s_best + s_worst
    if total == 0:
        raise DivisionByZero(
            f"{fz.label or 'alternative'}: zero similarity to both ideals",
            label=fz.label,
        )
    return s_best / total


def rank_by_ideal_ratio(
    items: Sequence[FuzzyNumber],
    ideal_best: FuzzyNumber,
    ideal_worst: FuzzyNumber,
    measure: str = "combined",
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
    epsilon: float = DEFAULT_EPSILON,
) -> RankingResult:
    """Rank by descending ideal-ratio score.

    Exact score ties are ordered by the universal comparison and only stay
    tied (sharing a rank) when that comparison is also equal.
    """
    scored = [(fz, ideal_ratio(fz, ideal_best, ideal_worst, measure, weights))
              for fz in items]
    return _build_result(
        f"ideal_ratio({measure})",
        scored,
        lambda a, b: descending(a[1], b[1])
        or -universal_compare(a[0], b[0], epsilon),
        scores=lambda item: (item[0].label, item[1]),
    )


def rank_baseline_mean(sets: Sequence[IntervalSet]) -> RankingResult:
    """Rank interval sets by descending midpoint mean (the traditional way)."""
    return _build_result(
        "baseline_mean",
        [(s, midpoint_mean(s)) for s in sets],
        lambda a, b: descending(a[1], b[1]),
        scores=lambda item: (item[0].label, item[1]),
    )
