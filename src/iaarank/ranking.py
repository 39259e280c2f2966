"""Ranking relations for fuzzy numbers.

Three methods: the universal three-key total order (higher centroid-x, then
lower perimeter, then higher centroid-y), the ideal-ratio score against
synthetic best/worst references, and the traditional midpoint-mean baseline
on the raw interval sets. Each function that needs attributes or similarity
imports it, so the baseline loads neither.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import itemgetter

from ._record import Record
from .errors import DivisionByZero
from .fuzzy import FuzzyNumber, check_same_scale
from .intervals import IntervalSet, midpoint_mean

DEFAULT_EPSILON = 1e-9


def _close(x: float, y: float, epsilon: float) -> bool:
    """Within a relative tolerance; equal values, infinities too, are close."""
    return x == y or abs(x - y) <= epsilon * max(1.0, abs(x), abs(y))


def universal_levels(epsilon: float = DEFAULT_EPSILON, number=None):
    """The universal order as sort levels for order_and_rank.

    Keys in order: greater centroid-x first; then the lower perimeter (a
    tighter outline means more certainty, so the centroid is more
    trustworthy); then the greater centroid-y. Each key ties within a
    relative tolerance of epsilon. number(item) gives the fuzzy number of an
    item; by default the item is the number.
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and non-negative")
    from .attributes import attribute_vector

    def vector(item):
        return attribute_vector(item if number is None else number(item))

    return (
        (lambda item: -vector(item).centroid_x, epsilon),
        (lambda item: vector(item).perimeter, epsilon),
        (lambda item: -vector(item).centroid_y, epsilon),
    )


class RankingEntry(Record):
    _fields = ("label", "score", "rank")


class RankingResult(Record):
    """Alternatives in rank order with competition-style 1-based ranks.

    The entries of one tie group share its smallest rank; ties lists the
    label groups.
    """

    _fields = ("method", "entries", "ties")

    def labels(self) -> tuple[str, ...]:
        return tuple(entry.label for entry in self.entries)

    def to_dict(self) -> dict:
        """Every field by name, in _fields order: entries as dicts, ties as lists."""
        return {
            **dict(zip(self._fields, self._values())),
            "entries": [dict(zip(e._fields, e._values())) for e in self.entries],
            "ties": [list(group) for group in self.ties],
        }


def order_and_rank(items, levels):
    """Sort items best first on levels of (key, epsilon) and rank them.

    A lower key ranks higher. The items are sorted (stably) on the first key
    and cut into clusters: a cluster opens at its first item and takes each
    next item whose key is within a relative tolerance of epsilon of the
    opener's. Clusters of two or more items are sorted and cut again on the
    next level; keys are computed once per item and level, and never for a
    one-item cluster. The final clusters are the tie groups, so no result
    depends on the input order. Returns the sorted list, its competition
    ranks and the tie groups as tuples of positions.
    """
    if not items:
        raise ValueError("nothing to rank")
    clusters = [list(items)]
    for key, epsilon in levels:
        refined = []
        for cluster in clusters:
            if len(cluster) == 1:
                refined.append(cluster)
                continue
            keyed = sorted(zip(map(key, cluster), cluster), key=itemgetter(0))
            opener = None
            for value, item in keyed:
                if opener is None or not _close(opener, value, epsilon):
                    opener = value
                    refined.append([])
                refined[-1].append(item)
        clusters = refined
    ordered, ranks, groups = [], [], []
    for cluster in clusters:
        ranks += [len(ordered) + 1] * len(cluster)
        if len(cluster) > 1:
            groups.append(tuple(range(len(ordered), len(ordered) + len(cluster))))
        ordered += cluster
    return ordered, ranks, groups


def _by_score(item) -> float:
    """Sort key of a (subject, score) pair: the greater score first."""
    return -item[1]


def ranked_entries(rows, levels, entry):
    """Rank rows on levels with order_and_rank and make entry(row, rank) for
    each, best first. Returns (entries, ties): each tie group is the labels
    of its entries."""
    ordered, ranks, groups = order_and_rank(rows, levels)
    entries = tuple(map(entry, ordered, ranks))
    return entries, tuple(tuple(entries[i].label for i in group) for group in groups)


def _scored_entry(row, rank) -> RankingEntry:
    """The entry of a (subject, score) row, labelled by its subject."""
    return RankingEntry._from_fields(row[0].label, row[1], rank)


def rank_universal(
    items: Sequence[FuzzyNumber], epsilon: float = DEFAULT_EPSILON
) -> RankingResult:
    """Order the items on the universal keys (see universal_levels).

    Ties are the tolerance clusters of order_and_rank: the result does not
    depend on the input order, and items with equal keys keep their input
    order and share a rank. Raises ScaleMismatch unless all items share
    one scale.
    """
    for fz in items:
        check_same_scale(items[0], fz)
    return RankingResult("universal", *ranked_entries(
        items,
        universal_levels(epsilon),
        lambda fz, rank: RankingEntry._from_fields(fz.label, None, rank),
    ))


def ideal_ratio(
    fz: FuzzyNumber,
    ideal_best: FuzzyNumber,
    ideal_worst: FuzzyNumber,
    measure: str = "combined",
) -> float:
    """Similarity to the ideal best over total similarity to both ideals.

    Higher means better. Raises DivisionByZero when both similarities vanish
    (possible under the pure overlap measure when the number touches neither
    ideal); the error carries the offending label. This is the score of the
    one-item ranking rank_by_ideal_ratio([fz], ...).
    """
    return rank_by_ideal_ratio([fz], ideal_best, ideal_worst, measure).entries[0].score


def rank_by_ideal_ratio(
    items: Sequence[FuzzyNumber],
    ideal_best: FuzzyNumber,
    ideal_worst: FuzzyNumber,
    measure: str = "combined",
    epsilon: float = DEFAULT_EPSILON,
) -> RankingResult:
    """Rank by descending ideal-ratio score.

    The two ideals are prepared for the similarity kernel once, then each
    item in turn, which is scored against both. Exact score ties are ordered
    on the universal keys (see universal_levels) and only stay tied (sharing
    a rank) when they fall in one tolerance cluster of those keys as well.
    """
    from .similarity import PairKernel
    kernel = PairKernel(measure, ideal_best.scale)
    best = kernel.prepare(ideal_best)
    worst = kernel.prepare(ideal_worst)
    scored = []
    for fz in items:
        number = kernel.prepare(fz)
        s_best = kernel(number, best)
        s_worst = kernel(number, worst)
        total = s_best + s_worst
        if total == 0:
            name = fz.label or "alternative"
            raise DivisionByZero(f"{name}: zero similarity to both ideals", label=fz.label)
        scored.append((fz, s_best / total))
    return RankingResult(f"ideal_ratio({measure})", *ranked_entries(
        scored,
        [(_by_score, 0.0), *universal_levels(epsilon, number=itemgetter(0))],
        _scored_entry,
    ))


def rank_baseline_mean(sets: Sequence[IntervalSet]) -> RankingResult:
    """Rank interval sets by descending midpoint mean (the traditional way)."""
    return RankingResult("baseline_mean", *ranked_entries(
        [(s, midpoint_mean(s)) for s in sets], [(_by_score, 0.0)], _scored_entry
    ))
