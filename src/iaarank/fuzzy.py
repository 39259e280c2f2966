"""Aggregated fuzzy numbers built from interval sets.

Membership at x is the fraction of source intervals containing x, so the
membership function is piecewise constant: it steps at interval bounds and
can carry isolated spikes where point coverage exceeds the surrounding
plateaus (several intervals sharing a bound, or point intervals).

A fuzzy number stores that function once, as its step profile: the sorted
breakpoints, the membership at each breakpoint, and the membership on each
open stretch between them, padded with the zero outside the support at both
ends. The profile is canonical: no breakpoint has the membership of both
neighbouring stretches, so one membership function has exactly one profile,
and equality and hash compare it. Membership is resolved by one bisection:
the point height on an exact breakpoint hit, else the height of the stretch
the bisection lands in.

Every other view is derived from the profile. The endpoints, at which the
similarity measures evaluate, are its breakpoints. The canonical region list
holds one (left, right, height) region per constant-membership stretch plus
zero-width line regions for the spikes, ordered by position; membership at x
is the maximum height over the regions containing x. Construction sorts the
left and the right bounds apart and merges them in one walk that counts the
open intervals, so it costs O(n log n) for n intervals; a number's own record
(to_dict) is read straight back into its profile.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from functools import cached_property

from ._record import Record
from .errors import OutOfScale, ScaleMismatch
from .intervals import IntervalSet, ScaleConfig


def region_triples(
    profile: tuple[tuple[float, ...], ...]
) -> Iterator[tuple[float, float, float]]:
    """Yield (left, right, height) of each region of a canonical step profile.

    In position order: a line region where the point membership exceeds both
    neighbouring segments, then the segment right of each breakpoint where
    the membership is positive. A canonical profile has no flat breakpoint,
    so neighbouring segments never share a height and every region is
    maximal.
    """
    xs, points, segments = profile
    for i, x in enumerate(xs):
        left, point, right = segments[i], points[i], segments[i + 1]
        if point > left and point > right:
            yield x, x, point
        if right > 0:
            yield x, xs[i + 1], right


class FuzzyNumber(Record):
    """Piecewise-constant fuzzy number, stored as its canonical step profile.

    Made by construct_fuzzy from an interval set, or read back from its own
    record by from_dict, each vouching to the unchecked ``_from_fields``
    that the profile is canonical; calling the class raises TypeError.
    The endpoints, at which the similarity measures evaluate, are the
    profile's breakpoints: for a number built from intervals, the distinct
    interval bounds. The source count n is a positive int.
    """

    _fields = ("profile", "n", "scale", "label")

    def __init__(self, *args, **kwargs):
        raise TypeError("FuzzyNumber: use construct_fuzzy or FuzzyNumber.from_dict")

    @property
    def endpoints(self) -> tuple[float, ...]:
        """The sorted breakpoints of the profile."""
        return self.profile[0]

    @cached_property
    def regions(self) -> tuple[tuple[float, float, float], ...]:
        """Canonical (left, right, height) triples, as to_dict writes them."""
        return tuple(region_triples(self.profile))

    def membership(self, x: float) -> float:
        """Maximum region height at x; 0 outside every region."""
        xs, points, segments = self.profile
        i = bisect_left(xs, x)
        return points[i] if i < len(xs) and xs[i] == x else segments[i]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "n": self.n,
            "regions": [list(t) for t in region_triples(self.profile)],
            "endpoints": list(self.endpoints),
        }

    @classmethod
    def from_dict(cls, payload: dict, scale: ScaleConfig) -> FuzzyNumber:
        """Read a to_dict record back; ValueError for any other payload.

        The endpoints are the breakpoints; each segment takes the height of
        the segment region starting at its breakpoint, and each point the
        tallest of its line region and its two segments. The record is taken
        only if its endpoints increase strictly on the scale, its heights lie
        in (0, 1], the profile is canonical, and the profile's regions are
        exactly the record's. A bound, height or endpoint is a JSON number
        (int or float, never bool), n a positive int and the label a string.
        The checks are _fuzzy_record's, which only this call loads.
        """
        from ._fuzzy_record import record_profile
        profile, n, label = record_profile(payload, scale)
        return cls._from_fields(profile, n, scale, label)


def construct_fuzzy(interval_set: IntervalSet, scale: ScaleConfig) -> FuzzyNumber:
    """Build the canonical fuzzy number of an interval set, under its label.

    Breakpoints are the distinct interval bounds. The sorted left and right
    bounds are merged in one two-pointer walk, and the intervals covering
    the walk position number the lefts passed minus the rights passed: at a
    breakpoint, the intervals starting there join before its point
    membership is taken, and those ending there leave before the next open
    segment's. The k-th smallest left bound is at most the k-th smallest
    right one, so the lefts run out first. Every breakpoint starts or ends
    an interval, so none is flat and the profile is canonical as it stands.
    The ends of the sorted columns make the scale check; only when it fails
    is the first off-scale interval in source order looked up, for the error.
    """
    lefts = sorted(interval_set.lefts)
    rights = sorted(interval_set.rights)
    low, high = scale.scale_min, scale.scale_max
    if not (low <= lefts[0] and rights[-1] <= high):
        for left, right in zip(interval_set.lefts, interval_set.rights):
            if not (low <= left and right <= high):
                raise OutOfScale(
                    f"interval [{left}, {right}] of {interval_set.label!r} "
                    f"outside scale [{low}, {high}]"
                )
    n = len(lefts)
    lefts.append(math.inf)  # sentinels: the bounds are finite
    rights.append(math.inf)
    xs: list[float] = []
    points: list[float] = []
    segments = [0.0]
    i = j = 0
    while j < n:
        x = lefts[i] if lefts[i] <= rights[j] else rights[j]
        while lefts[i] == x:
            i += 1
        points.append((i - j) / n)
        while rights[j] == x:
            j += 1
        segments.append((i - j) / n)
        xs.append(x + 0.0)  # -0.0 + 0.0 is 0.0: a profile holds no negative zero
    return FuzzyNumber._from_fields(
        (tuple(xs), tuple(points), tuple(segments)), n, scale, interval_set.label
    )


def evaluation_points(a: FuzzyNumber, b: FuzzyNumber) -> tuple[float, ...]:
    """Sorted, deduplicated union of both operands' endpoints."""
    return tuple(sorted(set(a.endpoints) | set(b.endpoints)))


def check_same_scale(a: FuzzyNumber, b: FuzzyNumber) -> None:
    if a.scale != b.scale:
        raise ScaleMismatch(
            f"{a.label!r} on [{a.scale.scale_min}, {a.scale.scale_max}] vs "
            f"{b.label!r} on [{b.scale.scale_min}, {b.scale.scale_max}]"
        )
