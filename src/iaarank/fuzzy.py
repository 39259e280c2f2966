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
open intervals, so it costs O(n log n) for n intervals; a number given as a
region list is swept into its profile once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from heapq import heappop, heappush

from ._record import Record
from .errors import ScaleMismatch
from .intervals import IntervalSet, ScaleConfig


class Region(Record):
    """Constant-membership region; left == right is a line (spike) region."""

    _fields = ("left", "right", "height")

    def __init__(self, left: float, right: float, height: float):
        left, right, height = float(left), float(right), float(height)
        if left > right:
            raise ValueError(f"region left {left} exceeds right {right}")
        if not 0 < height <= 1:
            raise ValueError(f"region height must be in (0, 1], got {height}")
        self._init(left, right, height)

    @property
    def is_line(self) -> bool:
        return self.left == self.right


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


def _check_finite(regions: Sequence[Region]) -> None:
    if not all(math.isfinite(r.left) and math.isfinite(r.right) for r in regions):
        raise ValueError("region bounds must be finite")


def _region_profile(regions: Sequence[Region]) -> tuple[tuple[float, ...], ...]:
    """Canonical step profile (breakpoints, points, segments) of regions
    sorted by left.

    One sweep over the distinct bounds keeps the regions reaching the current
    breakpoint in a heap ordered by height; the tallest one still containing
    the breakpoint gives the point membership, and the tallest one reaching
    past it gives the segment to its right. Overlapping regions resolve by
    the maximum-height rule. A bound where the membership equals both
    neighbouring segments is not a breakpoint.
    """
    xs: list[float] = []
    points: list[float] = []
    segments = [0.0]
    active: list[tuple[float, float]] = []  # (-height, right)
    pending = iter(regions)
    region = next(pending, None)
    for x in sorted({r.left for r in regions} | {r.right for r in regions}):
        while region is not None and region.left <= x:
            heappush(active, (-region.height, region.right))
            region = next(pending, None)
        while active[0][1] < x:
            heappop(active)
        point = -active[0][0]
        while active and active[0][1] <= x:
            heappop(active)
        right = -active[0][0] if active else 0.0
        if point == segments[-1] == right:
            continue
        xs.append(x)
        points.append(point)
        segments.append(right)
    return tuple(xs), tuple(points), tuple(segments)


class FuzzyNumber(Record):
    """Piecewise-constant fuzzy number, stored as its canonical step profile.

    Built from a region list sorted by position whose segments have disjoint
    interiors; a line region may sit inside a segment, and the tallest region
    at x gives the membership. The region bounds must be finite. The
    endpoints, at which the similarity measures evaluate, are the profile's
    breakpoints: for a number built from intervals, the distinct interval
    bounds.
    """

    _fields = ("profile", "n", "scale", "label")

    def __init__(self, regions: Iterable[Region], *, n: int, scale: ScaleConfig,
                 label: str = ""):
        regions = tuple(regions)
        if not regions:
            raise ValueError("a fuzzy number needs at least one region")
        _check_finite(regions)
        ordered = all(
            (a.left, a.right) <= (b.left, b.right)
            for a, b in zip(regions, regions[1:])
        )
        if not ordered:
            raise ValueError("regions must be sorted by position")
        previous_segment_right = None
        for region in regions:
            if region.is_line:
                continue
            if previous_segment_right is not None and region.left < previous_segment_right:
                raise ValueError("segment regions must have disjoint interiors")
            previous_segment_right = region.right
        self._init(_region_profile(regions), n, scale, label)

    @classmethod
    def _from_profile(cls, **fields) -> FuzzyNumber:
        """A number from its stored fields, unchecked: the profile must be
        canonical."""
        number = object.__new__(cls)
        vars(number).update(fields)
        return number

    @property
    def endpoints(self) -> tuple[float, ...]:
        """The sorted breakpoints of the profile."""
        return self.profile[0]

    @cached_property
    def regions(self) -> tuple[Region, ...]:
        """Canonical region list, derived from the profile on first access."""
        return tuple(Region(*t) for t in region_triples(self.profile))

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
        """Rebuild a number from to_dict output; ValueError unless its regions
        lie on the scale and its endpoints are the rebuilt breakpoints."""
        low, high = scale.scale_min, scale.scale_max
        regions = tuple(Region(l, r, h) for l, r, h in payload["regions"])
        if not all(low <= r.left and r.right <= high for r in regions):
            raise ValueError(f"a region lies outside the scale [{low}, {high}]")
        number = cls(
            regions,
            n=int(payload["n"]),
            scale=scale,
            label=str(payload.get("label", "")),
        )
        endpoints = tuple(float(x) for x in payload["endpoints"])
        if endpoints != number.endpoints:
            raise ValueError(
                f"endpoints {list(endpoints)} are not the breakpoints "
                f"{list(number.endpoints)} of the regions"
            )
        return number


def construct_fuzzy(
    interval_set: IntervalSet, scale: ScaleConfig, label: str | None = None
) -> FuzzyNumber:
    """Build the canonical fuzzy number of an interval set.

    Breakpoints are the distinct interval bounds. The sorted left and right
    bounds are merged in one two-pointer walk, and the intervals covering
    the walk position number the lefts passed minus the rights passed: at a
    breakpoint, the intervals starting there join before its point
    membership is taken, and those ending there leave before the next open
    segment's. The k-th smallest left bound is at most the k-th smallest
    right one, so the lefts run out first. Every breakpoint starts or ends
    an interval, so none is flat and the profile is canonical as it stands.
    """
    lefts = sorted(interval_set.lefts)
    rights = sorted(interval_set.rights)
    if not (scale.scale_min <= lefts[0] and rights[-1] <= scale.scale_max):
        interval_set.validate_scale(scale)
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
        xs.append(x)
    return FuzzyNumber._from_profile(
        profile=(tuple(xs), tuple(points), tuple(segments)),
        n=n,
        scale=scale,
        label=interval_set.label if label is None else label,
    )


def canonicalize(regions: Iterable[Region]) -> tuple[Region, ...]:
    """Rebuild the canonical region list of an arbitrary region list.

    Idempotent: applying it to an already-canonical list returns an equal
    list. Membership under the max-resolution rule is preserved exactly.
    Raises ValueError for a NaN or infinite region bound.
    """
    regs = sorted(regions, key=lambda r: r.left)
    _check_finite(regs)
    if not regs:
        return ()
    return tuple(Region(*t) for t in region_triples(_region_profile(regs)))


def evaluation_points(a: FuzzyNumber, b: FuzzyNumber) -> tuple[float, ...]:
    """Sorted, deduplicated union of both operands' endpoints."""
    return tuple(sorted(set(a.endpoints) | set(b.endpoints)))


def check_same_scale(a: FuzzyNumber, b: FuzzyNumber) -> None:
    if a.scale != b.scale:
        raise ScaleMismatch(
            f"{a.label!r} on [{a.scale.scale_min}, {a.scale.scale_max}] vs "
            f"{b.label!r} on [{b.scale.scale_min}, {b.scale.scale_max}]"
        )
