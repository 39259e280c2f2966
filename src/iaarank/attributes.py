"""Geometric attributes of fuzzy numbers and the pairwise feature vector.

Attributes are read from the step profile, the one state a fuzzy number
stores: centroid, area and quartiles from the (left, right, height) region
triples the profile yields, height from its point memberships, perimeter and
support length from one walk over its breakpoints, with no region objects
built on the way. ``attribute_vector`` computes them once per instance, the
first time they are asked for, and keeps them on that instance; there is no
global cache, so a number and its attributes are freed together. The feature
vector compares two fuzzy numbers on a shared scale and normalizes every
component into [0, 1]; identical inputs yield the all-zero vector.

Floats are added left to right in plain loops, never with ``sum()``, which
Python 3.12 and later compensate: so every attribute, and every output built
on one, is the same on every supported Python.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import ScaleMismatch
from .fuzzy import FuzzyNumber, check_same_scale, region_triples
from .intervals import ScaleConfig

_ZERO = 1e-12
_QUARTILE_FRACTIONS = (0.25, 0.5, 0.75)


class AttributeVector(Record):
    """The seven geometric attributes of one fuzzy number."""

    _fields = ("quartiles", "centroid_x", "centroid_y", "area", "height",
               "perimeter", "agreement_ratio")

    def __init__(self, quartiles: tuple[float, float, float, float, float],
                 centroid_x: float, centroid_y: float, area: float, height: float,
                 perimeter: float, agreement_ratio: float):
        self._init(quartiles, centroid_x, centroid_y, area, height, perimeter,
                   agreement_ratio)

    def to_dict(self) -> dict:
        return {**dict(zip(self._fields, self._values())),
                "quartiles": list(self.quartiles)}


def centroid(fz: FuzzyNumber) -> tuple[float, float]:
    """Centre of mass of the region list, weighing certainty and uncertainty.

    The x coordinate is the height-weighted average of region midpoints; the
    y coordinate is the mean half-height over the regions.
    """
    vector = attribute_vector(fz)
    return vector.centroid_x, vector.centroid_y


def area(fz: FuzzyNumber) -> float:
    """Total rectangle area of the regions; line regions contribute nothing."""
    return attribute_vector(fz).area


def height(fz: FuzzyNumber) -> float:
    """Maximum membership degree attained."""
    return attribute_vector(fz).height


def _components(fz: FuzzyNumber):
    """Yield (span, vertical travel) of each connected support component.

    One walk over the step profile: a component opens at a breakpoint with
    zero membership on its left and closes at one with zero on its right, so
    regions touching at a single point share a component. The vertical
    travel sums every excursion of the outline: the rise from zero at the
    left edge, each interior height jump, each spike rising above its
    neighbouring plateaus and back, and the drop to zero at the right edge.
    """
    xs, points, segments = fz.profile
    for i, x in enumerate(xs):
        left, top, right = segments[i], points[i], segments[i + 1]
        if left == 0:
            edge, vertical = x, 0.0
        vertical += (top - left) + (top - right)
        if right == 0:
            yield x - edge, vertical


def perimeter(fz: FuzzyNumber) -> float:
    """Length of the geometric outline of the profile, baseline included.

    Per connected support component: the baseline, the horizontal tops (which
    tile the component, so they equal the baseline), and the vertical travel.
    An isolated line region contributes twice its height.
    """
    return attribute_vector(fz).perimeter


def membership_polyline(fz: FuzzyNumber) -> list[tuple[float, float]]:
    """Ordered (x, membership) vertices tracing the upper profile.

    Discontinuities emit two vertices at the same x, spikes three; flat
    interior breakpoints emit nothing. Feeding the vertices to a line plot
    redraws the membership function.
    """
    xs, points, segments = fz.profile
    vertices: list[tuple[float, float]] = []
    for i, x in enumerate(xs):
        left, top, right = segments[i], points[i], segments[i + 1]
        if top > max(left, right):
            vertices += [(x, left), (x, top), (x, right)]
        elif left != right:
            vertices += [(x, left), (x, right)]
    return vertices


def quartile_points(fz: FuzzyNumber) -> tuple[float, float, float, float, float]:
    """Positions where the cumulative area fraction first reaches 0..1 quarters.

    Interpolated linearly inside segment regions; line regions carry no area.
    The outer points are pinned to the support bounds. When the total area is
    negligible (all mass in spikes) the quarters fall back to the discrete
    height-weighted distribution over region positions.
    """
    return attribute_vector(fz).quartiles


def _quartiles(fz: FuzzyNumber, regions, total_height: float):
    """quartile_points from the region triples and their total height."""
    segments = [(left, right, h) for left, right, h in regions if left != right]
    total = 0.0
    for left, right, h in segments:
        total += h * (right - left)
    points = [fz.support_min]
    if total > _ZERO:
        for fraction in _QUARTILE_FRACTIONS:
            target = fraction * total
            cumulative = 0.0
            position = segments[-1][1]
            for left, right, h in segments:
                seg_area = h * (right - left)
                if cumulative + seg_area >= target:
                    position = min(left + (target - cumulative) / h, right)
                    break
                cumulative += seg_area
            points.append(position)
    else:
        for fraction in _QUARTILE_FRACTIONS:
            target = fraction * total_height
            cumulative = 0.0
            position = regions[-1][0]
            for left, right, h in regions:
                cumulative += h
                if cumulative >= target:
                    position = (left + right) / 2
                    break
            points.append(position)
    points.append(fz.support_max)
    return tuple(points)


def support_length(fz: FuzzyNumber) -> float:
    """Total width of the support: the sum of connected component spans."""
    length = 0.0
    for span, _ in _components(fz):
        length += span
    return length


def agreement_ratio(fz: FuzzyNumber) -> float:
    """Mean membership over the support; pure-spike numbers rate zero.

    The support excludes gaps between components, so a number whose sources
    overlap tightly scores high even when an outlier spike widens the hull.
    A support of zero width (all mass in spikes) carries no area and rates 0.
    """
    return attribute_vector(fz).agreement_ratio


def attribute_vector(fz: FuzzyNumber) -> AttributeVector:
    """All seven attributes of one fuzzy number, computed once per instance.

    One pass lists the region triples and one walk visits the support
    components; every attribute is read from those two. The vector is
    stored on the number as the private non-field attribute ``_attributes``,
    so equality, hash and ``to_dict`` do not see it.
    """
    vector = getattr(fz, "_attributes", None)
    if vector is None:
        regions = list(region_triples(fz.profile))
        total_height = total_area = moment = half_heights = 0.0
        for left, right, h in regions:
            total_height += h
            total_area += h * (right - left)
            moment += h * (left + right)
            half_heights += h / 2
        outline = length = 0.0
        for span, vertical in _components(fz):
            outline += 2 * span + vertical
            length += span
        vector = AttributeVector(
            quartiles=_quartiles(fz, regions, total_height),
            centroid_x=moment / (2 * total_height),
            centroid_y=half_heights / len(regions),
            area=total_area,
            height=max(fz.profile[1]),
            perimeter=outline,
            agreement_ratio=0.0 if length <= _ZERO else total_area / length,
        )
        object.__setattr__(fz, "_attributes", vector)
    return vector


class FeatureVector(Record):
    """Normalized pairwise differences, ordered as the weight vector expects."""

    _fields = ("quartile", "centroid", "area", "height", "perimeter", "agreement")

    def __init__(self, quartile: float, centroid: float, area: float,
                 height: float, perimeter: float, agreement: float):
        self._init(quartile, centroid, area, height, perimeter, agreement)

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return self._values()


def _ratio_difference(u: float, v: float) -> float:
    # 0/0 -> 0: two zero-area (or zero-perimeter) inputs count as identical.
    largest = max(u, v)
    if largest <= 0:
        return 0.0
    return abs(u - v) / largest


def feature_vector(
    a: FuzzyNumber, b: FuzzyNumber, scale: ScaleConfig | None = None
) -> FeatureVector:
    """Six comparison features of a pair of fuzzy numbers on one scale.

    Quartile spread and centroid distance are normalized by the scale range,
    area and perimeter by the larger operand, height and agreement ratio are
    absolute differences of values already in [0, 1].
    """
    check_same_scale(a, b)
    if scale is not None and a.scale != scale:
        raise ScaleMismatch(
            f"operands on [{a.scale.scale_min}, {a.scale.scale_max}] do not "
            f"match scale [{scale.scale_min}, {scale.scale_max}]"
        )
    attrs_a = attribute_vector(a)
    attrs_b = attribute_vector(b)
    span = a.scale.range
    quartile = 0.0
    for x, y in zip(attrs_a.quartiles, attrs_b.quartiles):
        quartile += abs(x - y)
    quartile /= 5 * span
    centroid_distance = math.hypot(
        attrs_a.centroid_x - attrs_b.centroid_x,
        attrs_a.centroid_y - attrs_b.centroid_y,
    ) / math.hypot(span, 0.5)
    return FeatureVector(
        quartile=quartile,
        centroid=centroid_distance,
        area=_ratio_difference(attrs_a.area, attrs_b.area),
        height=abs(attrs_a.height - attrs_b.height),
        perimeter=_ratio_difference(attrs_a.perimeter, attrs_b.perimeter),
        agreement=abs(attrs_a.agreement_ratio - attrs_b.agreement_ratio),
    )
