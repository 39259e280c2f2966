"""Geometric attributes of fuzzy numbers and the six feature differences.

Attributes are read from the step profile, the one state a fuzzy number
stores. ``attribute_vector`` computes all seven in one walk over the
breakpoints, which adds up the region terms and the outline of each support
component, and one walk over the segments for the quartiles, with no region
objects built on the way. It does so once per instance, the first time they
are asked for, and keeps them on that instance; there is no global cache,
so a number and its attributes are freed together.

Two numbers are compared through their attribute rows, the eleven values
``attribute_row`` lays out. ``feature_differences`` turns two rows into the
six differences the attribute similarity weighs, each normalized into
[0, 1]; identical inputs yield six zeros. It is the one definition of that
arithmetic: ``feature_vector`` returns its result for one pair, and the
pair kernel in ``similarity`` weighs it for every attribute pair.

Floats are added left to right in plain loops, never with ``sum()``, which
Python 3.12 and later compensate: so every attribute, and every output built
on one, is the same on every supported Python.
"""

from __future__ import annotations

import math

from ._record import Record
from .fuzzy import FuzzyNumber, check_on_scale, check_same_scale, region_triples
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


def perimeter(fz: FuzzyNumber) -> float:
    """Length of the geometric outline of the profile, baseline included.

    Per connected support component: the baseline, the horizontal tops (which
    tile the component, so they equal the baseline), and the vertical travel:
    the rise from zero at its left edge, each interior height jump, each
    spike rising above its neighbouring plateaus and back, and the drop to
    zero at its right edge. An isolated line region contributes twice its
    height. A component opens at a breakpoint with zero membership on its
    left and closes at one with zero on its right, so regions touching at a
    single point share a component.
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


def support_length(fz: FuzzyNumber) -> float:
    """Total width of the support: the sum of connected component spans."""
    xs, _, segments = fz.profile
    length = 0.0
    for i, x in enumerate(xs):
        if segments[i] == 0:
            edge = x
        if segments[i + 1] == 0:
            length += x - edge
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

    One walk over the profile adds the region terms in ``region_triples``
    order and closes each support component into the outline and the
    support length; one walk over the segments finds the three inner
    quartiles with one running area total. The vector is stored on the
    number as the private non-field attribute ``_attributes``, so equality,
    hash and ``to_dict`` do not see it.
    """
    vector = getattr(fz, "_attributes", None)
    if vector is not None:
        return vector
    xs, points, segments = fz.profile
    count = 0
    total_height = total_area = moment = half_heights = outline = length = 0.0
    for i, x in enumerate(xs):
        left, top, right = segments[i], points[i], segments[i + 1]
        if left == 0:
            edge, vertical = x, 0.0
        vertical += (top - left) + (top - right)
        if top > left and top > right:  # a line region: no area
            count += 1
            total_height += top
            moment += top * (x + x)
            half_heights += top / 2
        if right > 0:
            after = xs[i + 1]
            count += 1
            total_height += right
            total_area += right * (after - x)
            moment += right * (x + after)
            half_heights += right / 2
        else:
            outline += 2 * (x - edge) + vertical
            length += x - edge
    quartiles = [xs[0]]
    if total_area > _ZERO:
        targets = [fraction * total_area for fraction in _QUARTILE_FRACTIONS]
        cumulative = 0.0
        # a gap adds no area, so no target is met there
        for x, after, right in zip(xs, xs[1:], segments[1:]):
            seg_area = right * (after - x)
            while targets and cumulative + seg_area >= targets[0]:
                target = targets.pop(0)
                quartiles.append(min(x + (target - cumulative) / right, after))
            cumulative += seg_area
    else:  # all mass in spikes: the discrete height-weighted distribution
        regions = list(region_triples(fz.profile))
        for fraction in _QUARTILE_FRACTIONS:
            target = fraction * total_height
            cumulative = 0.0
            position = regions[-1][0]
            for left, right, h in regions:
                cumulative += h
                if cumulative >= target:
                    position = (left + right) / 2
                    break
            quartiles.append(position)
    quartiles.append(xs[-1])
    vector = AttributeVector(
        quartiles=tuple(quartiles),
        centroid_x=moment / (2 * total_height),
        centroid_y=half_heights / count,
        area=total_area,
        height=max(points),
        perimeter=outline,
        agreement_ratio=0.0 if length <= _ZERO else total_area / length,
    )
    object.__setattr__(fz, "_attributes", vector)
    return vector


def attribute_row(fz: FuzzyNumber) -> tuple[float, ...]:
    """The eleven attribute values the feature differences read, in order:
    five quartiles, centroid x and y, area, height, perimeter, agreement."""
    # attribute_vector is read as a module global, so that a wrapper
    # installed here (the benchmark's tracer) sees every attribute vector.
    v = attribute_vector(fz)
    return (*v.quartiles, v.centroid_x, v.centroid_y, v.area, v.height,
            v.perimeter, v.agreement_ratio)


def feature_differences(
    a: tuple[float, ...], b: tuple[float, ...], quartile_span: float,
    centroid_span: float,
) -> tuple[float, float, float, float, float, float]:
    """The six unweighted feature differences of two attribute rows, in
    weight order: quartile, centroid, area, height, perimeter, agreement.

    The quartile sum is divided by ``quartile_span`` (five times the scale
    range) and the centroid distance by ``centroid_span`` (``hypot(range,
    0.5)``). Area and perimeter differ relative to the larger operand, and
    two zeros count as identical (0/0 -> 0).
    """
    qa0, qa1, qa2, qa3, qa4, xa, ya, area_a, height_a, perimeter_a, agree_a = a
    qb0, qb1, qb2, qb3, qb4, xb, yb, area_b, height_b, perimeter_b, agree_b = b
    area_max = max(area_a, area_b)
    perimeter_max = max(perimeter_a, perimeter_b)
    return (
        (abs(qa0 - qb0) + abs(qa1 - qb1) + abs(qa2 - qb2) + abs(qa3 - qb3)
         + abs(qa4 - qb4)) / quartile_span,
        math.hypot(xa - xb, ya - yb) / centroid_span,
        abs(area_a - area_b) / area_max if area_max > 0 else 0.0,
        abs(height_a - height_b),
        abs(perimeter_a - perimeter_b) / perimeter_max if perimeter_max > 0 else 0.0,
        abs(agree_a - agree_b),
    )


def feature_vector(
    a: FuzzyNumber, b: FuzzyNumber, scale: ScaleConfig | None = None
) -> tuple[float, float, float, float, float, float]:
    """Six comparison features of a pair of fuzzy numbers on one scale, in
    weight order: quartile, centroid, area, height, perimeter, agreement.

    Quartile spread and centroid distance are normalized by the scale range,
    area and perimeter by the larger operand, height and agreement ratio are
    absolute differences of values already in [0, 1].
    """
    check_same_scale(a, b)
    check_on_scale(a, scale)
    span = a.scale.range
    return feature_differences(
        attribute_row(a), attribute_row(b), 5 * span, math.hypot(span, 0.5)
    )
