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
from .fuzzy import FuzzyNumber, check_same_scale, region_triples

_ZERO = 1e-12
_QUARTILE_FRACTIONS = (0.25, 0.5, 0.75)


class AttributeVector(Record):
    """The seven geometric attributes of one fuzzy number, one field each:

    - quartiles: where the cumulative area first reaches 0, 1/4, 1/2, 3/4 and
      all of the total, interpolated linearly inside segments (spikes carry
      no area); the outer two are the support bounds. A number of negligible
      area (all mass in spikes) takes the discrete height-weighted
      distribution over region positions instead.
    - centroid_x: the height-weighted mean of the region midpoints.
    - centroid_y: the mean half-height over the regions.
    - area: the total rectangle area of the regions; spikes add nothing.
    - height: the largest membership degree.
    - perimeter: the length of the outline, baseline included. Per connected
      support component: the baseline, the tops (which tile it, so they equal
      the baseline), the rise at its left edge, each interior jump, each
      spike above its neighbouring plateaus and back, and the drop at its
      right edge; a lone spike adds twice its height. Regions touching at a
      single point share a component.
    - agreement_ratio: the mean membership over the support, which excludes
      the gaps between components; 0 when the support has no width.
    """

    _fields = ("quartiles", "centroid_x", "centroid_y", "area", "height",
               "perimeter", "agreement_ratio")

    def to_dict(self) -> dict:
        return {**dict(zip(self._fields, self._values())),
                "quartiles": list(self.quartiles)}


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


def attribute_vector(fz: FuzzyNumber) -> AttributeVector:
    """All seven attributes of one fuzzy number, computed once per instance.

    One walk over the profile adds the region terms in ``region_triples``
    order and closes each support component into the outline and the
    support length; one walk over the segments finds the three inner
    quartiles with one running area total. The vector is stored on the
    number as the private non-field attribute ``_attributes``, so equality,
    hash, ``to_dict``, pickle and copy do not see it: a copy computes it
    again when asked.
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
        tuple(quartiles),
        moment / (2 * total_height),  # centroid_x
        half_heights / count,  # centroid_y
        total_area,
        max(points),  # height
        outline,  # perimeter
        0.0 if length <= _ZERO else total_area / length,  # agreement_ratio
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
    a: FuzzyNumber, b: FuzzyNumber
) -> tuple[float, float, float, float, float, float]:
    """Six comparison features of a pair of fuzzy numbers on one scale, in
    weight order: quartile, centroid, area, height, perimeter, agreement.

    Quartile spread and centroid distance are normalized by the scale range,
    area and perimeter by the larger operand, height and agreement ratio are
    absolute differences of values already in [0, 1].
    """
    check_same_scale(a, b)
    span = a.scale.range
    return feature_differences(
        attribute_row(a), attribute_row(b), 5 * span, math.hypot(span, 0.5)
    )
