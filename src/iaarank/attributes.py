"""Geometric attributes of fuzzy numbers.

Attributes are read from the step profile, the one state a fuzzy number
stores. ``attribute_vector`` computes all seven in one walk over the
breakpoints, which adds up the region terms and the outline of each support
component and records the running area, in which one bisection per quartile
finds its segment, with no region objects built on the way. It does so once
per instance, the first time they are asked for, and keeps them on that
instance; there is no global cache, so a number and its attributes are
freed together.

Floats are added left to right in plain loops, never with ``sum()``, which
Python 3.12 and later compensate: so every attribute, and every output built
on one, is the same on every supported Python.
"""

from __future__ import annotations

from bisect import bisect_left

from ._record import Record
from .fuzzy import FuzzyNumber, region_triples

_QUARTILE_FRACTIONS = (0.25, 0.5, 0.75)


class AttributeVector(Record):
    """The seven geometric attributes of one fuzzy number, one field each:

    - quartiles: where the cumulative area first reaches 0, 1/4, 1/2, 3/4 and
      all of the total, interpolated linearly inside segments (spikes carry
      no area); the outer two are the support bounds. A number of no area
      (all mass in spikes), or of a subnormal area whose quarter rounds to
      0.0, takes the discrete height-weighted distribution over region
      positions instead.
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
    order, closes each support component into the outline and the support
    length, and records the running area at each breakpoint; each of the
    three inner quartiles bisects those totals for the first segment that
    meets its share of the area. Only a number whose quarter area is 0.0
    (all its mass in spikes, or a subnormal area) lists its regions, for the
    discrete quartiles. Both thresholds are 0.0, so no attribute depends on
    the scale's units.
    The vector is stored on the number as the private non-field attribute
    ``_attributes``, so equality, hash, ``to_dict``, pickle and copy do not
    see it: a copy computes it again when asked.
    """
    vector = getattr(fz, "_attributes", None)
    if vector is not None:
        return vector
    xs, points, segments = fz.profile
    count = 0
    total_height = total_area = moment = half_heights = outline = length = 0.0
    areas = []  # the running area at each breakpoint, its segment included
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
        areas.append(total_area)
    quartiles = [xs[0]]
    if 0.25 * total_area > 0.0:  # a 0.0 target bisects to breakpoint 0, maybe no segment
        for fraction in _QUARTILE_FRACTIONS:
            target = fraction * total_area
            i = bisect_left(areas, target)  # never a gap, which adds no area
            before = areas[i - 1] if i else 0.0
            quartiles.append(min(xs[i] + (target - before) / segments[i + 1], xs[i + 1]))
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
    vector = AttributeVector._from_fields(
        tuple(quartiles),
        moment / (2 * total_height),  # centroid_x
        half_heights / count,  # centroid_y
        total_area,
        max(points),  # height
        outline,  # perimeter
        0.0 if length == 0.0 else total_area / length,  # agreement_ratio
    )
    object.__setattr__(fz, "_attributes", vector)
    return vector
