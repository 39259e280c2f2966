"""The checks of FuzzyNumber.from_dict, which only that call loads."""

from .fuzzy import region_triples
from .intervals import ScaleConfig


def record_profile(payload: dict, scale: ScaleConfig) -> tuple:
    """(profile, n, label) of a to_dict record; ValueError for any other
    payload, as FuzzyNumber.from_dict states."""
    if type(payload) is not dict:
        raise ValueError(f"a fuzzy number record is an object, got {payload!r}")
    n, label = payload.get("n"), payload.get("label", "")
    regions, xs = payload.get("regions"), payload.get("endpoints")
    if type(n) is not int or n < 1:
        raise ValueError(f"source count n must be a positive integer, got {n!r}")
    if type(label) is not str:
        raise ValueError(f"label must be a string, got {label!r}")
    if not (type(regions) is list
            and all(_numbers(r) and len(r) == 3 for r in regions)):
        raise ValueError(
            f"regions must be [left, right, height] numbers, got {regions!r}"
        )
    if not _numbers(xs):
        raise ValueError(f"endpoints must be a list of numbers, got {xs!r}")
    if not all(0 < h <= 1 for _, _, h in regions):
        raise ValueError(f"region heights must be in (0, 1], got {regions}")
    low, high = scale.scale_min, scale.scale_max
    # compared before float() so that an over-long int is refused, not raised
    if not (xs and low <= xs[0] and xs[-1] <= high
            and all(a < b for a, b in zip(xs, xs[1:]))):
        raise ValueError(
            f"endpoints {xs} must increase strictly within the scale [{low}, {high}]"
        )
    segment = {l: h for l, r, h in regions if l != r}
    line = {l: h for l, r, h in regions if l == r}
    segments = [0.0, *(float(segment.get(x, 0.0)) for x in xs)]
    points = [float(max(line.get(x, 0.0), left, right))
              for x, left, right in zip(xs, segments, segments[1:])]
    profile = (tuple([float(x) + 0.0 for x in xs]), tuple(points), tuple(segments))
    flat = any(l == p == r for l, p, r in zip(segments, points, segments[1:]))
    # a positive last segment is refused first: region_triples reads past it
    if segments[-1] or flat or [list(t) for t in region_triples(profile)] != regions:
        raise ValueError(
            f"regions {regions} are not the canonical regions of endpoints {xs}"
        )
    return profile, n, label


def _numbers(values) -> bool:
    """Whether values is a list of JSON numbers: int or float, never bool."""
    return type(values) is list and all(type(v) in (int, float) for v in values)
