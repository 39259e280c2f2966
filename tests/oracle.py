"""Brute-force reference computations for the test suite.

Everything here works straight on raw (left, right) pairs or plain
(left, right, height) triples, with independently written loops, so the
package internals are cross-checked rather than echoed. Two functions call
the package: fuzzy_from_regions reads its brute-force record back with
FuzzyNumber.from_dict, the one way into a number besides construct_fuzzy,
and exact_jaccard reads memberships at the package's evaluation points.
"""

import math
import random

DEFAULT_WEIGHT_SQUARES = tuple(
    w * w for w in (0.320726, -0.509757, 0.100985, -0.461649, 0.444451, -0.465218)
)


def random_pairs(rng: random.Random, low=0.0, high=10.0, max_n=8,
                 point_prob=0.2, lattice_prob=0.5):
    """Random interval bounds; the quarter lattice forces shared endpoints."""
    n = rng.randint(1, max_n)
    pairs = []
    for _ in range(n):
        def draw():
            if rng.random() < lattice_prob:
                return round(rng.uniform(low, high) * 4) / 4
            return rng.uniform(low, high)
        a = draw()
        if rng.random() < point_prob:
            pairs.append((a, a))
        else:
            b = draw()
            pairs.append((min(a, b), max(a, b)))
    return pairs


def shifted(pairs, delta):
    """Each interval moved by delta."""
    return [(left + delta, right + delta) for left, right in pairs]


def count_membership(pairs, x):
    return sum(1 for left, right in pairs if left <= x <= right) / len(pairs)


def brute_regions(pairs):
    """Canonical (left, right, height) triples of the count profile.

    The open stretch between neighbouring bounds a < b counts the intervals
    covering all of [a, b]; no float midpoint is sampled, because between
    adjacent doubles the midpoint rounds onto a bound.
    """
    n = len(pairs)
    bounds = sorted({value for pair in pairs for value in pair})

    def hits(a, b):
        return sum(1 for left, right in pairs if left <= a and b <= right)

    triples = []
    for i, x in enumerate(bounds):
        left = hits(bounds[i - 1], x) if i else 0
        right = hits(x, bounds[i + 1]) if i + 1 < len(bounds) else 0
        point = hits(x, x)
        if point > left and point > right:
            triples.append((x, x, point / n))
        if i + 1 < len(bounds) and right:
            triples.append((x, bounds[i + 1], right / n))
    return triples


def brute_canonical(triples):
    """Breakpoints and canonical (left, right, height) triples of any region
    list under the maximum-height rule: the membership at x is the height
    of the tallest region containing x.

    The rule is evaluated on each closed bound and on each open stretch
    between neighbouring bounds, which a region covers when it holds both
    ends; no midpoint is sampled. A bound whose point and both stretches
    share one height is no breakpoint, so touching equal segments merge and
    a spike no taller than its segment goes.
    """
    bounds = sorted({v for l, r, _ in triples for v in (l, r)})

    def tallest(a, b):
        return max((h for l, r, h in triples if l <= a and b <= r), default=0.0)

    steps, left = [], 0.0
    for i, x in enumerate(bounds):
        right = tallest(x, bounds[i + 1]) if i + 1 < len(bounds) else 0.0
        point = tallest(x, x)
        if not left == point == right:
            steps.append((x, left, point, right))
        left = right
    xs = [x for x, _, _, _ in steps]
    canonical = []
    for k, (x, left, point, right) in enumerate(steps):
        if point > left and point > right:
            canonical.append((x, x, point))
        if right:
            canonical.append((x, xs[k + 1], right))
    return xs, canonical


def fuzzy_from_regions(triples, scale, n=1, label=""):
    """The FuzzyNumber whose membership is the maximum-height rule over
    triples: FuzzyNumber.from_dict of the brute_canonical record."""
    # imported here: perfbench's checker loads this module without the package
    from iaarank import FuzzyNumber

    xs, canonical = brute_canonical(triples)
    record = {"label": label, "n": n, "regions": [list(t) for t in canonical],
              "endpoints": xs}
    return FuzzyNumber.from_dict(record, scale)


def grid_area(pairs, low, high, step=1e-3):
    """Midpoint-rule integration of the count profile over [low, high]."""
    cells = max(1, math.ceil((high - low) / step))
    dx = (high - low) / cells
    total = 0.0
    for i in range(cells):
        total += count_membership(pairs, low + (i + 0.5) * dx)
    return total * dx


def split_components(triples):
    components = []
    reach = None
    for triple in sorted(triples):
        if reach is not None and triple[0] <= reach:
            components[-1].append(triple)
            reach = max(reach, triple[1])
        else:
            components.append([triple])
            reach = triple[1]
    return components


def brute_area(triples):
    # summed left to right, as the package sums, so the test comparing the
    # two bit for bit holds on every Python
    total = 0.0
    for l, r, h in triples:
        total += h * (r - l)
    return total


def brute_height(triples):
    return max(h for _, _, h in triples)


def brute_centroid(triples):
    weight = moment = half_heights = 0.0  # left to right, as brute_area
    for l, r, h in triples:
        weight += h
        moment += h * (l + r)
        half_heights += h / 2
    return moment / (2 * weight), half_heights / len(triples)


def brute_perimeter(triples):
    """Walk the step profile of each component and add up the travel."""
    total = 0.0
    for component in split_components(triples):
        xs = sorted({v for l, r, _ in component for v in (l, r)})
        seg_start = {l: h for l, r, h in component if l != r}
        spikes = {l: h for l, r, h in component if l == r}
        current = 0.0
        vertical = 0.0
        for x in xs:
            nxt = seg_start.get(x, 0.0)
            peak = max(current, nxt, spikes.get(x, 0.0))
            vertical += (peak - current) + (peak - nxt)
            current = nxt
        total += 2 * (xs[-1] - xs[0]) + vertical
    return total


def brute_support_length(triples):
    total = 0.0  # left to right, as brute_area
    for comp in split_components(triples):
        total += max(r for _, r, _ in comp) - comp[0][0]
    return total


def brute_agreement(triples):
    length = brute_support_length(triples)
    if length == 0.0:
        return 0.0
    return brute_area(triples) / length


def brute_quartiles(triples):
    ordered = sorted(triples)
    segments = [t for t in ordered if t[0] != t[1]]
    total = brute_area(segments)
    low = min(l for l, _, _ in triples)
    high = max(r for _, r, _ in triples)
    points = [low]
    if 0.25 * total > 0.0:
        for fraction in (0.25, 0.5, 0.75):
            target = fraction * total
            cum = 0.0
            x = segments[-1][1]
            for l, r, h in segments:
                if cum + h * (r - l) >= target:
                    x = min(l + (target - cum) / h, r)
                    break
                cum += h * (r - l)
            points.append(x)
    else:
        weight = 0.0
        for _, _, h in ordered:
            weight += h
        for fraction in (0.25, 0.5, 0.75):
            cum = 0.0
            x = ordered[-1][0]
            for l, r, h in ordered:
                cum += h
                if cum >= fraction * weight:
                    x = (l + r) / 2
                    break
            points.append(x)
    points.append(high)
    return points


def brute_attributes(triples):
    """The seven attributes of a canonical region list, in the field order
    of AttributeVector: the five quartiles as a tuple, centroid x and y,
    area, height, perimeter and agreement ratio.

    Every float is added left to right over the triples in position order,
    in plain loops and never with sum(), so the result can be compared with
    the package's bit for bit on every Python.
    """
    return (tuple(brute_quartiles(triples)), *brute_centroid(triples),
            brute_area(triples), brute_height(triples),
            brute_perimeter(triples), brute_agreement(triples))


def brute_jaccard(pairs_a, pairs_b):
    xs = sorted({v for pair in pairs_a for v in pair}
                | {v for pair in pairs_b for v in pair})
    minimum = maximum = 0.0  # left to right over the union, as brute_area
    for x in xs:
        mu_a, mu_b = count_membership(pairs_a, x), count_membership(pairs_b, x)
        minimum += min(mu_a, mu_b)
        maximum += max(mu_a, mu_b)
    return minimum / maximum


def exact_jaccard(a, b):
    """The Jaccard of two FuzzyNumbers in exact arithmetic, as a Fraction:
    the sum of the min over the sum of the max of their memberships at
    every point of evaluation_points(a, b)."""
    # imported here: perfbench's checker loads this module without the
    # package, and its peak_rss_mb would count the fractions module
    from fractions import Fraction

    from iaarank import evaluation_points

    minimum = maximum = Fraction(0)
    for x in evaluation_points(a, b):
        mu_a, mu_b = Fraction(a.membership(x)), Fraction(b.membership(x))
        minimum += min(mu_a, mu_b)
        maximum += max(mu_a, mu_b)
    return minimum / maximum


def exact_attributes(fz):
    """Six attributes of a FuzzyNumber in exact arithmetic, as Fractions of
    its stored profile's floats: centroid x and y, area, height, perimeter
    and agreement ratio, by AttributeVector's definitions.

    The regions are each stretch of positive membership between neighbouring
    breakpoints and each breakpoint whose membership exceeds both stretches
    beside it. A support component is a run of breakpoints joined by
    positive stretches; its outline is twice its length plus the vertical
    travel at each of its breakpoints, up to the point membership and back.
    """
    from fractions import Fraction  # as in exact_jaccard

    xs, points, segments = ([Fraction(v) for v in column] for column in fz.profile)
    regions = [(x, x, point) for x, point, left, right
               in zip(xs, points, segments, segments[1:]) if point > max(left, right)]
    regions += [(left, right, height) for left, right, height
                in zip(xs, xs[1:], segments[1:]) if height > 0]
    weight = sum(h for _, _, h in regions)
    area = sum(h * (r - l) for l, r, h in regions)
    starts = [i for i in range(len(xs)) if segments[i] == 0]
    ends = [i for i in range(len(xs)) if segments[i + 1] == 0]
    length = sum(xs[end] - xs[start] for start, end in zip(starts, ends))
    travel = sum(abs(point - left) + abs(point - right)
                 for point, left, right in zip(points, segments, segments[1:]))
    return (
        sum(h * (l + r) / 2 for l, r, h in regions) / weight,  # centroid_x
        weight / 2 / len(regions),  # centroid_y
        area,
        max(points),  # height
        2 * length + travel,  # perimeter
        area / length if length else Fraction(0),  # agreement_ratio
    )


def exact_quantile(fz, share, last=False):
    """Where the cumulative measure of a FuzzyNumber's stored profile, in
    exact arithmetic, first reaches share (a Fraction) of its total, or,
    with last, the last point at which it is still at most that share.

    The measure is the one AttributeVector's quartiles read: the area, each
    segment's spread evenly across it; or, when the exact quarter area
    rounds to 0.0 (all mass in spikes, or a subnormal area), the heights of
    the regions in position order, each at its midpoint. A share at or
    below 0 gives the first breakpoint, and one at or above 1, with last,
    the last.
    """
    from fractions import Fraction  # as in exact_jaccard

    xs, points, segments = ([Fraction(v) for v in column] for column in fz.profile)
    pieces = [(left, right, height) for left, right, height
              in zip(xs, xs[1:], segments[1:]) if height > 0]
    area = sum(h * (r - l) for l, r, h in pieces)
    if float(area / 4) != 0.0:
        steps = [(l, h * (r - l), h) for l, r, h in pieces]
        total = area
    else:
        spikes = [(x, x, point) for x, point, left, right
                  in zip(xs, points, segments, segments[1:]) if point > max(left, right)]
        # sorted, a spike falls between the segments ending and starting at it
        steps = [((l + r) / 2, h, None) for l, r, h in sorted(spikes + pieces)]
        total = sum(h for _, h, _ in steps)
    target = share * total
    if target <= 0 and not last:
        return xs[0]
    if target >= total and last:
        return xs[-1]
    cumulative = 0
    for start, mass, height in steps:
        after = cumulative + mass
        if after > target if last else after >= target:
            # inside a segment the area grows at its height; a point mass
            # sits at its midpoint
            return start if height is None else start + (target - cumulative) / height
        cumulative = after
    return xs[-1]


def exact_quartiles(fz):
    """The three inner quartiles of a FuzzyNumber in exact arithmetic, as
    Fractions of its stored profile's floats: where the area first reaches
    1/4, 1/2 and 3/4 of the total, by AttributeVector's definitions
    (exact_quantile has both rules)."""
    from fractions import Fraction  # as in exact_jaccard

    return tuple(exact_quantile(fz, Fraction(k, 4)) for k in (1, 2, 3))


def brute_attribute_similarity(pairs_a, pairs_b, scale_min, scale_max):
    span = scale_max - scale_min
    ra, rb = brute_regions(pairs_a), brute_regions(pairs_b)
    qa, qb = brute_quartiles(ra), brute_quartiles(rb)
    f1 = sum(abs(p - q) for p, q in zip(qa, qb)) / (5 * span)
    (cxa, cya), (cxb, cyb) = brute_centroid(ra), brute_centroid(rb)
    f2 = math.hypot(cxa - cxb, cya - cyb) / math.hypot(span, 0.5)
    area_a, area_b = brute_area(ra), brute_area(rb)
    f3 = abs(area_a - area_b) / max(area_a, area_b) if max(area_a, area_b) > 0 else 0.0
    f4 = abs(brute_height(ra) - brute_height(rb))
    per_a, per_b = brute_perimeter(ra), brute_perimeter(rb)
    f5 = abs(per_a - per_b) / max(per_a, per_b) if max(per_a, per_b) > 0 else 0.0
    f6 = abs(brute_agreement(ra) - brute_agreement(rb))
    features = (f1, f2, f3, f4, f5, f6)
    return 1.0 - sum(w2 * f for w2, f in zip(DEFAULT_WEIGHT_SQUARES, features))


def feature_terms(u, v, span):
    """The six feature differences of two AttributeVectors on a scale of
    range span: a loop over the quartiles, hypot for the centroids, and a
    ratio difference that takes 0/0 as 0."""
    def ratio(x, y):
        return abs(x - y) / max(x, y) if max(x, y) > 0 else 0.0

    quartile = 0.0
    for x, y in zip(u.quartiles, v.quartiles):
        quartile += abs(x - y)
    quartile /= 5 * span
    centroid = math.hypot(u.centroid_x - v.centroid_x,
                          u.centroid_y - v.centroid_y) / math.hypot(span, 0.5)
    return (quartile, centroid, ratio(u.area, v.area), abs(u.height - v.height),
            ratio(u.perimeter, v.perimeter),
            abs(u.agreement_ratio - v.agreement_ratio))


def brute_combined_similarity(pairs_a, pairs_b, scale_min, scale_max):
    return (
        brute_jaccard(pairs_a, pairs_b)
        + brute_attribute_similarity(pairs_a, pairs_b, scale_min, scale_max)
    ) / 2


def brute_load(rows):
    """Group raw (alternative, criterion, source, left, right) rows naively.

    Returns (alternatives, criteria, cells): labels in first-appearance order,
    found by scanning lists, and each cell's (left, right) pairs in source
    label order (file order among equal labels). Raises ValueError when a
    source appears twice in one cell.
    """
    alternatives, criteria, keys, members = [], [], [], []
    for alternative, criterion, source, left, right in rows:
        if alternative not in alternatives:
            alternatives.append(alternative)
        if criterion not in criteria:
            criteria.append(criterion)
        if (alternative, criterion) not in keys:
            keys.append((alternative, criterion))
            members.append([])
        members[keys.index((alternative, criterion))].append((source, left, right))
    cells = {}
    for key, entries in zip(keys, members):
        sources = [source for source, _, _ in entries]
        if len(set(sources)) != len(sources):
            raise ValueError(f"repeated source in cell {key!r}")
        ordered = sorted(entries, key=lambda entry: entry[0])
        cells[key] = [(float(l), float(r)) for _, l, r in ordered]
    return alternatives, criteria, cells


def brute_row_ok(left_text, right_text, scale_min, scale_max):
    """Whether a row's two bound texts, or its two JSON numbers, make an
    interval the loader keeps: a text stripped with str.strip, as a CSV
    row's bounds are, both convert to floats, both are finite, left <= right,
    and both lie on [scale_min, scale_max]."""
    def number(value):
        return float(value.strip() if isinstance(value, str) else value)

    try:
        left, right = number(left_text), number(right_text)
    except (ValueError, OverflowError):
        return False
    if not (math.isfinite(left) and math.isfinite(right)):
        return False
    if left > right:
        return False
    return scale_min <= left and right <= scale_max


def brute_row_error(where, left_text, right_text, scale_min, scale_max):
    """The error a row's stripped bound texts, or its two JSON numbers, give
    when they fail the loader, as (error class name, message), with where
    ("<path> line N") before the message. The checks run in their documented
    order on plain floats: both bounds convert (a text parses, a JSON integer
    fits the float range), both are finite, left <= right, and both lie on
    [scale_min, scale_max]."""
    try:
        left, right = float(left_text), float(right_text)
    except ValueError:
        return "MalformedRow", (
            f"{where}: non-numeric bound ({left_text!r}, {right_text!r})"
        )
    except OverflowError:
        return "MalformedRow", f"{where}: bound beyond the float range"
    if not (math.isfinite(left) and math.isfinite(right)):
        return "MalformedRow", (
            f"{where}: interval bounds must be finite, got [{left}, {right}]"
        )
    if left > right:
        return "InvertedBounds", (
            f"{where}: left bound {left} exceeds right bound {right}"
        )
    assert not (scale_min <= left and right <= scale_max), "the row is kept"
    return "OutOfScale", (
        f"{where}: interval [{left}, {right}] outside scale [{scale_min}, {scale_max}]"
    )


def brute_rank(values, epsilons):
    """Competition ranks and tie groups of the cluster relation, by index loops.

    values[i] holds the keys of item i, one per level (a lower key ranks
    higher); epsilons holds one relative tolerance per level. Level by
    level, each group is selection-sorted on its key and cut into clusters:
    a cluster opens at an item and takes each following item within
    tolerance of the opener. Returns the rank of each item in input order
    and the tie groups as sets of input indices, best group first.
    """
    def close(x, y, eps):
        return x == y or abs(x - y) <= eps * max(1.0, abs(x), abs(y))

    groups = [list(range(len(values)))]
    for level, eps in enumerate(epsilons):
        split = []
        for group in groups:
            rest = list(group)
            order = []
            while rest:
                least = 0
                for j in range(1, len(rest)):
                    if values[rest[j]][level] < values[rest[least]][level]:
                        least = j
                order.append(rest.pop(least))
            opener = None
            for index in order:
                if opener is None or not close(
                    values[opener][level], values[index][level], eps
                ):
                    opener = index
                    split.append([])
                split[-1].append(index)
        groups = split
    ranks = [0] * len(values)
    position = 0
    for group in groups:
        for index in group:
            ranks[index] = position + 1
        position += len(group)
    return ranks, [set(group) for group in groups if len(group) > 1]
