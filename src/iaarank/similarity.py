"""Similarity measures between fuzzy numbers on a shared scale.

Three measures: overlap (intersection over union of memberships at the
source endpoints), attribute comparison (one minus the squared-weight
combination of the six feature differences), and their plain average.
All return values in [0, 1] with 1 for identical operands.

Every similarity, one pair or many, runs through one pair kernel. A
``PairKernel`` is built once per call for a measure, a weight vector and a
scale, and computes the squared weights and the two scale normalisers then.
Each number is prepared once per call: its profile restated on the sorted
union of its breakpoints and its distinct endpoints, each breakpoint flagged
when it is an endpoint, and its attribute row. The overlap measure then
merges the two prepared breakpoint lists in one walk, evaluating at the
flagged points, so one pair costs O(k_a + k_b) for k_a and k_b breakpoints
and builds no set and sorts nothing. The attribute measure reads the two
rows with the arithmetic and summation order of ``feature_vector``, so its
results are bit-identical to it. All three measures are symmetric, so a
similarity matrix over m numbers evaluates the m(m+1)/2 pairs on and above
the diagonal and mirrors each value below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import attributes
from .errors import EmptyEvaluation, ScaleMismatch
from .fuzzy import FuzzyNumber, check_same_scale
from .intervals import ScaleConfig

DEFAULT_WEIGHT_VALUES = (0.320726, -0.509757, 0.100985, -0.461649, 0.444451, -0.465218)

MEASURES = ("jaccard", "attribute", "combined")


@dataclass(frozen=True)
class SimilarityWeights:
    """Signed feature weights; only their squares enter the measure.

    The vector must have (near) unit norm: that bound keeps the attribute
    measure inside [0, 1].
    """

    values: tuple[float, float, float, float, float, float] = DEFAULT_WEIGHT_VALUES

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != 6:
            raise ValueError("exactly six feature weights required")
        norm = sum(v * v for v in self.values)
        if abs(norm - 1.0) > 1e-4:
            raise ValueError(f"weight vector must have unit norm, got {norm:.6f}")

    def squared(self) -> tuple[float, ...]:
        return tuple(v * v for v in self.values)


DEFAULT_WEIGHTS = SimilarityWeights()


def _overlap_profile(fz: FuzzyNumber):
    """The profile of fz on the sorted union of its breakpoints and its
    distinct endpoints: (breakpoints, points, segments, evaluated).

    A breakpoint added for an endpoint inside a stretch takes the stretch's
    membership as its point and on both sides. evaluated[i] tells whether
    breakpoint i is one of the number's endpoints. For a constructed number
    the endpoints are the breakpoints, and the profile stays as it is.
    """
    xs, points, segments = fz.profile
    if fz.endpoints == xs:
        return xs, points, segments, (True,) * len(xs)
    ends = set(fz.endpoints)
    grid = sorted(ends.union(xs))
    grid_points: list[float] = []
    grid_segments = [0.0]
    i = 0
    for x in grid:
        if i < len(xs) and xs[i] == x:
            grid_points.append(points[i])
            grid_segments.append(segments[i + 1])
            i += 1
        else:
            grid_points.append(segments[i])
            grid_segments.append(segments[i])
    return grid, grid_points, grid_segments, [x in ends for x in grid]


def _overlap(a, b) -> float:
    """Jaccard of two overlap profiles: one merge of their breakpoints.

    At a breakpoint of one operand only, the other one reads its stretch
    membership; past its last breakpoint, that is zero. The flagged points
    are the union of both endpoint lists, visited once each in ascending
    order, so the sums add the same terms in the same order as a walk over
    ``evaluation_points``.
    """
    xs_a, points_a, segments_a, evaluated_a = a
    xs_b, points_b, segments_b, evaluated_b = b
    k_a = len(xs_a)
    k_b = len(xs_b)
    i = j = 0
    numerator = 0.0
    denominator = 0.0
    while i < k_a and j < k_b:
        x = xs_a[i]
        y = xs_b[j]
        if x < y:
            evaluated = evaluated_a[i]
            mu_a = points_a[i]
            mu_b = segments_b[j]
            i += 1
        elif y < x:
            evaluated = evaluated_b[j]
            mu_a = segments_a[i]
            mu_b = points_b[j]
            j += 1
        else:
            evaluated = evaluated_a[i] or evaluated_b[j]
            mu_a = points_a[i]
            mu_b = points_b[j]
            i += 1
            j += 1
        if evaluated:
            if mu_a <= mu_b:
                numerator += mu_a
                denominator += mu_b
            else:
                numerator += mu_b
                denominator += mu_a
    # Past the other operand's last breakpoint its membership is 0, the
    # minimum, so only the denominator grows.
    for p in range(i, k_a):
        if evaluated_a[p]:
            denominator += points_a[p]
    for q in range(j, k_b):
        if evaluated_b[q]:
            denominator += points_b[q]
    if denominator <= 0:
        raise EmptyEvaluation("zero membership at every evaluation point")
    return numerator / denominator


def _attribute_row(fz: FuzzyNumber) -> tuple[float, ...]:
    """The eleven attribute values the feature differences read, in order:
    five quartiles, centroid x and y, area, height, perimeter, agreement."""
    # Looked up on the module, so that a wrapper installed there (the
    # benchmark's tracer) sees every attribute vector.
    v = attributes.attribute_vector(fz)
    return (*v.quartiles, v.centroid_x, v.centroid_y, v.area, v.height,
            v.perimeter, v.agreement_ratio)


class PairKernel:
    """The similarity of prepared numbers under one measure, weight vector
    and scale.

    ``prepare`` each number once; calling the kernel on two prepared numbers
    gives ``measure_similarity`` of the two, bit for bit. The scale supplies
    the attribute normalisers. A pair whose operands lie on different scales
    raises ScaleMismatch before anything is computed, so the caller passes
    the scale that every pair reaching the computation shares: that of the
    matrix, of the first number of a row-major loop, or of an operand in
    every pair.
    """

    def __init__(self, measure: str, weights: SimilarityWeights, scale: ScaleConfig):
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
        self.overlap = measure != "attribute"
        self.attribute = measure != "jaccard"
        self.squared_weights = weights.squared()
        self.quartile_span = 5 * scale.range
        self.centroid_span = math.hypot(scale.range, 0.5)

    def prepare(self, fz: FuzzyNumber):
        """(scale, number, overlap profile, attribute row); the parts the
        measure does not read are None."""
        return (
            fz.scale,
            fz,
            _overlap_profile(fz) if self.overlap else None,
            _attribute_row(fz) if self.attribute else None,
        )

    def _attribute(self, a: tuple[float, ...], b: tuple[float, ...]) -> float:
        """One minus the squared-weight sum of the feature differences, with
        the arithmetic and summation order of ``feature_vector``."""
        qa0, qa1, qa2, qa3, qa4, xa, ya, area_a, height_a, perimeter_a, agree_a = a
        qb0, qb1, qb2, qb3, qb4, xb, yb, area_b, height_b, perimeter_b, agree_b = b
        w0, w1, w2, w3, w4, w5 = self.squared_weights
        quartile = sum((
            abs(qa0 - qb0), abs(qa1 - qb1), abs(qa2 - qb2), abs(qa3 - qb3),
            abs(qa4 - qb4),
        )) / self.quartile_span
        centroid = math.hypot(xa - xb, ya - yb) / self.centroid_span
        # The ratio differences of _ratio_difference, inlined: 0/0 -> 0.
        area_max = max(area_a, area_b)
        perimeter_max = max(perimeter_a, perimeter_b)
        return 1.0 - sum((
            w0 * quartile,
            w1 * centroid,
            w2 * (abs(area_a - area_b) / area_max if area_max > 0 else 0.0),
            w3 * abs(height_a - height_b),
            w4 * (abs(perimeter_a - perimeter_b) / perimeter_max
                  if perimeter_max > 0 else 0.0),
            w5 * abs(agree_a - agree_b),
        ))

    def __call__(self, a, b) -> float:
        scale_a, number_a, overlap_a, row_a = a
        scale_b, number_b, overlap_b, row_b = b
        if scale_a is not scale_b and scale_a != scale_b:
            check_same_scale(number_a, number_b)
        if row_a is None:
            return _overlap(overlap_a, overlap_b)
        if overlap_a is None:
            return self._attribute(row_a, row_b)
        return (_overlap(overlap_a, overlap_b) + self._attribute(row_a, row_b)) / 2


def measure_similarity(
    measure: str,
    a: FuzzyNumber,
    b: FuzzyNumber,
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
    scale: ScaleConfig | None = None,
) -> float:
    """Dispatch by measure name: 'jaccard', 'attribute', or 'combined'.

    A scale given explicitly must be the operands' scale; the overlap
    measure does not read it.
    """
    kernel = PairKernel(measure, weights, a.scale)
    value = kernel(kernel.prepare(a), kernel.prepare(b))
    if scale is not None and measure != "jaccard" and a.scale != scale:
        raise ScaleMismatch(
            f"operands on [{a.scale.scale_min}, {a.scale.scale_max}] do not "
            f"match scale [{scale.scale_min}, {scale.scale_max}]"
        )
    return value


def jaccard(a: FuzzyNumber, b: FuzzyNumber) -> float:
    """Sum of minimum over sum of maximum memberships at the endpoint union.

    Zero exactly when the two numbers share no support at any evaluation
    point. The denominator cannot vanish for properly constructed inputs
    (each operand is positive at its own endpoints); if it does, the pair
    raises EmptyEvaluation.
    """
    return measure_similarity("jaccard", a, b)


def attribute_similarity(
    a: FuzzyNumber,
    b: FuzzyNumber,
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
    scale: ScaleConfig | None = None,
) -> float:
    """One minus the squared-weight combination of the six feature differences."""
    return measure_similarity("attribute", a, b, weights, scale)


def combined_similarity(
    a: FuzzyNumber,
    b: FuzzyNumber,
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
    scale: ScaleConfig | None = None,
) -> float:
    """Plain average of the overlap and attribute measures.

    The overlap term rewards actual intersection, the attribute term stays
    informative when there is none; averaging removes both degeneracies.
    """
    return measure_similarity("combined", a, b, weights, scale)


def similarity_matrix(
    measure: str,
    numbers: Sequence[FuzzyNumber],
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
) -> list[list[float]]:
    """Pairwise similarity of the numbers as a symmetric list of rows.

    Row i, column j holds ``measure_similarity(measure, numbers[i],
    numbers[j], weights)``. Each number is prepared once; each pair with
    i <= j is evaluated once, in row-major order, and mirrored to [j][i].
    The diagonal is evaluated too, so an error surfaces on the same pair as
    in a full row-major loop.
    """
    if not numbers:
        return []
    kernel = PairKernel(measure, weights, numbers[0].scale)
    prepared = [kernel.prepare(fz) for fz in numbers]
    size = len(prepared)
    matrix = [[0.0] * size for _ in range(size)]
    for i, a in enumerate(prepared):
        row = matrix[i]
        for j in range(i, size):
            row[j] = matrix[j][i] = kernel(a, prepared[j])
    return matrix
