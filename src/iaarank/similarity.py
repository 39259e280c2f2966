"""Similarity measures between fuzzy numbers on a shared scale.

Three measures, named in MEASURES: 'jaccard', the overlap (intersection
over union of memberships at the endpoints of both operands); 'attribute'
(one minus the squared-weight combination of the six feature differences);
and 'combined', their plain average, whose attribute term stays informative
where the overlap is 0. All return values in [0, 1] with 1 for identical
operands. The feature weights are the paper's fixed PCA loadings,
FEATURE_WEIGHTS; only their squares enter the measure.

A pair's similarity under a measure's name is ``measure_similarity``, and
many pairs' is ``similarity_matrix``; both run through one pair kernel. A
``PairKernel`` is built once per call for a measure and a scale, and
computes the two scale normalisers then; the squared weights are computed
once, at import. Each number is prepared once per call: its step profile,
whose breakpoints are its endpoints, and its attribute row. The overlap
measure then merges the two breakpoint lists in one walk over the shared
support, evaluating at every point it meets, so one pair costs at most
O(k_a + k_b) for k_a and k_b breakpoints and builds no set and sorts
nothing; a pair whose supports do not meet costs O(1). The attribute measure
weighs the six differences ``PairKernel.features`` computes from the two
rows with the kernel's normalisers; ``feature_vector`` returns the same six
for one pair, so the feature arithmetic is written once. All three measures
are symmetric, so a similarity matrix over m numbers evaluates the m(m+1)/2
pairs on and above the diagonal and mirrors each value below it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence

from . import attributes
from .errors import EmptyEvaluation
from .fuzzy import FuzzyNumber, check_same_scale
from .intervals import MEASURES, ScaleConfig

# The signed PCA loadings of the six feature differences, as published. Only
# their squares enter the measure; they sum to just under 1, which keeps the
# attribute measure inside [0, 1].
FEATURE_WEIGHTS = (0.320726, -0.509757, 0.100985, -0.461649, 0.444451, -0.465218)
_SQUARED_WEIGHTS = tuple(v * v for v in FEATURE_WEIGHTS)


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def attribute_row(fz: FuzzyNumber) -> tuple[float, ...]:
    """The eleven attribute values the feature differences read, in order:
    five quartiles, centroid x and y, area, height, perimeter, agreement."""
    # attribute_vector is read through its module at each call, so that a
    # wrapper installed there (the benchmark's tracer) sees every vector.
    v = attributes.attribute_vector(fz)
    return (*v.quartiles, v.centroid_x, v.centroid_y, v.area, v.height,
            v.perimeter, v.agreement_ratio)


def _overlap(a, b) -> float:
    """Jaccard of two step profiles: one merge of their shared support.

    At a breakpoint of one operand only, the other one reads its stretch
    membership; outside its support, that is zero, the minimum, so there
    only the denominator grows. Supports that do not meet give 0.0 at once.
    Otherwise ``a`` is the operand that starts first (the measure is
    symmetric): its breakpoints before ``b``'s first (found by bisection) go
    to the denominator alone, the merge covers the rest, and the points of
    whichever operand ends last, past the other's last, go to the
    denominator alone. The breakpoints are the endpoints, so the sums add
    the same terms in the same order as a walk over ``evaluation_points``.
    """
    xs_a, points_a, segments_a = a
    xs_b, points_b, segments_b = b
    if xs_a[-1] < xs_b[0] or xs_b[-1] < xs_a[0]:
        return 0.0
    if xs_b[0] < xs_a[0]:
        (xs_a, points_a, segments_a), (xs_b, points_b, segments_b) = b, a
    k_a = len(xs_a)
    k_b = len(xs_b)
    i = bisect_left(xs_a, xs_b[0])
    j = 0
    numerator = 0.0
    denominator = 0.0
    for p in range(i):
        denominator += points_a[p]
    while i < k_a and j < k_b:
        x = xs_a[i]
        y = xs_b[j]
        if x < y:
            mu_a = points_a[i]
            mu_b = segments_b[j]
            i += 1
        elif y < x:
            mu_a = segments_a[i]
            mu_b = points_b[j]
            j += 1
        else:
            mu_a = points_a[i]
            mu_b = points_b[j]
            i += 1
            j += 1
        if mu_a <= mu_b:
            numerator += mu_a
            denominator += mu_b
        else:
            numerator += mu_b
            denominator += mu_a
    for mu in points_a[i:] if i < k_a else points_b[j:]:
        denominator += mu
    # Unreachable from the public constructors, whose first breakpoint has
    # a positive point membership; kept as division safety.
    if denominator <= 0:
        raise EmptyEvaluation("zero membership at every evaluation point")
    return numerator / denominator


class PairKernel:
    """The similarity of prepared numbers under one measure and scale.

    ``prepare`` each number once; calling the kernel on two prepared numbers
    gives ``measure_similarity`` of the two, bit for bit. The scale supplies
    the attribute normalisers. A pair whose operands lie on different scales
    raises ScaleMismatch before anything is computed, so the caller passes
    the scale that every pair reaching the computation shares: that of the
    matrix, of the first number of a row-major loop, or of an operand in
    every pair.
    """

    def __init__(self, measure: str, scale: ScaleConfig):
        _check_measure(measure)
        self.overlap = measure != "attribute"
        self.attribute = measure != "jaccard"
        self.quartile_span = 5 * scale.range
        self.centroid_span = math.hypot(scale.range, 0.5)

    def prepare(self, fz: FuzzyNumber):
        """(scale, number, step profile, attribute row); the parts the
        measure does not read are None."""
        return (
            fz.scale,
            fz,
            fz.profile if self.overlap else None,
            attribute_row(fz) if self.attribute else None,
        )

    def features(
        self, a: tuple[float, ...], b: tuple[float, ...]
    ) -> tuple[float, float, float, float, float, float]:
        """The six unweighted feature differences of two attribute rows, in
        weight order: quartile, centroid, area, height, perimeter, agreement.

        The quartile sum is divided by ``quartile_span`` (five times the
        scale range) and the centroid distance by ``centroid_span``
        (``hypot(range, 0.5)``). Area and perimeter differ relative to the
        larger operand, and two zeros count as identical (0/0 -> 0).
        """
        qa0, qa1, qa2, qa3, qa4, xa, ya, area_a, height_a, perimeter_a, agree_a = a
        qb0, qb1, qb2, qb3, qb4, xb, yb, area_b, height_b, perimeter_b, agree_b = b
        area_max = max(area_a, area_b)
        perimeter_max = max(perimeter_a, perimeter_b)
        return (
            (abs(qa0 - qb0) + abs(qa1 - qb1) + abs(qa2 - qb2) + abs(qa3 - qb3)
             + abs(qa4 - qb4)) / self.quartile_span,
            math.hypot(xa - xb, ya - yb) / self.centroid_span,
            abs(area_a - area_b) / area_max if area_max > 0 else 0.0,
            abs(height_a - height_b),
            abs(perimeter_a - perimeter_b) / perimeter_max if perimeter_max > 0 else 0.0,
            abs(agree_a - agree_b),
        )

    def _attribute(self, a: tuple[float, ...], b: tuple[float, ...]) -> float:
        """One minus the squared-weight sum of the feature differences of
        two attribute rows, added in weight order."""
        w0, w1, w2, w3, w4, w5 = _SQUARED_WEIGHTS
        f0, f1, f2, f3, f4, f5 = self.features(a, b)
        return 1.0 - (w0 * f0 + w1 * f1 + w2 * f2 + w3 * f3 + w4 * f4 + w5 * f5)

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


def measure_similarity(measure: str, a: FuzzyNumber, b: FuzzyNumber) -> float:
    """The similarity of two numbers under 'jaccard', 'attribute', or 'combined'.

    The scale is read from the operands; operands on two scales raise
    ScaleMismatch. The Jaccard overlap is zero exactly when the two numbers
    share no support at any evaluation point; its denominator cannot vanish,
    as each operand is positive at its own endpoints.
    """
    kernel = PairKernel(measure, a.scale)
    return kernel(kernel.prepare(a), kernel.prepare(b))


def feature_vector(
    a: FuzzyNumber, b: FuzzyNumber
) -> tuple[float, float, float, float, float, float]:
    """Six comparison features of a pair of fuzzy numbers on one scale, in
    weight order: quartile, centroid, area, height, perimeter, agreement.

    The quartile sum is divided by five times the scale range and the
    centroid distance by ``hypot(range, 0.5)``, as in ``PairKernel.features``;
    area and perimeter differ relative to the larger operand; height and
    agreement ratio are absolute differences of values already in [0, 1].
    Operands on two scales raise ScaleMismatch.
    """
    check_same_scale(a, b)
    kernel = PairKernel("attribute", a.scale)
    return kernel.features(attribute_row(a), attribute_row(b))


def jaccard(a: FuzzyNumber, b: FuzzyNumber) -> float:
    """perfbench/spans.py patches this; it goes with ROADMAP E's benchmark half."""
    return measure_similarity("jaccard", a, b)


def attribute_similarity(a: FuzzyNumber, b: FuzzyNumber) -> float:
    """perfbench/spans.py patches this; it goes with ROADMAP E's benchmark half."""
    return measure_similarity("attribute", a, b)


def similarity_matrix(
    measure: str, numbers: Sequence[FuzzyNumber]
) -> list[list[float]]:
    """Pairwise similarity of the numbers as a symmetric list of rows.

    Row i, column j holds ``measure_similarity(measure, numbers[i],
    numbers[j])``. Each number is prepared once; each pair with
    i <= j is evaluated once, in row-major order, and mirrored to [j][i].
    The diagonal is evaluated too, so an error surfaces on the same pair as
    in a full row-major loop.
    """
    _check_measure(measure)
    if not numbers:
        return []
    kernel = PairKernel(measure, numbers[0].scale)
    prepared = [kernel.prepare(fz) for fz in numbers]
    size = len(prepared)
    matrix = [[0.0] * size for _ in range(size)]
    for i, a in enumerate(prepared):
        row = matrix[i]
        for j in range(i, size):
            row[j] = matrix[j][i] = kernel(a, prepared[j])
    return matrix
