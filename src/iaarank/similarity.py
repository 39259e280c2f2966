"""Similarity measures between fuzzy numbers on a shared scale.

Three measures: overlap (intersection over union of memberships at the
source endpoints), attribute comparison (one minus the squared-weight
combination of the six feature differences), and their plain average.
All return values in [0, 1] with 1 for identical operands.

The overlap measure walks the sorted evaluation points once with one forward
pointer into each operand's step profile, so one pair costs O(k_a + k_b) for
k_a and k_b endpoints. All three measures are symmetric, so a similarity
matrix over m numbers evaluates the m(m+1)/2 pairs on and above the diagonal
and mirrors each value below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .attributes import feature_vector
from .errors import EmptyEvaluation
from .fuzzy import FuzzyNumber, check_same_scale, evaluation_points
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


def jaccard(a: FuzzyNumber, b: FuzzyNumber) -> float:
    """Sum of minimum over sum of maximum memberships at the endpoint union.

    Zero exactly when the two numbers share no support at any evaluation
    point. The denominator cannot vanish for properly constructed inputs
    (each operand is positive at its own endpoints); the guard is defensive.

    The points ascend, so each operand's breakpoint pointer only moves
    forward; it stops at the first breakpoint not below x, the index one
    bisection would find, and reads the same membership as
    ``FuzzyNumber.membership``.
    """
    check_same_scale(a, b)
    xs_a, points_a, segments_a = a.profile
    xs_b, points_b, segments_b = b.profile
    k_a = len(xs_a)
    k_b = len(xs_b)
    i = j = 0
    numerator = 0.0
    denominator = 0.0
    for x in evaluation_points(a, b):
        while i < k_a and xs_a[i] < x:
            i += 1
        while j < k_b and xs_b[j] < x:
            j += 1
        mu_a = points_a[i] if i < k_a and xs_a[i] == x else segments_a[i]
        mu_b = points_b[j] if j < k_b and xs_b[j] == x else segments_b[j]
        if mu_a <= mu_b:
            numerator += mu_a
            denominator += mu_b
        else:
            numerator += mu_b
            denominator += mu_a
    if denominator <= 0:
        raise EmptyEvaluation("zero membership at every evaluation point")
    return numerator / denominator


def attribute_similarity(
    a: FuzzyNumber,
    b: FuzzyNumber,
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
    scale: ScaleConfig | None = None,
) -> float:
    """One minus the squared-weight combination of the six feature differences."""
    features = feature_vector(a, b, scale)
    return 1.0 - sum(
        w2 * f for w2, f in zip(weights.squared(), features.as_tuple())
    )


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
    return (jaccard(a, b) + attribute_similarity(a, b, weights, scale)) / 2


def measure_similarity(
    measure: str,
    a: FuzzyNumber,
    b: FuzzyNumber,
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
    scale: ScaleConfig | None = None,
) -> float:
    """Dispatch by measure name: 'jaccard', 'attribute', or 'combined'."""
    if measure == "jaccard":
        return jaccard(a, b)
    if measure == "attribute":
        return attribute_similarity(a, b, weights, scale)
    if measure == "combined":
        return combined_similarity(a, b, weights, scale)
    raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def similarity_matrix(
    measure: str,
    numbers: Sequence[FuzzyNumber],
    weights: SimilarityWeights = DEFAULT_WEIGHTS,
) -> list[list[float]]:
    """Pairwise similarity of the numbers as a symmetric list of rows.

    Row i, column j holds ``measure_similarity(measure, numbers[i],
    numbers[j], weights)``. Each pair with i <= j is evaluated once, in
    row-major order, and mirrored to [j][i]; the diagonal is evaluated too,
    so an error surfaces on the same pair as in a full row-major loop.
    """
    size = len(numbers)
    matrix = [[0.0] * size for _ in range(size)]
    for i, a in enumerate(numbers):
        for j in range(i, size):
            matrix[i][j] = matrix[j][i] = measure_similarity(
                measure, a, numbers[j], weights
            )
    return matrix
