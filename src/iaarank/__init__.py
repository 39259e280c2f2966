"""Aggregated fuzzy numbers from interval-valued data.

Build piecewise-constant fuzzy numbers whose membership at x is the fraction
of source intervals containing x, compare them with overlap and attribute
similarity measures, rank them against ideal references or by the universal
centroid order, and run a multi-criteria closeness pipeline on top.
"""

from . import errors
from .attributes import (
    AttributeVector,
    attribute_vector,
    feature_vector,
    membership_polyline,
)
from .fuzzy import (
    FuzzyNumber,
    construct_fuzzy,
    evaluation_points,
)
from .intervals import (
    IntervalSet,
    MultiCriteriaDataset,
    ScaleConfig,
    bundled_path,
    ideal_interval_set,
    load_dataset,
    midpoint_mean,
)
from .ranking import (
    RankingEntry,
    RankingResult,
    ideal_ratio,
    rank_baseline_mean,
    rank_by_ideal_ratio,
    rank_universal,
)
from .similarity import (
    MEASURES,
    attribute_similarity,
    combined_similarity,
    jaccard,
    measure_similarity,
    similarity_matrix,
)
from .topsis import (
    CriterionIdeals,
    DecisionMatrix,
    TopsisEntry,
    TopsisResult,
    select_ideals,
    separations,
    topsis_rank,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeVector",
    "CriterionIdeals",
    "DecisionMatrix",
    "FuzzyNumber",
    "IntervalSet",
    "MEASURES",
    "MultiCriteriaDataset",
    "RankingEntry",
    "RankingResult",
    "ScaleConfig",
    "TopsisEntry",
    "TopsisResult",
    "attribute_similarity",
    "attribute_vector",
    "bundled_path",
    "combined_similarity",
    "construct_fuzzy",
    "errors",
    "evaluation_points",
    "feature_vector",
    "ideal_interval_set",
    "ideal_ratio",
    "jaccard",
    "load_dataset",
    "measure_similarity",
    "membership_polyline",
    "midpoint_mean",
    "rank_baseline_mean",
    "rank_by_ideal_ratio",
    "rank_universal",
    "select_ideals",
    "separations",
    "similarity_matrix",
    "topsis_rank",
    "__version__",
]
