"""Aggregated fuzzy numbers from interval-valued data.

Build piecewise-constant fuzzy numbers whose membership at x is the fraction
of source intervals containing x, compare them under a similarity measure
named in MEASURES (measure_similarity for a pair, similarity_matrix for
many), rank them against ideal references or by the universal centroid
order, and run a multi-criteria closeness pipeline on top. Every ranking,
TOPSIS too, is a RankingResult.

Every name in __all__ but errors and __version__ is exported lazily (PEP
562): its first access imports the module that defines it, so a program, or
a CLI job, loads only the modules whose names it reads, and `import iaarank`
alone loads only errors. dir() and `from iaarank import *` see all of
__all__.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    "AttributeVector": "attributes",
    "CriterionIdeals": "topsis",
    "DecisionMatrix": "topsis",
    "FuzzyNumber": "fuzzy",
    "IntervalSet": "intervals",
    "MEASURES": "intervals",
    "MultiCriteriaDataset": "intervals",
    "RankingEntry": "ranking",
    "RankingResult": "ranking",
    "ScaleConfig": "intervals",
    "TopsisEntry": "topsis",
    "TopsisResult": "topsis",
    "attribute_vector": "attributes",
    "bundled_path": "intervals",
    "construct_fuzzy": "fuzzy",
    "evaluation_points": "fuzzy",
    "feature_vector": "attributes",
    "ideal_interval_set": "intervals",
    "ideal_ratio": "ranking",
    "load_dataset": "intervals",
    "measure_similarity": "similarity",
    "membership_polyline": "attributes",
    "midpoint_mean": "intervals",
    "rank_baseline_mean": "ranking",
    "rank_by_ideal_ratio": "ranking",
    "rank_universal": "ranking",
    "select_ideals": "topsis",
    "separations": "topsis",
    "similarity_matrix": "similarity",
    "topsis_rank": "topsis",
}

__all__ = [*_EXPORTS, "errors", "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
