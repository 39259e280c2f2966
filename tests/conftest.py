import pytest

from iaarank import (
    IntervalSet,
    ScaleConfig,
    construct_fuzzy,
    ideal_interval_set,
    rank_universal,
)
from iaarank.ranking import DEFAULT_EPSILON

# Film review fixture: five critics scoring ten films on a 1-10 scale.
FILM_INTERVALS = {
    "Film A": [(1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
    "Film B": [(5, 6), (6, 7), (10, 10), (3, 4), (5, 5)],
    "Film C": [(2, 3), (1, 3), (4, 7), (1, 3), (4, 5)],
    "Film D": [(6, 6), (6, 10), (8, 10), (5, 9), (2, 3)],
    "Film E": [(1, 4), (2, 3), (7, 8), (3, 3), (2, 4.4)],
    "Film F": [(7, 7), (8, 9.2), (9, 10), (8, 9), (9, 10)],
    "Film G": [(8, 9), (9, 10), (9.5, 9.5), (9, 10), (10, 10)],
    "Film H": [(1.5, 6.5), (3, 10), (1, 10), (2, 9.3), (8, 8.8)],
    "Film I": [(8, 8), (8, 8), (8, 8), (8, 8), (8, 8)],
    "Film J": [(10, 10), (10, 10), (10, 10), (10, 10), (10, 10)],
}

FILM_MEANS = {
    "Film A": 1.0,
    "Film B": 6.1,
    "Film C": 3.3,
    "Film D": 6.5,
    "Film E": 3.74,
    "Film F": 8.62,
    "Film G": 9.4,
    "Film H": 6.01,
    "Film I": 8.0,
    "Film J": 10.0,
}

# Reference (golden) similarity-to-ideal values for the film fixture
# as (best, worst) pairs.
JACCARD_TABLE = {
    "Film A": (0.0000, 1.0000),
    "Film B": (0.0833, 0.0000),
    "Film C": (0.0000, 0.1250),
    "Film D": (0.1176, 0.0000),
    "Film E": (0.0000, 0.0588),
    "Film F": (0.1333, 0.0000),
    "Film G": (0.2500, 0.0000),
    "Film H": (0.0667, 0.0323),
    "Film I": (0.0000, 0.0000),
    "Film J": (1.0000, 0.0000),
}

ATTRIBUTE_TABLE = {
    "Film A": (0.6377, 1.0000),
    "Film B": (0.5173, 0.4830),
    "Film C": (0.3740, 0.5527),
    "Film D": (0.5222, 0.3993),
    "Film E": (0.4215, 0.5900),
    "Film F": (0.6546, 0.3867),
    "Film G": (0.6865, 0.3747),
    "Film H": (0.4835, 0.4444),
    "Film I": (0.9195, 0.7182),
    "Film J": (1.0000, 0.6377),
}

# Spike films: their similarity values are pinned analytically, the rest are
# reconstruction targets.
SPIKE_FILMS = ("Film A", "Film I", "Film J")

IDEAL_RATIO_TABLE = {
    "Film A": 0.2418,
    "Film B": 0.5543,
    "Film C": 0.3556,
    "Film D": 0.6157,
    "Film E": 0.3938,
    "Film F": 0.6708,
    "Film G": 0.7142,
    "Film H": 0.5358,
    "Film I": 0.5615,
    "Film J": 0.7582,
}

UNIVERSAL_ORDER = ["Film J", "Film G", "Film F", "Film I", "Film D",
                   "Film H", "Film B", "Film E", "Film C", "Film A"]
IDEAL_RATIO_ORDER = ["Film J", "Film G", "Film F", "Film D", "Film I",
                     "Film B", "Film H", "Film E", "Film C", "Film A"]
BASELINE_ORDER = ["Film J", "Film G", "Film F", "Film I", "Film D",
                  "Film B", "Film H", "Film E", "Film C", "Film A"]


def make_set(label, pairs):
    return IntervalSet(pairs, label)


def universal_relation(a, b, epsilon=DEFAULT_EPSILON):
    """1 when a outranks b, -1 when b outranks a and 0 on a tie, read from
    rank_universal([a, b]); a and b carry distinct labels unless a is b."""
    first, second = rank_universal([a, b], epsilon).entries
    if first.rank == second.rank:
        return 0
    return 1 if first.label == a.label else -1


@pytest.fixture(scope="session")
def film_scale():
    return ScaleConfig(1, 10)


@pytest.fixture(scope="session")
def film_sets(film_scale):
    return {label: make_set(label, pairs) for label, pairs in FILM_INTERVALS.items()}


@pytest.fixture(scope="session")
def film_numbers(film_scale, film_sets):
    return {
        label: construct_fuzzy(iset, film_scale) for label, iset in film_sets.items()
    }


@pytest.fixture(scope="session")
def film_ideals(film_scale):
    best = construct_fuzzy(ideal_interval_set(film_scale, 5, "best"), film_scale)
    worst = construct_fuzzy(ideal_interval_set(film_scale, 5, "worst"), film_scale)
    return best, worst
