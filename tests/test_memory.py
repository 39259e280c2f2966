"""Memory stays bounded when one process runs many jobs."""

import gc
import tracemalloc

from iaarank import (
    ScaleConfig,
    bundled_path,
    construct_fuzzy,
    ideal_interval_set,
    load_dataset,
    rank_by_ideal_ratio,
)

ROUNDS = 200
WARM_UP = 20
SLACK_BYTES = 32 * 1024


def one_round(path, scale):
    dataset = load_dataset(path, scale)
    numbers = [construct_fuzzy(cell, scale) for cell in dataset.column("overall")]
    n = max(cell.n for cell in dataset.cells.values())
    best = construct_fuzzy(ideal_interval_set(scale, n, "best"), scale)
    worst = construct_fuzzy(ideal_interval_set(scale, n, "worst"), scale)
    return rank_by_ideal_ratio(numbers, best, worst)


def test_repeated_load_construct_rank_does_not_grow():
    path, scale = bundled_path("films"), ScaleConfig(1, 10)
    first = one_round(path, scale)
    tracemalloc.start()
    try:
        for round_no in range(1, ROUNDS + 1):
            assert one_round(path, scale) == first
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
            if round_no == WARM_UP:
                baseline = largest = size
            elif round_no > WARM_UP:
                largest = max(largest, size)
    finally:
        tracemalloc.stop()
    assert largest - baseline <= SLACK_BYTES, (baseline, largest)
