"""Memory stays bounded when one process runs many jobs, and a job leaves
no cyclic garbage that grows with its input."""

import contextlib
import gc
import io
import tracemalloc

import pytest

from iaarank import (
    ScaleConfig,
    bundled_path,
    construct_fuzzy,
    ideal_interval_set,
    load_dataset,
    rank_by_ideal_ratio,
)
from iaarank.cli import main

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


COMMANDS = [
    ["build", "--format", "json"],
    ["attributes", "--format", "csv"],
    ["similarity", "--matrix", "--criterion", "c0", "--format", "json"],
    ["rank", "--method", "ideal-ratio", "--criterion", "c0"],
    ["rank", "--method", "universal", "--criterion", "c0", "--format", "csv"],
    ["topsis", "--weights", "2,1", "--directions", "b,c", "--format", "json"],
    ["plotdata"],
]


def write_grid(path, alternatives, sources):
    """Two criteria; each source rates each cell with one interval."""
    lines = ["alternative,criterion,source,left,right"]
    for a in range(alternatives):
        for c in range(2):
            for s in range(sources):
                left = (a * 7 + c * 3 + s * 5) % 9
                lines.append(f"A{a},c{c},s{s},{left},{left + (a + s) % 3 / 2}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def cyclic_garbage(argv):
    """Objects in cycles that cli.main(argv) leaves, run with the collector
    off, as the process entry runs it."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_job_garbage_does_not_grow_with_the_input(tmp_path, command):
    # The process entry runs with the collector off because a job's data is
    # acyclic: only the argument parser's cycles are left, whatever the size.
    small = write_grid(tmp_path / "small.csv", alternatives=3, sources=2)
    large = write_grid(tmp_path / "large.csv", alternatives=12, sources=6)
    runs = {}
    for name, path in (("small", small), ("large", large)):
        argv = [*command, "--input", path, "--scale-min", "0", "--scale-max", "10"]
        cyclic_garbage(argv)  # first-use caches fill here
        runs[name] = cyclic_garbage(argv)
    assert runs["small"] == runs["large"], runs


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled):
    frozen = gc.get_freeze_count()
    if not enabled:
        gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", "--input", "films",
                         "--scale-min", "1", "--scale-max", "10"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()
