"""Complexity targets checked by counting, not timing.

A path's Python-level work is the number of line events ``sys.settrace``
reports in iaarank's own frames. Each path runs at two sizes whose unit
counts are about ten times apart, on the worst shapes for it, and its count
may grow by at most the growth of its unit count plus SLACK: a quadratic loop grows a hundredfold,
and an n log n loop in Python about fifteenfold. The sorts run in C and are
not counted, so the O(n log n) construction counts as linear. No absolute
count is asserted: counts differ between Python versions. The line events
per unit of each path and shape, at both sizes:

    PYTHONPATH=src:tests python3 tests/test_complexity.py
"""

import atexit
import csv
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

import iaarank
from iaarank import (
    IntervalSet,
    ScaleConfig,
    construct_fuzzy,
    ideal_interval_set,
    load_dataset,
    rank_by_ideal_ratio,
    rank_universal,
    similarity_matrix,
)
from iaarank.similarity import _overlap

SLACK = 1.0
SCALE = ScaleConfig(0.0, 1000.0)
PACKAGE = str(Path(iaarank.__file__).parent)
IDEALS = [construct_fuzzy(ideal_interval_set(SCALE, 5, which), SCALE)
          for which in ("best", "worst")]


def line_events(call) -> int:
    """Line events in iaarank's frames while call() runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def intervals(shape: str, n: int, seed: int = 0, low=0.0, high=1000.0) -> IntervalSet:
    """n source intervals on [low, high]: random, all equal, nested in one
    another, or disjoint side by side."""
    rng = random.Random(seed)
    width = high - low
    if shape == "random":
        pairs = [sorted((rng.uniform(low, high), rng.uniform(low, high))) for _ in range(n)]
    elif shape == "equal":
        pairs = [(low + width / 4, high - width / 4)] * n
    elif shape == "nested":
        pairs = [(low + width * i / (2 * n), high - width * i / (2 * n)) for i in range(n)]
    else:  # disjoint
        pairs = [(low + width * i / n, low + width * (i + 0.5) / n) for i in range(n)]
    return IntervalSet(pairs, f"{shape}{seed}")


def numbers(shape: str, m: int) -> list:
    """m new numbers of five sources each: random ones, or m equal ones,
    one tie cluster, each with no attributes computed yet."""
    if shape == "equal":
        return [construct_fuzzy(intervals("random", 5), SCALE) for _ in range(m)]
    return [construct_fuzzy(intervals("random", 5, seed), SCALE) for seed in range(m)]


def construct(shape, n):
    interval_set = intervals(shape, n)
    return (lambda: construct_fuzzy(interval_set, SCALE)), n


# Each pair of operands: one profile twice, one inside the other's support,
# supports that do not meet, and two random ones.
OPERANDS = {
    "equal": lambda n: (intervals("random", n, 1),) * 2,
    "nested": lambda n: (intervals("random", n, 1), intervals("random", n, 2, 400.0, 600.0)),
    "disjoint": lambda n: (intervals("random", n, 1, 0.0, 400.0),
                           intervals("random", n, 2, 600.0, 1000.0)),
    "random": lambda n: (intervals("random", n, 1), intervals("random", n, 2)),
}


def overlap(shape, n):
    a, b = (construct_fuzzy(s, SCALE).profile for s in OPERANDS[shape](n))
    return (lambda: _overlap(a, b)), len(a[0]) + len(b[0])


def matrix(measure, shape, m):
    items = numbers(shape, m)
    return (lambda: similarity_matrix(measure, items)), m * (m + 1) // 2


def universal(shape, epsilon, m):
    items = numbers(shape, m)
    return (lambda: rank_universal(items, epsilon)), m


def ideal_ratio(shape, m):
    items = numbers(shape, m)
    return (lambda: rank_by_ideal_ratio(items, *IDEALS, "combined", 0.5)), m


FOLDER = Path(tempfile.mkdtemp(prefix="iaarank-complexity-"))
atexit.register(shutil.rmtree, FOLDER, True)


def load(order, rows):
    """rows dataset rows, five sources per cell over two criteria: grouped by
    cell in source order, grouped with each cell's sources reversed, or
    shuffled, so that every cell is out of source order and split in runs."""
    rng = random.Random(rows)
    records = []
    for cell in range(rows // 5):
        for source in range(5):
            lo, hi = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            records.append((f"A{cell // 2}", f"c{cell % 2}", f"s{source}", lo, hi))
    if order == "reversed":
        records = [row for start in range(0, rows, 5) for row in records[start:start + 5][::-1]]
    elif order == "shuffled":
        rng.shuffle(records)
    path = FOLDER / f"{order}-{rows}.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("alternative", "criterion", "source", "left", "right"))
        writer.writerows(records)
    return (lambda: load_dataset(path, SCALE)), rows


# name: (case(size) -> (call, units), the two sizes)
CASES = {
    **{f"construct_fuzzy {shape}": (lambda n, s=shape: construct(s, n), (200, 2000))
       for shape in ("random", "equal", "nested", "disjoint")},
    **{f"_overlap {shape}": (lambda n, s=shape: overlap(s, n), (100, 1000)) for shape in OPERANDS},
    **{f"similarity_matrix {measure} {shape}": (
        lambda m, measure=measure, s=shape: matrix(measure, s, m), (20, 63))
       for measure in ("jaccard", "combined") for shape in ("random", "equal")},
    **{f"rank_universal {shape} epsilon={epsilon}": (
        lambda m, s=shape, e=epsilon: universal(s, e, m), (100, 1000))
       for shape, epsilon in (("random", 1e-9), ("equal", 1e-9), ("random", 0.5))},
    **{f"rank_by_ideal_ratio {shape}": (lambda m, s=shape: ideal_ratio(s, m), (100, 1000))
       for shape in ("random", "equal")},
    **{f"load_dataset {order}": (lambda rows, o=order: load(o, rows), (500, 5000))
       for order in ("in order", "reversed", "shuffled")},
}


def growth(name):
    """(line events per unit at the smaller and the larger size, the unit
    count's growth) for one case."""
    case, sizes = CASES[name]
    counts = []
    for size in sizes:
        case(size)[0]()  # warm: any import or first-use binding happens untraced
        call, units = case(size)
        counts.append((line_events(call), units))
    (small, small_units), (large, large_units) = counts
    return small / small_units, large / large_units, large_units / small_units


@pytest.mark.skipif(sys.gettrace() is not None, reason="another tracer is installed")
@pytest.mark.parametrize("name", CASES)
def test_python_level_work_grows_linearly(name):
    small, large, factor = growth(name)
    assert factor >= 9
    assert large * factor / small <= factor + SLACK, (small, large)


if __name__ == "__main__":
    for name in CASES:
        small, large, factor = growth(name)
        print(f"{name}: {small:.1f} and {large:.1f} line events per unit, "
              f"count grows {large * factor / small:.2f}x for {factor:.2f}x the units")
