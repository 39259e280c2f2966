"""The benchmark's workloads and the seeded dataset generator.

Each workload is one `iaarank` CLI job on a generated long-format CSV. The
program only ever sees the written file; the generated cells stay in memory
so the checker can feed the same raw intervals to the brute-force oracle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass, replace
from pathlib import Path

SCALE_MIN = 0.0
SCALE_MAX = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    alternatives: int
    criteria: int
    sources: int
    lattice: bool  # integer endpoints, so bounds coincide and spikes appear
    args: tuple[str, ...]  # subcommand and its options; input and scale are added

    def shape(self) -> str:
        endpoints = "integer-lattice" if self.lattice else "continuous"
        return (
            f"m={self.alternatives} x c={self.criteria} x n={self.sources}, "
            f"{endpoints} endpoints"
        )

    def argv(self, dataset: Path) -> list[str]:
        return [
            *self.args,
            "--input", str(dataset),
            "--scale-min", repr(SCALE_MIN),
            "--scale-max", repr(SCALE_MAX),
        ]

    def tiny(self) -> Workload:
        """The same job on a dataset small enough for a schema test."""
        return replace(
            self,
            alternatives=min(self.alternatives, 6),
            sources=min(self.sources, 4),
        )


# Sizes are chosen so that each workload's dominant layer is the one named in
# its comment; the traced run reports the shares that confirm it.
WORKLOADS = {
    # fuzzy construction dominates; no similarity, ranking or TOPSIS.
    "build-wide": Workload(
        "build-wide", 4, 1, 600, False, ("build", "--format", "json")
    ),
    # all-pairs similarity dominates (Jaccard most); construction is tiny.
    "matrix-combined": Workload(
        "matrix-combined", 80, 1, 10, False,
        ("similarity", "--matrix", "--measure", "combined", "--format", "json"),
    ),
    # shared lattice bounds; every layer takes a comparable share.
    "topsis-lattice": Workload(
        "topsis-lattice", 100, 8, 15, True,
        (
            "topsis", "--measure", "combined",
            "--weights", "3,1,2,1,3,2,1,2",
            "--directions", "b,c,b,b,c,b,c,b",
            "--format", "json",
        ),
    ),
    # the loader and the ranking sort carry most of the job; similarity
    # always compares against the same two spike ideals.
    "rank-many": Workload(
        "rank-many", 1500, 1, 5, False,
        (
            "rank", "--method", "ideal-ratio", "--measure", "combined",
            "--format", "json",
        ),
    ),
}


def _label(prefix: str, index: int, count: int) -> str:
    return f"{prefix}{index:0{len(str(count))}d}"


def generate(workload: Workload, seed: int) -> dict[tuple[str, str], list[tuple[float, float]]]:
    """Interval pairs per (alternative, criterion) cell, in source order.

    Each cell scatters its sources around its own centre, so alternatives
    differ and the intervals of one cell overlap. The same seed always gives
    the same cells.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    cells = {}
    for a in range(workload.alternatives):
        alternative = _label("A", a, workload.alternatives)
        for c in range(workload.criteria):
            criterion = _label("C", c, workload.criteria)
            if workload.lattice:
                centre = rng.randint(2, 8)
                pairs = [
                    (rng.randint(max(0, centre - 3), centre),
                     rng.randint(centre, min(10, centre + 3)))
                    for _ in range(workload.sources)
                ]
            else:
                centre = rng.uniform(2.0, 8.0)
                pairs = [
                    (rng.uniform(centre - 2.0, centre), rng.uniform(centre, centre + 2.0))
                    for _ in range(workload.sources)
                ]
            cells[(alternative, criterion)] = [
                (float(left), float(right)) for left, right in pairs
            ]
    return cells


def dataset_csv(workload: Workload, cells) -> bytes:
    """The long-format CSV the program reads, written by csv.writer."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("alternative", "criterion", "source", "left", "right"))
    for (alternative, criterion), pairs in cells.items():
        for s, (left, right) in enumerate(pairs):
            source = _label("S", s, workload.sources)
            writer.writerow((alternative, criterion, source, repr(left), repr(right)))
    return buffer.getvalue().encode("utf-8")


def write_dataset(workload: Workload, seed: int, path: Path):
    """Generate, write, and return (cells, sha256 of the written file)."""
    cells = generate(workload, seed)
    data = dataset_csv(workload, cells)
    path.write_bytes(data)
    return cells, hashlib.sha256(data).hexdigest()
