"""Check one job's output against the brute-force oracle in tests/oracle.py.

`check(workload, cells, output, oracle, seed)` returns the list of problems
found; an empty list means the output is correct. The oracle works on the
raw interval pairs the generator wrote, so nothing here reuses the
program's own parsing or arithmetic.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

from workloads import SCALE_MAX, SCALE_MIN, Workload

TOLERANCE = 1e-9
SAMPLES = 24


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", root / "tests" / "oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(value, expected) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= TOLERANCE


def _ranks_follow(values: list[float], ranks: list[int]) -> bool:
    """Competition ranks over non-increasing values.

    A strictly lower value starts a new rank at its 1-based position; an
    equal value may share the previous rank (a tie) or take its position
    (a tie broken by a secondary key).
    """
    for position, rank in enumerate(ranks):
        fresh = position + 1
        if position and values[position] == values[position - 1]:
            if rank not in (ranks[position - 1], fresh):
                return False
        elif rank != fresh:
            return False
    return True


def _check_build(workload, cells, payload, oracle, rng):
    if [(r["alternative"], r["criterion"]) for r in payload] != list(cells):
        return ["build: records do not follow the dataset's cells"]
    problems = []
    for record in payload:
        pairs = cells[(record["alternative"], record["criterion"])]
        cell = f"{record['alternative']}/{record['criterion']}"
        expected = [list(t) for t in oracle.brute_regions(pairs)]
        if record["regions"] != expected:
            problems.append(f"build: regions of {cell} differ from the oracle")
        if record["n"] != len(pairs):
            problems.append(f"build: n of {cell} is {record['n']}")
        if record["endpoints"] != sorted({v for pair in pairs for v in pair}):
            problems.append(f"build: endpoints of {cell} differ")
    return problems


def _check_matrix(workload, cells, payload, oracle, rng):
    labels = [alternative for alternative, _ in cells]
    if payload["labels"] != labels or payload["measure"] != "combined":
        return ["matrix: labels or measure differ"]
    matrix = payload["matrix"]
    size = len(labels)
    if len(matrix) != size or any(len(row) != size for row in matrix):
        return ["matrix: not square over the labels"]
    problems = []
    for i in range(size):
        if matrix[i][i] != 1.0:
            problems.append(f"matrix: diagonal {labels[i]} is {matrix[i][i]}")
        for j in range(i):
            if matrix[i][j] != matrix[j][i]:
                problems.append(f"matrix: asymmetric at {labels[i]}/{labels[j]}")
    columns = list(cells.values())
    for _ in range(SAMPLES):
        i, j = rng.randrange(size), rng.randrange(size)
        expected = oracle.brute_combined_similarity(
            columns[i], columns[j], SCALE_MIN, SCALE_MAX
        )
        if not _close(matrix[i][j], expected):
            problems.append(
                f"matrix: {labels[i]}/{labels[j]} is {matrix[i][j]}, oracle {expected}"
            )
    return problems


def _check_ranking_order(name, labels, entries, key):
    if sorted(e["label"] for e in entries) != sorted(labels):
        return [f"{name}: entries do not cover every alternative once"]
    values = [e[key] for e in entries]
    problems = []
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append(f"{name}: {key} increases down the ranking")
    if not _ranks_follow(values, [e["rank"] for e in entries]):
        problems.append(f"{name}: ranks do not follow {key}")
    return problems


def _check_topsis(workload, cells, payload, oracle, rng):
    alternatives = list(dict.fromkeys(a for a, _ in cells))
    criteria = list(dict.fromkeys(c for _, c in cells))
    entries = payload["entries"]
    problems = _check_ranking_order("topsis", alternatives, entries, "closeness")
    if problems:
        return problems
    for e in entries:
        total = e["d_plus"] + e["d_minus"]
        expected = e["d_minus"] / total if total > 0 else 0.5
        if e["closeness"] != expected:
            problems.append(f"topsis: closeness of {e['label']} is not D-/(D+ + D-)")
    ideals = payload["ideals"]
    if [ideal["criterion"] for ideal in ideals] != criteria or any(
        ideal["pis"] not in alternatives or ideal["nis"] not in alternatives
        for ideal in ideals
    ):
        return problems + ["topsis: ideals do not name one alternative per criterion"]
    raw = [float(w) for w in workload.args[workload.args.index("--weights") + 1].split(",")]
    weights = [w / sum(raw) for w in raw]
    for e in rng.sample(entries, min(SAMPLES, len(entries))):
        separation = {"pis": 0.0, "nis": 0.0}
        for weight, criterion, ideal in zip(weights, criteria, ideals):
            for side in separation:
                similarity = oracle.brute_combined_similarity(
                    cells[(e["label"], criterion)],
                    cells[(ideal[side], criterion)],
                    SCALE_MIN,
                    SCALE_MAX,
                )
                separation[side] += weight * (1.0 - similarity)
        if not (_close(e["d_plus"], separation["pis"])
                and _close(e["d_minus"], separation["nis"])):
            problems.append(f"topsis: D+/D- of {e['label']} differ from the oracle")
    return problems


def _check_rank(workload, cells, payload, oracle, rng):
    labels = [alternative for alternative, _ in cells]
    entries = payload["entries"]
    problems = _check_ranking_order("rank", labels, entries, "score")
    if problems:
        return problems
    sources = max(len(pairs) for pairs in cells.values())
    best = [(SCALE_MAX, SCALE_MAX)] * sources
    worst = [(SCALE_MIN, SCALE_MIN)] * sources
    columns = {alternative: pairs for (alternative, _), pairs in cells.items()}
    for e in rng.sample(entries, min(SAMPLES, len(entries))):
        pairs = columns[e["label"]]
        s_best = oracle.brute_combined_similarity(pairs, best, SCALE_MIN, SCALE_MAX)
        s_worst = oracle.brute_combined_similarity(pairs, worst, SCALE_MIN, SCALE_MAX)
        if not _close(e["score"], s_best / (s_best + s_worst)):
            problems.append(f"rank: score of {e['label']} differs from the oracle")
    return problems


CHECKS = {
    "build": _check_build,
    "similarity": _check_matrix,
    "topsis": _check_topsis,
    "rank": _check_rank,
}


def check(workload: Workload, cells, output: bytes, oracle, seed: int) -> list[str]:
    """Problems in one job's stdout, or [] when it matches the oracle."""
    try:
        payload = json.loads(output)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    rng = random.Random(f"check:{workload.name}:{seed}")
    try:
        return CHECKS[workload.args[0]](workload, cells, payload, oracle, rng)
    except (KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"output has an unexpected shape: {exc!r}"]
