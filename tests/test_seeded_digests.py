"""CLI stdout pinned byte for byte on seeded synthetic datasets.

The bundled datasets in ``test_cli_golden`` are small; these runs feed the
construction and attribute kernels hundreds of cells. The integer-lattice
dataset makes many bounds coincide, so its cells carry spikes and repeated
breakpoints; the continuous one gives distinct bounds. The datasets are
written from a fixed seed, so the digests hold on every supported Python.
"""

import random

import pytest

from test_cli_golden import digest

SCALE = ["--scale-min", "0", "--scale-max", "10"]


def lattice_rows(rng):
    """60 alternatives x 4 criteria x 15 sources on integer bounds."""
    for a in range(60):
        for c in range(4):
            centre = rng.randint(2, 8)
            for s in range(15):
                left = rng.randint(max(0, centre - 3), centre)
                right = rng.randint(centre, min(10, centre + 3))
                yield f"A{a:02d}", f"C{c}", f"S{s:02d}", repr(left), repr(right)


def continuous_rows(rng):
    """400 alternatives x 1 criterion x 5 sources on continuous bounds."""
    for a in range(400):
        centre = rng.uniform(2.0, 8.0)
        for s in range(5):
            left = rng.uniform(centre - 2.0, centre)
            right = rng.uniform(centre, centre + 2.0)
            yield f"A{a:03d}", "C0", f"S{s}", repr(left), repr(right)


DATASETS = {"lattice": (lattice_rows, 11), "continuous": (continuous_rows, 12)}

RUNS = {
    "topsis on lattice": (
        "lattice",
        ["topsis", "--measure", "combined", "--weights", "3,1,2,1",
         "--directions", "b,c,b,c", "--format", "json"],
    ),
    "build on lattice": ("lattice", ["build", "--format", "json"]),
    "rank --method ideal-ratio on continuous": (
        "continuous",
        ["rank", "--method", "ideal-ratio", "--measure", "combined", "--format", "json"],
    ),
}

DIGESTS = {
    "topsis on lattice":
        "3d60f3367e7e018818c17eddadbe944d07bc7e9a872055abcbb522e4be228f9c",
    "build on lattice":
        "669e970a7f91c14d072222ff537d3749aceb0089c45c1c8173140c583125dbfe",
    "rank --method ideal-ratio on continuous":
        "34eff024399643d0d6c0e3828f942187b13fb225396f38ef5b23e4373e8b1864",
}


def in_file_order(cells):
    return [row for cell in cells for row in cell]


def in_reverse_source_order(cells):
    """Each cell's rows in reverse source order, so the loader sorts every
    cell."""
    return [row for cell in cells for row in reversed(cell)]


def in_two_runs(cells):
    """The first half of every cell's rows, then the second halves, so the
    loader meets every cell in two runs."""
    halves = [(cell[:len(cell) // 2], cell[len(cell) // 2:]) for cell in cells]
    return [row for half in zip(*halves) for cell in half for row in cell]


ROW_ORDERS = {"reverse source order": in_reverse_source_order, "two runs": in_two_runs}


def write_dataset(directory, name, order=in_file_order):
    """The seeded dataset's rows, in the given order of each cell's rows;
    every order keeps the first-appearance order of the labels."""
    rows, seed = DATASETS[name]
    cells = {}
    for row in rows(random.Random(seed)):
        cells.setdefault(row[:2], []).append(row)
    path = directory / f"{name}.csv"
    lines = ["alternative,criterion,source,left,right"]
    lines += [",".join(row) for row in order(list(cells.values()))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_unchanged(name, tmp_path):
    dataset, argv = RUNS[name]
    path = write_dataset(tmp_path, dataset)
    assert digest([*argv, "--input", str(path), *SCALE]) == (0, DIGESTS[name])


@pytest.mark.parametrize("order", sorted(ROW_ORDERS))
@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_unchanged_in_other_row_orders(name, order, tmp_path):
    dataset, argv = RUNS[name]
    path = write_dataset(tmp_path, dataset, ROW_ORDERS[order])
    assert digest([*argv, "--input", str(path), *SCALE]) == (0, DIGESTS[name])
