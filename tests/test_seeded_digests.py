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
        "789e20af0822334190c77cfa18d53297058440d9ade98e6c978cd7aa658c2c75",
    "build on lattice":
        "669e970a7f91c14d072222ff537d3749aceb0089c45c1c8173140c583125dbfe",
    "rank --method ideal-ratio on continuous":
        "34eff024399643d0d6c0e3828f942187b13fb225396f38ef5b23e4373e8b1864",
}


def write_dataset(directory, name):
    rows, seed = DATASETS[name]
    path = directory / f"{name}.csv"
    lines = ["alternative,criterion,source,left,right"]
    lines += [",".join(row) for row in rows(random.Random(seed))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_unchanged(name, tmp_path):
    dataset, argv = RUNS[name]
    path = write_dataset(tmp_path, dataset)
    assert digest([*argv, "--input", str(path), *SCALE]) == (0, DIGESTS[name])
