"""No rank, tie or number depends on the order of the input rows.

One drawn dataset is written twice: as drawn, and with its rows permuted, so
that alternatives and criteria first appear in another order, and with each
cell's sources relabelled by a drawn permutation, so that the loader meets
each cell's intervals in another order. ``--weights`` and ``--directions``
follow the criteria. ``cli.main`` runs each subcommand that ranks or compares
on both files; the two outputs must be the same as mappings, every number
bit for bit, and may differ only in the order of their listings.

The cells come from a small pool, so alternatives share cells in different
criteria: where the weights are equal the method ties them, whatever order
their terms are added in, and float addition left to right would not.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from iaarank.cli import main

SCALE = ["--scale-min", "0", "--scale-max", "10"]
EPSILONS = (0.0, 1e-9, 1e-6, 0.01)


def run(path, *argv):
    """The parsed JSON stdout of one in-process job on path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--input", str(path), *SCALE, "--format", "json"])
    assert (code, err.getvalue()) == (0, ""), argv
    return json.loads(out.getvalue())


def write(path, rows):
    path.write_text(
        "alternative,criterion,source,left,right\n"
        + "".join(",".join(map(str, row)) + "\n" for row in rows),
        encoding="utf-8",
    )
    return path


def ranking(payload):
    """A ranking as a mapping: each label's entry, and the tie groups as sets."""
    return (
        {entry["label"]: entry for entry in payload["entries"]},
        {frozenset(group) for group in payload["ties"]},
    )


# Non-integer endpoints in tenths and hundredths, from a few grid points, so
# that cells overlap and many keys and similarities are exactly equal.
endpoints = st.integers(0, 1000).map(lambda k: k / 100)
intervals = st.tuples(endpoints, endpoints).map(sorted).map(tuple)
weights = st.integers(1, 499).filter(lambda k: k % 100).map(lambda k: k / 100)


@st.composite
def datasets(draw):
    """(rows as drawn, rows permuted and relabelled, criteria as drawn,
    criteria in their permuted first-appearance order, weights, directions)."""
    sources = draw(st.integers(3, 4))
    alternatives = [f"A{i}" for i in range(draw(st.integers(2, 5)))]
    criteria = [f"c{j}" for j in range(draw(st.integers(3, 4)))]
    pool = draw(st.lists(st.lists(intervals, min_size=sources, max_size=sources),
                         min_size=2, max_size=4))
    rows = [
        (alternative, criterion, f"s{k}", left, right)
        for alternative in alternatives
        for criterion in criteria
        for k, (left, right) in enumerate(draw(st.sampled_from(pool)))
    ]
    names = [f"s{k}" for k in range(sources)]
    relabel = {
        (alternative, criterion): dict(zip(names, draw(st.permutations(names))))
        for alternative in alternatives
        for criterion in criteria
    }
    permuted = [
        (alternative, criterion, relabel[alternative, criterion][source], left, right)
        for alternative, criterion, source, left, right in draw(st.permutations(rows))
    ]
    return (
        rows,
        permuted,
        criteria,
        list(dict.fromkeys(row[1] for row in permuted)),
        {criterion: draw(weights) for criterion in criteria},
        {criterion: draw(st.sampled_from("bc")) for criterion in criteria},
    )


@settings(max_examples=100, deadline=None)
@given(datasets(), st.sampled_from(EPSILONS), st.data())
def test_no_output_depends_on_the_input_order(tmp_path_factory, dataset, epsilon, data):
    rows, permuted, criteria, reordered, weight, direction = dataset
    folder = tmp_path_factory.mktemp("orders")
    files = (write(folder / "drawn.csv", rows), write(folder / "permuted.csv", permuted))
    orders = (criteria, reordered)
    criterion = data.draw(st.sampled_from(criteria))
    measure = data.draw(st.sampled_from(("jaccard", "attribute", "combined")))
    topsis_measure = data.draw(st.sampled_from(("attribute", "combined")))

    def both(argv_of):
        return [run(path, *argv_of(order)) for path, order in zip(files, orders)]

    drawn, moved = both(lambda order: [
        "topsis", "--measure", topsis_measure, "--epsilon", repr(epsilon),
        "--weights=" + ",".join(repr(weight[c]) for c in order),
        "--directions", ",".join(direction[c] for c in order),
    ])
    assert ranking(drawn) == ranking(moved)
    assert {ideal["criterion"]: ideal for ideal in drawn["ideals"]} == {
        ideal["criterion"]: ideal for ideal in moved["ideals"]}

    for method in ("universal", "ideal-ratio", "baseline"):
        drawn, moved = both(lambda order: [
            "rank", "--method", method, "--measure", "combined",
            "--criterion", criterion, "--epsilon", repr(epsilon)])
        assert ranking(drawn) == ranking(moved), method

    drawn, moved = both(lambda order: [
        "similarity", "--matrix", "--measure", measure, "--criterion", criterion])
    pairs = [
        {(a, b): value
         for a, row in zip(payload["labels"], payload["matrix"])
         for b, value in zip(payload["labels"], row)}
        for payload in (drawn, moved)
    ]
    assert pairs[0] == pairs[1]
