"""The merge-walk Jaccard, the symmetric similarity matrix, per-instance
attributes, and the import footprint of the package."""

import gc
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iaarank import (
    FuzzyNumber,
    Region,
    ScaleConfig,
    attribute_vector,
    canonicalize,
    combined_similarity,
    construct_fuzzy,
    evaluation_points,
    jaccard,
    measure_similarity,
    similarity_matrix,
)
from iaarank.errors import EmptyEvaluation

import oracle
from conftest import make_set
from test_profile import interval_lists, intervals, region_lists

WIDE = ScaleConfig(0, 10)
SRC = Path(__file__).resolve().parents[1] / "src"

# Endpoints drawn independently of the regions: inside stretches, outside
# the support, and often missing some region bounds.
endpoint_lists = st.lists(
    st.one_of(st.integers(-4, 48).map(lambda k: k / 4), st.floats(-1, 11)),
    max_size=30,
)


def build(label, pairs):
    return construct_fuzzy(make_set(label, pairs), WIDE)


def unchecked(regs, endpoints, label):
    """A number with arbitrary endpoints: FuzzyNumber takes them unchecked,
    while from_dict rejects endpoints that are unsorted or off the scale."""
    return FuzzyNumber(
        canonicalize(regs), endpoints=tuple(endpoints), n=1, scale=WIDE, label=label
    )


def bisection_jaccard(a, b):
    """Sum of min over sum of max of FuzzyNumber.membership at every point."""
    numerator = denominator = 0.0
    for x in evaluation_points(a, b):
        mu_a, mu_b = a.membership(x), b.membership(x)
        numerator += min(mu_a, mu_b)
        denominator += max(mu_a, mu_b)
    return numerator, denominator


@settings(max_examples=150, deadline=None)
@given(interval_lists, interval_lists)
@example([(0.0, 10.0)], [(10.0, 10.0)])
@example([(2.0, 2.0)], [(2.0, 2.0), (3.0, 3.0)])
def test_jaccard_equals_oracle(pairs_a, pairs_b):
    a, b = build("a", pairs_a), build("b", pairs_b)
    expected = oracle.brute_jaccard(pairs_a, pairs_b)
    assert jaccard(a, b) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(region_lists, endpoint_lists, region_lists, endpoint_lists)
@example([Region(0, 4, 0.5)], [2.0], [Region(1, 1, 1.0)], [-1.0, 11.0])
@example([Region(0, 4, 0.5), Region(2, 2, 1.0)], [], [Region(6, 8, 0.25)], [7.0])
def test_jaccard_on_arbitrary_endpoints_equals_membership_sums(
    regs_a, ends_a, regs_b, ends_b
):
    a = unchecked(regs_a, ends_a, "a")
    b = unchecked(regs_b, ends_b, "b")
    numerator, denominator = bisection_jaccard(a, b)
    if denominator <= 0:
        with pytest.raises(EmptyEvaluation):
            jaccard(a, b)
    else:
        assert jaccard(a, b) == numerator / denominator


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(intervals, min_size=1, max_size=12), min_size=1, max_size=8))
def test_matrix_equals_nested_loop(cells):
    numbers = [build(f"x{i}", pairs) for i, pairs in enumerate(cells)]
    for measure in ("jaccard", "attribute", "combined"):
        matrix = similarity_matrix(measure, numbers)
        assert matrix == [
            [measure_similarity(measure, a, b) for b in numbers] for a in numbers
        ]
        assert all(row[i] == 1.0 for i, row in enumerate(matrix))
        assert matrix == [list(column) for column in zip(*matrix)]


def test_matrix_of_unknown_measure_or_no_numbers():
    numbers = [build("a", [(1, 2)]), build("b", [(3, 4)])]
    with pytest.raises(ValueError, match="unknown measure"):
        similarity_matrix("cosine", numbers)
    assert similarity_matrix("jaccard", []) == []


class TestAttributesPerInstance:
    def test_computed_once_and_kept_on_the_number(self):
        fz = build("x", [(1, 3), (2, 4), (2, 2)])
        assert attribute_vector(fz) is attribute_vector(fz)

    def test_value_semantics_unchanged(self):
        fz = build("x", [(1, 3), (2, 4)])
        fresh = build("x", [(1, 3), (2, 4)])
        attribute_vector(fz)
        assert fz == fresh
        assert hash(fz) == hash(fresh)
        assert repr(fz) == repr(fresh)
        assert fz.to_dict() == fresh.to_dict()
        assert attribute_vector(fresh) == attribute_vector(fz)

    def test_number_is_freed_after_use(self):
        fz = build("x", [(1, 3), (2, 4), (5, 5)])
        other = build("y", [(2, 6)])
        attribute_vector(fz)
        combined_similarity(fz, other)
        ref = weakref.ref(fz)
        del fz
        gc.collect()
        assert ref() is None


def test_import_does_not_load_the_cli():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import iaarank; "
        "loaded = [m for m in ('iaarank.cli', 'argparse') if m in sys.modules]; "
        "print(','.join(loaded))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""
