"""The pair kernel, the symmetric similarity matrix, per-instance
attributes, and the import footprint of the package.

The kernel is checked against references that do not use it: the Jaccard of
FuzzyNumber.membership at every point of evaluation_points, and one minus
the sum of oracle.DEFAULT_WEIGHT_SQUARES times oracle.feature_terms of the
two attribute vectors. Results must be equal bit for bit, and errors must be the same, raised on the same pair."""

import gc
import json
import math
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iaarank import (
    MEASURES,
    CriterionIdeals,
    DecisionMatrix,
    ScaleConfig,
    attribute_vector,
    construct_fuzzy,
    evaluation_points,
    ideal_interval_set,
    ideal_ratio,
    measure_similarity,
    rank_by_ideal_ratio,
    separations,
    similarity_matrix,
)
import iaarank
from iaarank import attributes
from iaarank.errors import DivisionByZero, EmptyEvaluation, ScaleMismatch
from iaarank.fuzzy import check_same_scale

import oracle
from conftest import make_set
from test_profile import interval_lists, intervals, region_lists

WIDE = ScaleConfig(0, 10)
OTHER = ScaleConfig(0, 20)
SRC = Path(__file__).resolve().parents[1] / "src"

def build(label, pairs):
    return construct_fuzzy(make_set(label, pairs), WIDE)


def bisection_jaccard(a, b):
    """Sum of min over sum of max of FuzzyNumber.membership at every point."""
    numerator = denominator = 0.0
    for x in evaluation_points(a, b):
        mu_a, mu_b = a.membership(x), b.membership(x)
        numerator += min(mu_a, mu_b)
        denominator += max(mu_a, mu_b)
    return numerator, denominator


def reference_attribute(a, b):
    """One minus the squared-weight sum over the six feature terms."""
    features = oracle.feature_terms(
        attribute_vector(a), attribute_vector(b), a.scale.range
    )
    total = 0.0
    for w2, f in zip(oracle.DEFAULT_WEIGHT_SQUARES, features):
        total += w2 * f
    return 1.0 - total


def reference_similarity(measure, a, b):
    """The pair without the kernel: the scale check, then the bisection
    Jaccard, then the feature-term attribute measure."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    check_same_scale(a, b)
    if measure == "attribute":
        return reference_attribute(a, b)
    numerator, denominator = bisection_jaccard(a, b)
    if denominator <= 0:
        raise EmptyEvaluation("zero membership at every evaluation point")
    if measure == "jaccard":
        return numerator / denominator
    return (numerator / denominator + reference_attribute(a, b)) / 2


def reference_matrix(measure, numbers):
    """Pairs i <= j in row-major order, each mirrored below the diagonal."""
    size = len(numbers)
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            matrix[i][j] = matrix[j][i] = reference_similarity(
                measure, numbers[i], numbers[j]
            )
    return matrix


def reference_ratio(measure, fz, best, worst):
    s_best = reference_similarity(measure, fz, best)
    s_worst = reference_similarity(measure, fz, worst)
    if s_best + s_worst == 0:
        raise DivisionByZero(f"{fz.label or 'alternative'}: zero similarity to both ideals")
    return s_best / (s_best + s_worst)


def outcome(function, *args):
    """The value of function(*args), or the type and message it raised."""
    try:
        return function(*args)
    except (EmptyEvaluation, ScaleMismatch, DivisionByZero) as exc:
        return type(exc), str(exc)


@st.composite
def number_lists(draw, min_size=1, max_size=6, mixed_scales=True):
    """Numbers built from intervals and from region lists, labelled x0, x1,
    ...; a quarter of the lists put some numbers on a second scale."""
    mixed = mixed_scales and draw(st.booleans()) and draw(st.booleans())
    numbers = []
    for i in range(draw(st.integers(min_size, max_size))):
        scale = OTHER if mixed and draw(st.booleans()) else WIDE
        if draw(st.booleans()):
            pairs = draw(st.lists(intervals, min_size=1, max_size=12))
            numbers.append(construct_fuzzy(make_set(f"x{i}", pairs), scale))
        else:
            regions = draw(region_lists)
            numbers.append(oracle.fuzzy_from_regions(regions, scale, label=f"x{i}"))
    return numbers


# The operand shapes of the overlap merge, as (a, b) interval lists.
MERGE_SHAPES = (
    ([(1.0, 9.0), (2.0, 6.0)], [(3.0, 5.0), (4.0, 7.0)]),  # a starts first and ends last
    ([(1.0, 5.0), (2.0, 6.0)], [(3.0, 8.0), (4.0, 9.0)]),  # a starts first, b ends last
    ([(2.0, 5.0), (3.0, 4.0)], [(2.0, 7.0), (2.5, 2.5)]),  # equal starts
    ([(1.0, 6.0), (2.0, 3.0)], [(3.0, 6.0), (4.0, 6.0)]),  # equal ends
    ([(1.0, 4.0), (2.0, 3.0)], [(4.0, 7.0), (5.0, 6.0)]),  # supports touch at one point
    ([(1.0, 3.0), (2.0, 2.0)], [(5.0, 7.0), (6.0, 6.0)]),  # disjoint
    ([(5.0, 5.0)], [(5.0, 5.0), (5.0, 5.0)]),  # one-breakpoint spikes at one point
    ([(5.0, 5.0)], [(2.0, 8.0)]),  # a spike inside the other's segment
    ([(2.0, 2.0)], [(2.0, 6.0)]),  # a spike on the other's first breakpoint
)


def with_merge_shapes(test):
    """test with an @example of every merge shape in both argument orders."""
    for pairs_a, pairs_b in MERGE_SHAPES:
        a, b = build("x0", pairs_a), build("x1", pairs_b)
        test = example([a, b])(example([b, a])(test))
    return test


@settings(max_examples=200, deadline=None)
@given(number_lists(min_size=2, max_size=2))
@with_merge_shapes
def test_pair_equals_references(numbers):
    a, b = numbers
    for measure in MEASURES:
        expected = outcome(reference_similarity, measure, a, b)
        assert outcome(measure_similarity, measure, a, b) == expected


@settings(max_examples=100, deadline=None)
@given(number_lists())
def test_matrix_equals_reference_loop(numbers):
    for measure in MEASURES:
        assert outcome(similarity_matrix, measure, numbers) == outcome(
            reference_matrix, measure, numbers
        )


@settings(max_examples=100, deadline=None)
@given(number_lists(min_size=3))
def test_ideal_ratio_equals_reference_loop(numbers):
    best, worst, *items = numbers
    for measure in MEASURES:
        for fz in items:
            assert outcome(ideal_ratio, fz, best, worst, measure) == outcome(
                reference_ratio, measure, fz, best, worst
            )

        def scores(rank):
            return lambda: {e.label: e.score for e in rank().entries}

        def reference():
            return {fz.label: reference_ratio(measure, fz, best, worst) for fz in items}

        assert outcome(scores(lambda: rank_by_ideal_ratio(items, best, worst, measure))) == (
            outcome(reference)
        )


@settings(max_examples=100, deadline=None)
@given(
    number_lists(min_size=1, max_size=4, mixed_scales=False),
    st.integers(1, 3),
    number_lists(min_size=6, max_size=6),
    st.lists(st.integers(1, 4), min_size=3, max_size=3),
    st.permutations(range(3)),
)
def test_separations_equal_reference_loop(column, criteria, pool, weights, permutation):
    names = [f"c{k}" for k in range(criteria)]
    cells = {
        (fz.label, name): fz for fz in column for name in names
    }

    def decision_matrix(order):
        """The matrix with its criteria, weights and directions in order."""
        return DecisionMatrix(
            alternatives=[fz.label for fz in column],
            criteria=[names[k] for k in order],
            cells=cells,
            scale=WIDE,
            weights=[weights[k] for k in order],
            directions=[("benefit", "cost", "benefit")[k] for k in order],
        )

    matrix = decision_matrix(range(criteria))
    ideals = [
        CriterionIdeals(name, pool[2 * k], pool[2 * k + 1], False)
        for k, name in enumerate(names)
    ]
    order = [k for k in permutation if k < criteria]
    permuted = decision_matrix(order)
    for measure in ("attribute", "combined"):

        def reference(total):
            pairs = []
            for alternative in matrix.alternatives:
                plus, minus = [], []
                for index, name in enumerate(names):
                    cell, weight = matrix.cell(alternative, name), matrix.weights[index]
                    plus.append(weight * (1.0 - reference_similarity(measure, cell, ideals[index].pis)))
                    minus.append(weight * (1.0 - reference_similarity(measure, cell, ideals[index].nis)))
                pairs.append((total(plus), total(minus)))
            return pairs

        result = outcome(separations, matrix, ideals, measure)
        assert result == outcome(reference, math.fsum)
        # the exact sum, correctly rounded once, checks fsum's rounding too
        assert result == outcome(reference, lambda terms: float(sum(map(Fraction, terms))))
        if isinstance(result, list):  # an error may name another pair first
            assert separations(permuted, [ideals[k] for k in order], measure) == result


class TestErrorParity:
    """Errors surface on the same pair, with the same message, as in a loop
    over the pairs in row-major order."""

    def test_mixed_scales_name_the_first_pair(self):
        numbers = [
            build("a", [(1, 2)]),
            build("b", [(2, 3)]),
            construct_fuzzy(make_set("c", [(1, 2)]), OTHER),
            construct_fuzzy(make_set("d", [(3, 4)]), OTHER),
        ]
        for measure in MEASURES:
            with pytest.raises(ScaleMismatch) as caught:
                similarity_matrix(measure, numbers)
            assert str(caught.value) == "'a' on [0.0, 10.0] vs 'c' on [0.0, 20.0]"

    def test_division_by_zero_names_the_first_item(self, film_scale):
        best = construct_fuzzy(ideal_interval_set(film_scale, 5, "best"), film_scale)
        worst = construct_fuzzy(ideal_interval_set(film_scale, 5, "worst"), film_scale)
        touching = construct_fuzzy(make_set("touching", [(1, 3)]), film_scale)
        inside = [construct_fuzzy(make_set(label, [(4, 6)]), film_scale)
                  for label in ("first", "second")]
        with pytest.raises(DivisionByZero) as caught:
            rank_by_ideal_ratio([touching, *inside], best, worst, "jaccard")
        assert caught.value.label == "first"

    def test_unknown_measure(self):
        a, b = build("a", [(1, 2)]), build("b", [(3, 4)])
        for call in (
            lambda: measure_similarity("cosine", a, b),
            lambda: similarity_matrix("cosine", [a, b]),
            lambda: ideal_ratio(a, a, b, "cosine"),
            lambda: rank_by_ideal_ratio([a, b], a, b, "cosine"),
        ):
            with pytest.raises(ValueError, match="unknown measure"):
                call()


def test_kernel_prepares_each_number_once(monkeypatch):
    numbers = [build(f"x{i}", [(i, i + 2), (i + 1, i + 3)]) for i in range(6)]
    vectors = []
    monkeypatch.setattr(
        attributes, "attribute_vector",
        lambda fz, original=attributes.attribute_vector: vectors.append(fz) or original(fz),
    )
    similarity_matrix("combined", numbers)
    assert vectors == numbers


@settings(max_examples=150, deadline=None)
@given(interval_lists, interval_lists)
@example([(0.0, 10.0)], [(10.0, 10.0)])
@example([(2.0, 2.0)], [(2.0, 2.0), (3.0, 3.0)])
@example([(0.5, 1.0), (1.5, 4.0), (3.0, 6.0)], [(3.5, 7.0), (5.0, 8.0)])  # a leads in
@example([(3.5, 7.0), (5.0, 8.0)], [(0.5, 1.0), (1.5, 4.0), (3.0, 6.0)])  # b leads in
@example([(1.0, 9.0), (2.0, 3.0)], [(4.0, 5.0), (4.5, 6.0), (7.0, 7.0)])  # b inside a
@example([(1.0, 2.0), (1.5, 3.0)], [(3.0, 4.0), (3.0, 5.0), (3.5, 3.5)])  # touching
@example([(1.0, 2.0), (1.5, 3.0)], [(3.25, 4.0), (6.0, 9.0)])  # disjoint
def test_jaccard_equals_oracle(pairs_a, pairs_b):
    a, b = build("a", pairs_a), build("b", pairs_b)
    expected = oracle.brute_jaccard(pairs_a, pairs_b)
    assert measure_similarity("jaccard", a, b) == expected
    assert measure_similarity("jaccard", b, a) == expected


@st.composite
def wide_pairs(draw):
    """Two numbers of 1 to 600 sources on [low, low + 10], low 0 or 1e12,
    each number's sources in its own random window of the scale (so about a
    third of the pairs are disjoint), with continuous or quarter-lattice
    bounds."""
    low = draw(st.sampled_from([0.0, 1e12]))
    lattice = draw(st.sampled_from([0.0, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    numbers = []
    for label in ("a", "b"):
        window = sorted(rng.uniform(low, low + 10) for _ in range(2))
        pairs = oracle.random_pairs(rng, *window, max_n=600, lattice_prob=lattice)
        numbers.append(construct_fuzzy(make_set(label, pairs), ScaleConfig(low, low + 10)))
    return numbers


@settings(max_examples=60, deadline=None)
@given(wide_pairs())
def test_jaccard_within_the_stated_bound_of_the_exact_value(numbers):
    # Each sum adds k non-negative terms, with a relative error of at most
    # gamma(k - 1), and the quotient adds one rounding: at most gamma(2k) in
    # all, where gamma(n) = n u / (1 - n u) and u = 2**-53 (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2002, section 3.1). The result
    # need not be the correctly rounded one, so no equality is asserted.
    a, b = numbers
    exact = oracle.exact_jaccard(a, b)
    n = 2 * len(evaluation_points(a, b))
    gamma = n * Fraction(1, 2**53) / (1 - n * Fraction(1, 2**53))
    for computed in (measure_similarity("jaccard", a, b), measure_similarity("jaccard", b, a)):
        if exact == 0:
            assert computed == 0.0
        else:
            assert abs(Fraction(computed) - exact) <= gamma * exact


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
    for given in (numbers, []):
        with pytest.raises(ValueError, match="unknown measure"):
            similarity_matrix("cosine", given)
    for measure in MEASURES:
        assert similarity_matrix(measure, []) == []


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
        measure_similarity("combined", fz, other)
        ref = weakref.ref(fz)
        del fz
        gc.collect()
        assert ref() is None


def test_public_names():
    assert sorted(iaarank.__all__) == [
        "AttributeVector", "CriterionIdeals", "DecisionMatrix",
        "FuzzyNumber", "IntervalSet", "MEASURES",
        "MultiCriteriaDataset", "RankingEntry", "RankingResult", "ScaleConfig", "TopsisEntry", "TopsisResult",
        "__version__", "attribute_vector", "bundled_path", "construct_fuzzy",
        "errors", "evaluation_points", "feature_vector", "ideal_interval_set",
        "ideal_ratio", "load_dataset", "measure_similarity",
        "membership_polyline", "midpoint_mean",
        "rank_baseline_mean", "rank_by_ideal_ratio", "rank_universal",
        "select_ideals", "separations", "similarity_matrix", "topsis_rank",
    ]
    for name in iaarank.__all__:
        assert getattr(iaarank, name) is not None


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
    # Under -S no site hook preloads modules, so every module listed below
    # that is loaded was loaded by the package.
    unwanted = ("dataclasses", "inspect", "typing", "importlib.resources", "heapq")
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        f"import iaarank; print([m for m in {unwanted!r} if m in sys.modules]); "
        f"import iaarank.cli; print([m for m in {unwanted!r} if m in sys.modules]); "
        "iaarank.bundled_path('films'); print('importlib.resources' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["[]", "[]", "False"]


def test_exports_load_on_first_access():
    # In a fresh process: dir() lists every export before any is read, the
    # bare import loads only errors, and a star import binds exactly __all__
    # without loading the CLI.
    code = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); import iaarank; "
        "listed = dir(iaarank); "
        "loaded = sorted(m for m in sys.modules if m.startswith('iaarank.')); "
        "namespace = {}; exec('from iaarank import *', namespace); "
        "print(json.dumps([sorted(set(iaarank.__all__) - set(listed)), loaded, "
        "sorted(set(namespace) - {'__builtins__'}), "
        "[m for m in ('iaarank.cli', 'argparse') if m in sys.modules]]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == [[], ["iaarank.errors"], sorted(iaarank.__all__), []]


def test_each_export_is_its_defining_module_object():
    from iaarank import intervals, similarity, topsis

    for name in iaarank.__all__:
        value = getattr(iaarank, name)
        if hasattr(value, "__qualname__"):
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert iaarank.errors is sys.modules["iaarank.errors"]
    assert iaarank.MEASURES is similarity.MEASURES is intervals.MEASURES
    assert topsis.SEPARATION_MEASURES is intervals.SEPARATION_MEASURES


def test_an_unknown_attribute_raises_attribute_error():
    from iaarank import cli

    for module in (iaarank, cli):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name
