"""Every ranker against the brute-force cluster relation, in any input order.

Ties are tolerance clusters (see ``ranking.order_and_rank``): labels, ranks
and tie groups must equal ``oracle.brute_rank`` on the same keys and must
not change when the input is permuted. The numbers are a few shapes shifted
by small multiples of a step near each tolerance, so that keys chain within
and across clusters.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iaarank import (
    DecisionMatrix,
    ScaleConfig,
    attribute_vector,
    construct_fuzzy,
    ideal_interval_set,
    rank_baseline_mean,
    rank_by_ideal_ratio,
    rank_universal,
    select_ideals,
    topsis_rank,
)

import oracle
from conftest import make_set

SCALE = ScaleConfig(0, 10)
EPSILONS = (0.0, 1e-9, 1e-3)
# Distinct (perimeter, centroid-y) per shape, several with centroid-x 5.
SHAPES = (
    [(4, 6)],
    [(5, 5)],
    [(4, 6), (5, 5)],
    [(3, 7), (4, 6)],
    [(4.5, 5.5), (4, 6), (5, 5)],
    [(2, 3), (6, 8)],
)
STEPS = (0.0, 3e-9, 8e-9, 3e-3, 8e-3, 0.25)

cells = st.tuples(st.sampled_from(range(len(SHAPES))), st.integers(-3, 3))


def number(label, cell, step):
    shape, offset = cell
    delta = offset * step
    pairs = [(left + delta, right + delta) for left, right in SHAPES[shape]]
    return construct_fuzzy(make_set(label, pairs), SCALE)


def universal_keys(fz):
    vector = attribute_vector(fz)
    return (-vector.centroid_x, vector.perimeter, -vector.centroid_y)


def label_ranks(result):
    return sorted((e.rank, e.label) for e in result.entries)


def tie_sets(ties):
    return {frozenset(group) for group in ties}


def expected(labels, values, epsilons):
    ranks, groups = oracle.brute_rank(values, epsilons)
    return (
        sorted(zip(ranks, labels)),
        {frozenset(labels[i] for i in group) for group in groups},
    )


def check(result, labels, values, epsilons):
    assert (label_ranks(result), tie_sets(result.ties)) == expected(
        labels, values, epsilons
    )
    ranks = [e.rank for e in result.entries]
    assert ranks == sorted(ranks)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(cells, min_size=1, max_size=8),
    st.sampled_from(STEPS),
    st.sampled_from(EPSILONS),
    st.randoms(use_true_random=False),
)
def test_rank_universal_equals_oracle_in_any_order(drawn, step, epsilon, rng):
    numbers = [number(f"n{i}", cell, step) for i, cell in enumerate(drawn)]
    labels = [fz.label for fz in numbers]
    values = [universal_keys(fz) for fz in numbers]
    result = rank_universal(numbers, epsilon)
    check(result, labels, values, (epsilon,) * 3)
    shuffled = rng.sample(numbers, len(numbers))
    again = rank_universal(shuffled, epsilon)
    assert label_ranks(again) == label_ranks(result)
    assert tie_sets(again.ties) == tie_sets(result.ties)
    by_label = dict(zip(labels, values))
    assert [by_label[x] for x in again.labels()] == [by_label[x] for x in result.labels()]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(cells, min_size=1, max_size=6),
    st.sampled_from(STEPS),
    st.sampled_from(EPSILONS),
    st.randoms(use_true_random=False),
)
def test_rank_by_ideal_ratio_equals_oracle_in_any_order(drawn, step, epsilon, rng):
    numbers = [number(f"n{i}", cell, step) for i, cell in enumerate(drawn)]
    best = construct_fuzzy(ideal_interval_set(SCALE, 2, "best"), SCALE)
    worst = construct_fuzzy(ideal_interval_set(SCALE, 2, "worst"), SCALE)
    result = rank_by_ideal_ratio(numbers, best, worst, "combined", epsilon=epsilon)
    scores = {e.label: e.score for e in result.entries}
    labels = [fz.label for fz in numbers]
    values = [(-scores[fz.label], *universal_keys(fz)) for fz in numbers]
    check(result, labels, values, (0.0,) + (epsilon,) * 3)
    again = rank_by_ideal_ratio(
        rng.sample(numbers, len(numbers)), best, worst, "combined", epsilon=epsilon
    )
    assert label_ranks(again) == label_ranks(result)
    assert tie_sets(again.ties) == tie_sets(result.ties)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)), min_size=1, max_size=3),
        min_size=1,
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_rank_baseline_mean_equals_oracle_in_any_order(drawn, rng):
    sets = [
        make_set(f"s{i}", [(a / 4, (a + w) / 4) for a, w in pairs])
        for i, pairs in enumerate(drawn)
    ]
    result = rank_baseline_mean(sets)
    scores = {e.label: e.score for e in result.entries}
    labels = [s.label for s in sets]
    check(result, labels, [(-scores[label],) for label in labels], (0.0,))
    again = rank_baseline_mean(rng.sample(sets, len(sets)))
    assert label_ranks(again) == label_ranks(result)
    assert tie_sets(again.ties) == tie_sets(result.ties)


def matrix_of(drawn, step, directions, alternatives=None):
    labels = [f"a{i}" for i in range(len(drawn))]
    cells = {
        (label, criterion): number(label, cell, step)
        for label, row in zip(labels, drawn)
        for criterion, cell in zip(("c0", "c1"), row)
    }
    return DecisionMatrix(
        alternatives=alternatives or labels,
        criteria=("c0", "c1"),
        cells=cells,
        scale=SCALE,
        weights=(1.0, 1.0),
        directions=directions,
    )


matrices = st.lists(st.tuples(cells, cells), min_size=1, max_size=6)
directions = st.tuples(*[st.sampled_from(("benefit", "cost"))] * 2)


@settings(max_examples=40, deadline=None)
@given(
    matrices,
    st.sampled_from(STEPS),
    st.sampled_from(EPSILONS),
    directions,
    st.sampled_from((None, "c0")),
    st.randoms(use_true_random=False),
)
def test_topsis_rank_equals_oracle_in_any_order(
    drawn, step, epsilon, dirs, tie_break, rng
):
    matrix = matrix_of(drawn, step, dirs)
    result = topsis_rank(matrix, epsilon=epsilon, tie_break_criterion=tie_break)
    closeness = {e.label: e.closeness for e in result.entries}
    labels = list(matrix.alternatives)
    values = [(-closeness[label],) for label in labels]
    epsilons = (0.0,)
    if tie_break is not None:
        values = [v + universal_keys(matrix.cell(label, tie_break))
                  for v, label in zip(values, labels)]
        epsilons += (epsilon,) * 3
    check(result, labels, values, epsilons)
    permuted = matrix_of(drawn, step, dirs, rng.sample(labels, len(labels)))
    again = topsis_rank(permuted, epsilon=epsilon, tie_break_criterion=tie_break)
    assert label_ranks(again) == label_ranks(result)
    assert tie_sets(again.ties) == tie_sets(result.ties)
    assert {e.label: e.closeness for e in again.entries} == closeness


@settings(max_examples=60, deadline=None)
@given(matrices, st.sampled_from(STEPS), st.sampled_from(EPSILONS), directions)
def test_select_ideals_take_the_first_and_last_tie_group(drawn, step, epsilon, dirs):
    matrix = matrix_of(drawn, step, dirs)
    for ideal, direction in zip(select_ideals(matrix, epsilon), dirs):
        column = matrix.column(ideal.criterion)
        ranks, _ = oracle.brute_rank([universal_keys(fz) for fz in column], (epsilon,) * 3)
        first = {fz.label for fz, rank in zip(column, ranks) if rank == 1}
        last = {fz.label for fz, rank in zip(column, ranks) if rank == max(ranks)}
        if direction == "cost":
            first, last = last, first
        assert ideal.pis.label in first
        assert ideal.nis.label in last
        assert ideal.degenerate == (max(ranks) == 1)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_brute_rank_matches_a_hand_count(epsilon):
    # 1.0, 1.0 + 0.6 tolerance and 1.0 + 1.2 tolerance: the last is not
    # close to the opener, whatever the tolerance.
    gap = 0.6 * epsilon
    values = [(1.0 + 2 * gap,), (1.0,), (1.0 + gap,)]
    ranks, groups = oracle.brute_rank(values, (epsilon,))
    if epsilon:
        assert ranks == [3, 1, 1] and groups == [{1, 2}]
    else:
        assert ranks == [1, 1, 1] and groups == [{0, 1, 2}]


def test_an_added_alternative_can_break_a_tie():
    """A tie rule with a tolerance is a semiorder: at epsilon 1e-3, A and B
    tie, but beside C, which ties with A and not with B, B ranks third.
    Every input order gives the same result, so order independence holds
    and independence of irrelevant alternatives does not."""
    pairs = {"A": (5, 6), "B": (4.997, 5.997), "C": (5.005, 6.005)}
    a, b, c = (construct_fuzzy(make_set(k, [v]), SCALE) for k, v in pairs.items())
    for pair in ([a, b], [b, a]):
        result = rank_universal(pair, epsilon=1e-3)
        assert [e.rank for e in result.entries] == [1, 1]
        assert result.ties == (("A", "B"),)
    for order in itertools.permutations([a, b, c]):
        result = rank_universal(list(order), epsilon=1e-3)
        ranks = [(e.label, e.rank) for e in result.entries]
        assert ranks == [("C", 1), ("A", 1), ("B", 3)]
        assert result.ties == (("C", "A"),)


def test_a_translation_can_break_a_tie():
    """Translation invariance fails (Wang and Kerre 2001, axiom A6, with a
    crisp addend): the tolerance scales with max(1, |x|, |y|), so at
    epsilon 1e-3 two numbers 2**-8 apart rank apart on [0, 10] and tie
    once both and the scale are shifted by 1024. The data are dyadic, so
    no rounding makes the result."""
    for shift, ranks, ties in ((0, [("B", 1), ("A", 2)], ()),
                               (1024, [("B", 1), ("A", 1)], (("B", "A"),))):
        scale = ScaleConfig(shift, shift + 10)
        a = construct_fuzzy(make_set("A", [(shift + 1, shift + 2)]), scale)
        b = construct_fuzzy(
            make_set("B", [(shift + 1 + 2**-8, shift + 2 + 2**-8)]), scale
        )
        for pair in ([a, b], [b, a]):
            result = rank_universal(pair, epsilon=1e-3)
            assert [(e.label, e.rank) for e in result.entries] == ranks
            assert result.ties == ties


def test_a_change_of_units_can_reverse_the_ideal_ratio():
    """Invariance under a change of units fails (Wang and Kerre 2001, axiom
    A7, with a crisp factor): under the attribute measure, B ranks above A
    on [0, 10], and A above B once data and scale are multiplied by 64.
    The perimeter and the similarity's hypot(range, 0.5) mix units, as the
    paper's formulas do. The data are dyadic, so no rounding makes the
    result."""
    for factor, order in ((1, ["B", "A"]), (64, ["A", "B"])):
        scale = ScaleConfig(0, 10 * factor)
        a = construct_fuzzy(make_set(
            "A", [(2 * factor, 2 * factor), (5 * factor, 10 * factor),
                  (5 * factor, 8 * factor)]), scale)
        b = construct_fuzzy(make_set(
            "B", [(0, 10 * factor), (7 * factor, 8 * factor),
                  (6 * factor, 8 * factor)]), scale)
        best = construct_fuzzy(ideal_interval_set(scale, 3, "best"), scale)
        worst = construct_fuzzy(ideal_interval_set(scale, 3, "worst"), scale)
        for pair in ([a, b], [b, a]):
            result = rank_by_ideal_ratio(pair, best, worst, "attribute")
            assert [(e.label, e.rank) for e in result.entries] == [
                (order[0], 1), (order[1], 2)]
            assert result.ties == ()
