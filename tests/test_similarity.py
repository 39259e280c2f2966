import inspect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iaarank
from iaarank import similarity
from iaarank import (
    ScaleConfig,
    construct_fuzzy,
    evaluation_points,
    measure_similarity,
    rank_by_ideal_ratio,
    separations,
    similarity_matrix,
    topsis_rank,
)
from iaarank.errors import ScaleMismatch
from iaarank.ranking import ideal_ratio
from iaarank.similarity import FEATURE_WEIGHTS, PairKernel

import oracle
from conftest import ATTRIBUTE_TABLE, JACCARD_TABLE, SPIKE_FILMS, make_set

WIDE = ScaleConfig(0, 10)


class TestWeights:
    def test_default_unit_norm(self):
        assert sum(w * w for w in FEATURE_WEIGHTS) == pytest.approx(1.0, abs=1e-4)

    def test_six_finite_loadings(self):
        assert len(FEATURE_WEIGHTS) == 6
        assert all(isinstance(w, float) and math.isfinite(w) for w in FEATURE_WEIGHTS)

    def test_squares_match_the_oracle_bit_for_bit(self):
        assert similarity._SQUARED_WEIGHTS == oracle.DEFAULT_WEIGHT_SQUARES

    @pytest.mark.parametrize("fn", [
        PairKernel, measure_similarity, similarity_matrix, ideal_ratio,
        rank_by_ideal_ratio, separations, topsis_rank,
    ], ids=lambda fn: fn.__name__)
    def test_no_callable_takes_feature_weights(self, fn):
        assert "weights" not in inspect.signature(fn).parameters

    @pytest.mark.parametrize("name", [
        "SimilarityWeights", "DEFAULT_WEIGHTS", "parse_interval", "Interval",
        "jaccard", "attribute_similarity", "combined_similarity",
    ])
    def test_retired_name_is_not_exported(self, name):
        assert name not in iaarank.__all__
        assert not hasattr(iaarank, name)


class TestJaccard:
    def test_table_best_column(self, film_numbers, film_ideals):
        best, _ = film_ideals
        for label, (expected, _) in JACCARD_TABLE.items():
            value = measure_similarity("jaccard", film_numbers[label], best)
            assert value == pytest.approx(expected, abs=5e-5), label

    def test_table_worst_column(self, film_numbers, film_ideals):
        _, worst = film_ideals
        for label, (_, expected) in JACCARD_TABLE.items():
            value = measure_similarity("jaccard", film_numbers[label], worst)
            assert value == pytest.approx(expected, abs=5e-5), label

    def test_identity(self, film_numbers):
        for fz in film_numbers.values():
            assert measure_similarity("jaccard", fz, fz) == 1.0

    def test_zero_iff_disjoint_at_evaluation_points(self, film_numbers, film_ideals):
        best, _ = film_ideals
        rng = random.Random(71)
        for _ in range(200):
            a = construct_fuzzy(make_set("a", oracle.random_pairs(rng)), WIDE)
            b = construct_fuzzy(make_set("b", oracle.random_pairs(rng)), WIDE)
            value = measure_similarity("jaccard", a, b)
            overlap = any(
                min(a.membership(x), b.membership(x)) > 0
                for x in evaluation_points(a, b)
            )
            assert (value > 0) == overlap

    def test_scale_mismatch(self, film_numbers):
        other = construct_fuzzy(make_set("o", [(1, 2)]), WIDE)
        with pytest.raises(ScaleMismatch):
            measure_similarity("jaccard", film_numbers["Film A"], other)

    def test_matches_oracle(self, film_sets, film_scale, film_numbers, film_ideals):
        best, worst = film_ideals
        for label, iset in film_sets.items():
            pairs = list(zip(iset.lefts, iset.rights))
            fz = film_numbers[label]
            assert measure_similarity("jaccard", fz, best) == oracle.brute_jaccard(
                pairs, [(10, 10)] * 5
            )
            assert measure_similarity("jaccard", fz, worst) == oracle.brute_jaccard(
                pairs, [(1, 1)] * 5
            )


# Integer intervals [start, start + width], one to eight of them: the merge
# and the oracle add the same memberships k/n in the same order, so they give
# the same bits whatever the source count n.
integer_sets = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 6)).map(
        lambda sw: (sw[0], sw[0] + sw[1])
    ),
    min_size=1, max_size=8,
)


class TestJaccardSupports:
    """Supports that are disjoint, touch at one bound, or overlap."""

    SCALE = ScaleConfig(-60, 60)

    @settings(max_examples=300, deadline=None)
    @given(integer_sets, integer_sets, st.integers(-30, 4))
    def test_bit_identical_to_the_oracle(self, pairs_a, pairs_b, gap):
        # b starts gap after a ends: disjoint above 0, touching at 0, and
        # overlapping or disjoint on the other side below 0.
        shift = max(r for _, r in pairs_a) + gap - min(l for l, _ in pairs_b)
        pairs_b = oracle.shifted(pairs_b, shift)
        a = construct_fuzzy(make_set("a", pairs_a), self.SCALE)
        b = construct_fuzzy(make_set("b", pairs_b), self.SCALE)
        expected = oracle.brute_jaccard(pairs_a, pairs_b)
        assert measure_similarity("jaccard", a, b) == expected
        assert measure_similarity("jaccard", b, a) == expected
        if gap > 0:
            assert expected == 0.0

    def test_touching_supports_share_one_point(self):
        a = construct_fuzzy(make_set("a", [(1, 2)]), WIDE)
        b = construct_fuzzy(make_set("b", [(2, 3)]), WIDE)
        # memberships at 1, 2, 3: a = 1, 1, 0 and b = 0, 1, 1
        assert measure_similarity("jaccard", a, b) == 1 / 3
        assert measure_similarity("jaccard", b, a) == 1 / 3
        assert oracle.brute_jaccard([(1, 2)], [(2, 3)]) == 1 / 3


class TestAttributeSimilarity:
    def test_spike_rows_exact(self, film_numbers, film_ideals):
        best, worst = film_ideals
        for label in SPIKE_FILMS:
            expected_best, expected_worst = ATTRIBUTE_TABLE[label]
            fz = film_numbers[label]
            assert measure_similarity("attribute", fz, best) == pytest.approx(
                expected_best, abs=5e-5
            ), label
            assert measure_similarity("attribute", fz, worst) == pytest.approx(
                expected_worst, abs=5e-5
            ), label

    def test_non_spike_rows_near_reference(self, film_numbers, film_ideals):
        # Reconstructed attribute conventions: reference values are
        # targets, not exact pins.
        best, worst = film_ideals
        for label, (expected_best, expected_worst) in ATTRIBUTE_TABLE.items():
            if label in SPIKE_FILMS:
                continue
            fz = film_numbers[label]
            assert measure_similarity("attribute", fz, best) == pytest.approx(
                expected_best, abs=0.03
            ), label
            assert measure_similarity("attribute", fz, worst) == pytest.approx(
                expected_worst, abs=0.03
            ), label

    def test_identity(self, film_numbers):
        for fz in film_numbers.values():
            assert measure_similarity("attribute", fz, fz) == 1.0

    def test_matches_oracle(self, film_sets, film_scale, film_numbers, film_ideals):
        best, _ = film_ideals
        for label, iset in film_sets.items():
            pairs = list(zip(iset.lefts, iset.rights))
            expected = oracle.brute_attribute_similarity(pairs, [(10, 10)] * 5, 1, 10)
            value = measure_similarity("attribute", film_numbers[label], best)
            assert value == pytest.approx(expected, abs=1e-9)

    def test_scale_mismatch(self, film_numbers):
        other = construct_fuzzy(make_set("o", [(1, 2)]), WIDE)
        with pytest.raises(ScaleMismatch):
            measure_similarity("attribute", film_numbers["Film A"], other)


class TestCombined:
    def test_average_of_parts(self, film_numbers, film_ideals):
        best, _ = film_ideals
        for fz in film_numbers.values():
            expected = (
                measure_similarity("jaccard", fz, best)
                + measure_similarity("attribute", fz, best)
            ) / 2
            assert measure_similarity("combined", fz, best) == expected

    def test_film_a_vs_best(self, film_numbers, film_ideals):
        best, _ = film_ideals
        value = measure_similarity("combined", film_numbers["Film A"], best)
        assert value == pytest.approx(0.31885, abs=5e-4)

    def test_film_g_vs_best(self, film_numbers, film_ideals):
        # 0.46825 is arithmetic on the reference table; the attribute part is
        # a reconstruction, so the tolerance is looser.
        best, _ = film_ideals
        value = measure_similarity("combined", film_numbers["Film G"], best)
        assert value == pytest.approx(0.46825, abs=0.02)

    def test_identity(self, film_numbers):
        for fz in film_numbers.values():
            assert measure_similarity("combined", fz, fz) == 1.0


class TestMeasureDispatch:
    def test_tracer_patch_points_equal_the_dispatch(self, film_numbers, film_ideals):
        # perfbench/spans.py patches similarity.jaccard and
        # similarity.attribute_similarity, which the package no longer
        # exports; while they exist, each is its measure's dispatch, bit for bit.
        for fz in film_numbers.values():
            for ideal in film_ideals:
                assert similarity.jaccard(fz, ideal) == measure_similarity(
                    "jaccard", fz, ideal
                )
                assert similarity.attribute_similarity(fz, ideal) == measure_similarity(
                    "attribute", fz, ideal
                )

    def test_unknown_measure(self, film_numbers):
        with pytest.raises(ValueError):
            measure_similarity("cosine", film_numbers["Film A"], film_numbers["Film B"])


class TestMeasureProperties:
    def test_symmetry_identity_range(self):
        rng = random.Random(73)
        for _ in range(200):
            a = construct_fuzzy(make_set("a", oracle.random_pairs(rng)), WIDE)
            b = construct_fuzzy(make_set("b", oracle.random_pairs(rng)), WIDE)
            for measure in ("jaccard", "attribute", "combined"):
                forward = measure_similarity(measure, a, b)
                backward = measure_similarity(measure, b, a)
                assert forward == backward
                assert 0.0 <= forward <= 1.0
                assert measure_similarity(measure, a, a) == 1.0

    def test_combined_always_positive(self):
        rng = random.Random(79)
        for _ in range(200):
            a = construct_fuzzy(make_set("a", oracle.random_pairs(rng)), WIDE)
            b = construct_fuzzy(make_set("b", oracle.random_pairs(rng)), WIDE)
            assert measure_similarity("combined", a, b) > 0.0
