import random

import pytest

from iaarank import (
    DEFAULT_WEIGHTS,
    ScaleConfig,
    SimilarityWeights,
    attribute_similarity,
    combined_similarity,
    construct_fuzzy,
    evaluation_points,
    jaccard,
    measure_similarity,
)
from iaarank.errors import ScaleMismatch

import oracle
from conftest import ATTRIBUTE_TABLE, JACCARD_TABLE, SPIKE_FILMS, make_set

WIDE = ScaleConfig(0, 10)
NAN, INF = float("nan"), float("inf")


class TestWeights:
    def test_default_unit_norm(self):
        assert sum(w * w for w in DEFAULT_WEIGHTS.values) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            SimilarityWeights((1.0, 1.0, 0.0, 0.0, 0.0, 0.0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SimilarityWeights((1.0,))

    @pytest.mark.parametrize("values", [
        (1.0, NAN, 0.0, 0.0, 0.0, 0.0),
        (NAN,) * 6,
        (INF, 0.0, 0.0, 0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0, 0.0, -INF),
        (INF, -INF, 0.0, 0.0, 0.0, 0.0),
    ], ids=["one-nan", "all-nan", "inf", "minus-inf", "both-infs"])
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="must be finite"):
            SimilarityWeights(values)

    def test_custom_weights_accepted(self):
        weights = SimilarityWeights((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert weights.squared()[0] == 1.0


class TestJaccard:
    def test_table_best_column(self, film_numbers, film_ideals):
        best, _ = film_ideals
        for label, (expected, _) in JACCARD_TABLE.items():
            assert jaccard(film_numbers[label], best) == pytest.approx(
                expected, abs=5e-5
            ), label

    def test_table_worst_column(self, film_numbers, film_ideals):
        _, worst = film_ideals
        for label, (_, expected) in JACCARD_TABLE.items():
            assert jaccard(film_numbers[label], worst) == pytest.approx(
                expected, abs=5e-5
            ), label

    def test_identity(self, film_numbers):
        for fz in film_numbers.values():
            assert jaccard(fz, fz) == 1.0

    def test_zero_iff_disjoint_at_evaluation_points(self, film_numbers, film_ideals):
        best, _ = film_ideals
        rng = random.Random(71)
        for _ in range(200):
            a = construct_fuzzy(make_set("a", oracle.random_pairs(rng)), WIDE)
            b = construct_fuzzy(make_set("b", oracle.random_pairs(rng)), WIDE)
            value = jaccard(a, b)
            overlap = any(
                min(a.membership(x), b.membership(x)) > 0
                for x in evaluation_points(a, b)
            )
            assert (value > 0) == overlap

    def test_scale_mismatch(self, film_numbers):
        other = construct_fuzzy(make_set("o", [(1, 2)]), WIDE)
        with pytest.raises(ScaleMismatch):
            jaccard(film_numbers["Film A"], other)

    def test_matches_oracle(self, film_sets, film_scale, film_numbers, film_ideals):
        best, worst = film_ideals
        for label, iset in film_sets.items():
            pairs = [(iv.left, iv.right) for iv in iset.intervals]
            assert jaccard(film_numbers[label], best) == pytest.approx(
                oracle.brute_jaccard(pairs, [(10, 10)] * 5), abs=1e-12
            )
            assert jaccard(film_numbers[label], worst) == pytest.approx(
                oracle.brute_jaccard(pairs, [(1, 1)] * 5), abs=1e-12
            )


class TestAttributeSimilarity:
    def test_spike_rows_exact(self, film_numbers, film_ideals):
        best, worst = film_ideals
        for label in SPIKE_FILMS:
            expected_best, expected_worst = ATTRIBUTE_TABLE[label]
            assert attribute_similarity(film_numbers[label], best) == pytest.approx(
                expected_best, abs=5e-5
            ), label
            assert attribute_similarity(film_numbers[label], worst) == pytest.approx(
                expected_worst, abs=5e-5
            ), label

    def test_non_spike_rows_near_reference(self, film_numbers, film_ideals):
        # Reconstructed attribute conventions: reference values are
        # targets, not exact pins.
        best, worst = film_ideals
        for label, (expected_best, expected_worst) in ATTRIBUTE_TABLE.items():
            if label in SPIKE_FILMS:
                continue
            assert attribute_similarity(film_numbers[label], best) == pytest.approx(
                expected_best, abs=0.03
            ), label
            assert attribute_similarity(film_numbers[label], worst) == pytest.approx(
                expected_worst, abs=0.03
            ), label

    def test_identity(self, film_numbers):
        for fz in film_numbers.values():
            assert attribute_similarity(fz, fz) == 1.0

    def test_matches_oracle(self, film_sets, film_scale, film_numbers, film_ideals):
        best, _ = film_ideals
        for label, iset in film_sets.items():
            pairs = [(iv.left, iv.right) for iv in iset.intervals]
            expected = oracle.brute_attribute_similarity(pairs, [(10, 10)] * 5, 1, 10)
            assert attribute_similarity(film_numbers[label], best) == pytest.approx(
                expected, abs=1e-9
            )

    def test_scale_mismatch(self, film_numbers):
        other = construct_fuzzy(make_set("o", [(1, 2)]), WIDE)
        with pytest.raises(ScaleMismatch):
            attribute_similarity(film_numbers["Film A"], other)


class TestCombined:
    def test_average_of_parts(self, film_numbers, film_ideals):
        best, _ = film_ideals
        for fz in film_numbers.values():
            expected = (jaccard(fz, best) + attribute_similarity(fz, best)) / 2
            assert combined_similarity(fz, best) == expected

    def test_film_a_vs_best(self, film_numbers, film_ideals):
        best, _ = film_ideals
        assert combined_similarity(film_numbers["Film A"], best) == pytest.approx(
            0.31885, abs=5e-4
        )

    def test_film_g_vs_best(self, film_numbers, film_ideals):
        # 0.46825 is arithmetic on the reference table; the attribute part is
        # a reconstruction, so the tolerance is looser.
        best, _ = film_ideals
        assert combined_similarity(film_numbers["Film G"], best) == pytest.approx(
            0.46825, abs=0.02
        )

    def test_identity(self, film_numbers):
        for fz in film_numbers.values():
            assert combined_similarity(fz, fz) == 1.0


class TestMeasureDispatch:
    def test_names(self, film_numbers, film_ideals):
        best, _ = film_ideals
        fz = film_numbers["Film B"]
        assert measure_similarity("jaccard", fz, best) == jaccard(fz, best)
        assert measure_similarity("attribute", fz, best) == attribute_similarity(
            fz, best
        )
        assert measure_similarity("combined", fz, best) == combined_similarity(
            fz, best
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
            assert combined_similarity(a, b) > 0.0
