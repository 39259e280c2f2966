import itertools
import random
import re

import pytest

from iaarank import (
    DecisionMatrix,
    attribute_vector,
    ScaleConfig,
    bundled_path,
    construct_fuzzy,
    load_dataset,
    select_ideals,
    separations,
    topsis_rank,
)
from iaarank.errors import MalformedRow, ScaleMismatch
from iaarank.intervals import MultiCriteriaDataset

import oracle
from conftest import make_set

SCALE = ScaleConfig(0, 10)


@pytest.fixture(scope="module")
def synthetic():
    return load_dataset(bundled_path("synthetic-3x2"), SCALE)


@pytest.fixture(scope="module")
def matrix(synthetic):
    return DecisionMatrix.from_dataset(synthetic)


def dataset_from(cells, scale=SCALE):
    alternatives = []
    criteria = []
    table = {}
    for (alt, crit), pairs in cells.items():
        if alt not in alternatives:
            alternatives.append(alt)
        if crit not in criteria:
            criteria.append(crit)
        table[(alt, crit)] = make_set(alt, pairs)
    return MultiCriteriaDataset(tuple(alternatives), tuple(criteria), table, scale)


class TestDecisionMatrix:
    def test_from_dataset_defaults(self, matrix):
        assert matrix.alternatives == ("X", "Y", "Z")
        assert matrix.criteria == ("c1", "c2")
        assert matrix.weights == (0.5, 0.5)
        assert matrix.directions == ("benefit", "benefit")

    def test_weights_normalized(self, synthetic):
        m = DecisionMatrix.from_dataset(synthetic, weights=(3, 1))
        assert m.weights == (0.75, 0.25)

    def test_rejects_negative_weights(self, synthetic):
        with pytest.raises(ValueError):
            DecisionMatrix.from_dataset(synthetic, weights=(-1, 2))

    @pytest.mark.parametrize(
        "weights", [(float("nan"), 1), (float("inf"), 1), (1e308, 1e308)]
    )
    def test_rejects_non_finite_weights(self, synthetic, weights):
        with pytest.raises(ValueError, match="finite"):
            DecisionMatrix.from_dataset(synthetic, weights=weights)

    def test_rejects_zero_weights(self, synthetic):
        with pytest.raises(ValueError):
            DecisionMatrix.from_dataset(synthetic, weights=(0, 0))

    def test_rejects_bad_direction(self, synthetic):
        with pytest.raises(ValueError):
            DecisionMatrix.from_dataset(synthetic, directions=("benefit", "upward"))

    def test_rejects_wrong_arity(self, synthetic):
        with pytest.raises(ValueError):
            DecisionMatrix.from_dataset(synthetic, weights=(1,))

    def test_rejects_a_direction_too_many(self, synthetic):
        with pytest.raises(ValueError, match="^one direction per criterion required$"):
            DecisionMatrix.from_dataset(
                synthetic, directions=("benefit", "benefit", "cost")
            )

    @pytest.mark.parametrize("alternatives, criteria, message", [
        (("A", "A", "B"), ("c", "c"), "^repeated alternative 'A'$"),
        (("A", "B"), ("c", "d", "c"), "^repeated criterion 'c'$"),
    ], ids=["alternative", "criterion"])
    def test_rejects_repeated_labels(self, alternatives, criteria, message):
        # A repeated criterion would split its weight over two columns, and
        # a repeated alternative would be ranked twice and tie with itself.
        sets = {(a, c): make_set(a, [(1, 2)]) for a in alternatives for c in criteria}
        with pytest.raises(ValueError, match=message):
            MultiCriteriaDataset(alternatives, criteria, sets, SCALE)
        cells = {key: construct_fuzzy(s, SCALE) for key, s in sets.items()}
        with pytest.raises(ValueError, match=message):
            DecisionMatrix(alternatives, criteria, cells, SCALE,
                           (1,) * len(criteria), ("benefit",) * len(criteria))

    @pytest.mark.parametrize("extra", [("Z", "c"), ("A", "x")],
                             ids=["alternative", "criterion"])
    def test_rejects_cells_outside_the_grid(self, extra):
        # An extra cell would make two equal grids unequal, and a matrix's
        # scale check, which walks the grid, would keep one on another scale.
        message = f"^cell {re.escape(repr(extra))} outside the alternatives x criteria grid$"
        cell, other = make_set("A", [(1, 2)]), make_set("Z", [(3, 4)])
        with pytest.raises(ValueError, match=message):
            MultiCriteriaDataset(["A"], ["c"], {("A", "c"): cell, extra: other}, SCALE)
        cells = {("A", "c"): construct_fuzzy(cell, SCALE),
                 extra: construct_fuzzy(other, ScaleConfig(0, 20))}
        with pytest.raises(ValueError, match=message):
            DecisionMatrix(["A"], ["c"], cells, SCALE, (1,), ("benefit",))

    def test_unknown_column_names_the_criterion_as_the_dataset_does(
        self, synthetic, matrix
    ):
        assert matrix.column("c2") == [matrix.cell(alt, "c2") for alt in ("X", "Y", "Z")]
        for table in (synthetic, matrix):
            with pytest.raises(KeyError) as excinfo:
                table.column("nope")
            assert excinfo.value.args == ("unknown criterion 'nope'",)

    def test_unknown_cell_names_the_label_as_the_dataset_does(self, synthetic, matrix):
        for table in (synthetic, matrix):
            for key, message in ((("X", "nope"), "unknown criterion 'nope'"),
                                 (("W", "c1"), "unknown alternative 'W'")):
                with pytest.raises(KeyError) as excinfo:
                    table.cell(*key)
                assert excinfo.value.args == (message,)

    def test_a_matrix_is_a_grid_but_never_equals_one(self, matrix):
        assert isinstance(matrix, MultiCriteriaDataset)
        grid = MultiCriteriaDataset(
            matrix.alternatives, matrix.criteria, matrix.cells, matrix.scale
        )
        assert grid != matrix and matrix != grid
        reduced = matrix.without_criterion("c1")
        assert type(reduced) is MultiCriteriaDataset
        assert reduced == MultiCriteriaDataset(
            matrix.alternatives, ("c2",),
            {key: fz for key, fz in matrix.cells.items() if key[1] == "c2"},
            matrix.scale,
        )

    def test_from_dataset_builds_the_grid_map_builds(self, synthetic, matrix):
        assert matrix.cells == synthetic.map(construct_fuzzy)
        assert list(matrix.cells) == [
            (alternative, criterion)
            for alternative in matrix.alternatives for criterion in matrix.criteria
        ]

    def test_missing_cell_raises_the_grid_error_naming_it(self, matrix):
        cells = dict(matrix.cells)
        del cells[("Y", "c2")]
        with pytest.raises(MalformedRow, match="alternative 'Y', criterion 'c2'"):
            DecisionMatrix(matrix.alternatives, matrix.criteria, cells, matrix.scale,
                           matrix.weights, matrix.directions)


class TestSelectIdeals:
    def test_dominant_and_dominated(self, matrix):
        ideals = select_ideals(matrix)
        for ideal in ideals:
            assert ideal.pis.label == "X"
            assert ideal.nis.label == "Z"
            assert not ideal.degenerate

    def test_cost_direction_swaps(self, synthetic):
        m = DecisionMatrix.from_dataset(synthetic, directions=("cost", "benefit"))
        ideals = select_ideals(m)
        assert ideals[0].pis.label == "Z"
        assert ideals[0].nis.label == "X"
        assert ideals[1].pis.label == "X"

    def test_single_alternative_degenerate(self):
        dataset = dataset_from({("only", "c1"): [(2, 4), (3, 5)]})
        m = DecisionMatrix.from_dataset(dataset)
        (ideal,) = select_ideals(m)
        assert ideal.pis.label == ideal.nis.label == "only"
        assert ideal.degenerate

    def test_common_shift_keeps_labels(self, synthetic):
        shifted_cells = {
            key: [(left - 0.5, right - 0.5)
                  for left, right in zip(iset.lefts, iset.rights)]
            if key[1] == "c1"
            else list(zip(iset.lefts, iset.rights))
            for key, iset in synthetic.cells.items()
        }
        m = DecisionMatrix.from_dataset(dataset_from(shifted_cells))
        ideals = select_ideals(m)
        assert [(i.pis.label, i.nis.label) for i in ideals] == [("X", "Z"), ("X", "Z")]

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("low", "mid", "high")))
    )
    def test_tolerance_chain_picks_the_same_ideals_in_every_order(self, order):
        # mid is within 2e-9 of both neighbours, low and high are not close:
        # high and mid form the first tie group, low the last
        offsets = {"low": 0.0, "mid": 8e-9, "high": 1.6e-8}
        dataset = dataset_from(
            {(name, "c1"): [(5.0 + offsets[name],) * 2] for name in order}
        )
        (ideal,) = select_ideals(DecisionMatrix.from_dataset(dataset), 2e-9)
        assert (ideal.pis.label, ideal.nis.label) == ("high", "low")
        assert not ideal.degenerate

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("left", "right", "other")))
    )
    def test_mirror_images_pick_the_same_ideals_in_every_order(self, order):
        # left and right mirror each other about x = 5, so their three
        # universal keys are exactly equal. They share the top of the benefit
        # criterion c1 and the bottom of the cost criterion c2; right has the
        # smaller profile, so it is the PIS of both in every row order.
        cells = {
            ("left", "c1"): [(4, 7), (4, 5)], ("left", "c2"): [(4, 7), (4, 5)],
            ("right", "c1"): [(3, 6), (5, 6)], ("right", "c2"): [(3, 6), (5, 6)],
            ("other", "c1"): [(1, 2)], ("other", "c2"): [(8, 9)],
        }

        def run(names):
            dataset = dataset_from({(n, c): cells[(n, c)] for n in names for c in ("c1", "c2")})
            m = DecisionMatrix.from_dataset(dataset, directions=("benefit", "cost"))
            result = topsis_rank(m)
            ideals = [(i.pis.label, i.nis.label) for i in result.ideals]
            return ideals, {e.label: e.closeness for e in result.entries}

        left, right = (
            attribute_vector(construct_fuzzy(make_set(n, cells[(n, "c1")]), SCALE))
            for n in ("left", "right")
        )
        assert (left.centroid_x, left.perimeter, left.centroid_y) == (
            right.centroid_x, right.perimeter, right.centroid_y
        )
        ideals, closeness = run(order)
        assert ideals == [("right", "other"), ("right", "other")]
        assert closeness == run(("left", "right", "other"))[1]

    def test_mixed_scales_in_a_column_rejected(self):
        near = construct_fuzzy(make_set("near", [(1, 2)]), SCALE)
        far = construct_fuzzy(make_set("far", [(1, 2)]), ScaleConfig(0, 20))
        with pytest.raises(ScaleMismatch, match=r"\('far', 'c1'\) on \[0.0, 20.0\]"):
            DecisionMatrix(
                alternatives=("near", "far"),
                criteria=("c1",),
                cells={("near", "c1"): near, ("far", "c1"): far},
                scale=SCALE,
                weights=(1.0,),
                directions=("benefit",),
            )


class TestSeparations:
    def test_pis_alternative_has_zero_d_plus(self, matrix):
        ideals = select_ideals(matrix)
        pairs = separations(matrix, ideals, "combined")
        by_label = dict(zip(matrix.alternatives, pairs))
        assert by_label["X"][0] == 0.0
        assert by_label["Z"][1] == 0.0
        assert by_label["X"][1] > 0
        assert by_label["Z"][0] > 0

    def test_oracle_recomputation(self, synthetic, matrix):
        ideals = select_ideals(matrix)
        pairs = separations(matrix, ideals, "combined")
        raw = {
            key: list(zip(iset.lefts, iset.rights))
            for key, iset in synthetic.cells.items()
        }
        for label, (d_plus, d_minus) in zip(matrix.alternatives, pairs):
            expected_plus = 0.0
            expected_minus = 0.0
            for index, criterion in enumerate(matrix.criteria):
                ideal = ideals[index]
                cell_pairs = raw[(label, criterion)]
                pis_pairs = raw[(ideal.pis.label, criterion)]
                nis_pairs = raw[(ideal.nis.label, criterion)]
                expected_plus += matrix.weights[index] * (
                    1 - oracle.brute_combined_similarity(cell_pairs, pis_pairs, 0, 10)
                )
                expected_minus += matrix.weights[index] * (
                    1 - oracle.brute_combined_similarity(cell_pairs, nis_pairs, 0, 10)
                )
            assert d_plus == pytest.approx(expected_plus, abs=1e-9)
            assert d_minus == pytest.approx(expected_minus, abs=1e-9)

    def test_rejects_jaccard(self, matrix):
        ideals = select_ideals(matrix)
        with pytest.raises(ValueError):
            separations(matrix, ideals, "jaccard")


class TestTopsisRank:
    def test_dominant_alternative_first_with_full_closeness(self, matrix):
        result = topsis_rank(matrix, "combined")
        top = result.entries[0]
        assert top.label == "X"
        assert top.closeness == 1.0
        assert top.rank == 1
        bottom = result.entries[-1]
        assert bottom.label == "Z"
        assert bottom.closeness == 0.0

    def test_closeness_definition(self, matrix):
        for measure in ("attribute", "combined"):
            result = topsis_rank(matrix, measure)
            for entry in result.entries:
                total = entry.d_plus + entry.d_minus
                if total > 0:
                    assert entry.closeness == pytest.approx(
                        entry.d_minus / total, abs=1e-15
                    )
                    assert not entry.degenerate

    def test_weight_scaling_invariance(self, synthetic):
        base = topsis_rank(DecisionMatrix.from_dataset(synthetic, weights=(1, 1)))
        scaled = topsis_rank(DecisionMatrix.from_dataset(synthetic, weights=(7, 7)))
        for a, b in zip(base.entries, scaled.entries):
            assert a.label == b.label
            assert a.closeness == b.closeness

    def test_permutation_invariance(self, synthetic):
        base = topsis_rank(DecisionMatrix.from_dataset(synthetic), "combined")
        base_cc = {e.label: e.closeness for e in base.entries}

        cells = {
            key: list(zip(iset.lefts, iset.rights))
            for key, iset in synthetic.cells.items()
        }
        reordered = {}
        for alt in ("Z", "X", "Y"):
            for crit in ("c2", "c1"):
                reordered[(alt, crit)] = cells[(alt, crit)]
        permuted = topsis_rank(
            DecisionMatrix.from_dataset(dataset_from(reordered)), "combined"
        )
        for entry in permuted.entries:
            assert entry.closeness == pytest.approx(base_cc[entry.label], abs=1e-12)

    def test_all_identical_degenerate(self):
        pairs = [(3, 5), (4, 6)]
        dataset = dataset_from(
            {(alt, crit): pairs for alt in "PQR" for crit in ("c1", "c2")}
        )
        result = topsis_rank(DecisionMatrix.from_dataset(dataset), "combined")
        for entry in result.entries:
            assert entry.closeness == 0.5
            assert entry.degenerate
            assert entry.rank == 1
        assert result.ties == (("P", "Q", "R"),)

    def test_single_criterion_matches_ratio_oracle(self):
        rng = random.Random(101)
        for _ in range(20):
            cells = {
                (f"a{i}", "c"): oracle.random_pairs(rng, low=1, high=9)
                for i in range(4)
            }
            dataset = dataset_from(cells)
            m = DecisionMatrix.from_dataset(dataset)
            result = topsis_rank(m, "combined")
            ideals = select_ideals(m)
            expected = {}
            for label in m.alternatives:
                s_plus = oracle.brute_combined_similarity(
                    cells[(label, "c")],
                    cells[(ideals[0].pis.label, "c")], 0, 10,
                )
                s_minus = oracle.brute_combined_similarity(
                    cells[(label, "c")],
                    cells[(ideals[0].nis.label, "c")], 0, 10,
                )
                d_plus, d_minus = 1 - s_plus, 1 - s_minus
                if d_plus + d_minus > 0:
                    expected[label] = d_minus / (d_plus + d_minus)
                else:
                    expected[label] = 0.5
            for entry in result.entries:
                assert entry.closeness == pytest.approx(expected[entry.label], abs=1e-9)

    def test_tie_break_criterion(self):
        # hi and lo coincide on c1 and c2 carries zero weight, so their
        # closeness ties exactly; the configured criterion then decides
        cells = {
            ("hi", "c1"): [(4, 6)],
            ("lo", "c1"): [(4, 6)],
            ("ref", "c1"): [(1, 2)],
            ("hi", "c2"): [(8, 9)],
            ("lo", "c2"): [(2, 3)],
            ("ref", "c2"): [(5, 5)],
        }
        dataset = dataset_from(cells)
        m = DecisionMatrix.from_dataset(dataset, weights=(1, 0))
        plain = topsis_rank(m, "combined")
        assert ("hi", "lo") in plain.ties or ("lo", "hi") in plain.ties
        tied = [e for e in plain.entries if e.label in ("hi", "lo")]
        assert tied[0].rank == tied[1].rank
        broken = topsis_rank(m, "combined", tie_break_criterion="c2")
        positions = {e.label: e.rank for e in broken.entries}
        assert positions["hi"] < positions["lo"]

    def test_unknown_tie_break_criterion_rejected_before_ranking(self, matrix):
        # synthetic-3x2 has no exact closeness tie, so the criterion would
        # otherwise never be looked up
        with pytest.raises(ValueError, match="nope"):
            topsis_rank(matrix, "combined", tie_break_criterion="nope")

    def test_result_serialization(self, matrix):
        payload = topsis_rank(matrix, "combined").to_dict()
        assert payload["measure"] == "combined"
        assert {entry["label"] for entry in payload["entries"]} == {"X", "Y", "Z"}
        assert payload["ideals"][0]["pis"] == "X"
        assert list(payload) == ["measure", "entries", "ideals", "ties"]
