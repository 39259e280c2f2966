import copy
import json
import pickle
import random

import pytest

from iaarank import (
    FuzzyNumber,
    ScaleConfig,
    attribute_vector,
    construct_fuzzy,
    evaluation_points,
    measure_similarity,
    rank_universal,
)
from iaarank.errors import OutOfScale

import oracle
from conftest import make_set

WIDE = ScaleConfig(0, 10)
NAN, INF = float("nan"), float("inf")
RECORD = {"label": "p", "n": 1, "regions": [[1, 2, 1.0]], "endpoints": [1, 2]}


def count_at(interval_set, x):
    return oracle.count_membership(list(zip(interval_set.lefts, interval_set.rights)), x)


class TestMembershipAt:
    def test_film_h_at_4(self, film_sets):
        assert count_at(film_sets["Film H"], 4) == pytest.approx(0.8)

    def test_film_b_at_5(self, film_sets):
        assert count_at(film_sets["Film B"], 5) == pytest.approx(0.4)

    def test_film_b_outside(self, film_sets):
        assert count_at(film_sets["Film B"], 8) == 0.0


class TestConstruction:
    def test_film_a_single_spike(self, film_numbers):
        assert film_numbers["Film A"].regions == ((1, 1, 1.0),)

    def test_film_b_regions(self, film_numbers):
        assert list(film_numbers["Film B"].regions) == [
            (3, 4, 0.2),
            (5, 5, 0.4),
            (5, 6, 0.2),
            (6, 6, 0.4),
            (6, 7, 0.2),
            (10, 10, 0.2),
        ]

    def test_film_h_regions(self, film_numbers):
        assert list(film_numbers["Film H"].regions) == [
            (1, 1.5, 0.2),
            (1.5, 2, 0.4),
            (2, 3, 0.6),
            (3, 6.5, 0.8),
            (6.5, 8, 0.6),
            (8, 8.8, 0.8),
            (8.8, 9.3, 0.6),
            (9.3, 10, 0.4),
        ]

    def test_endpoints_retained(self, film_numbers):
        assert film_numbers["Film B"].endpoints == (3, 4, 5, 6, 7, 10)

    def test_label_and_n(self, film_numbers):
        fz = film_numbers["Film G"]
        assert fz.label == "Film G"
        assert fz.n == 5

    def test_label_is_the_interval_sets(self):
        assert construct_fuzzy(make_set("x", [(1, 2), (2, 4)]), WIDE).label == "x"

    def test_construct_fuzzy_takes_no_label_keyword(self):
        # a number is relabelled by relabelling its interval set
        with pytest.raises(TypeError):
            construct_fuzzy(make_set("x", [(1, 2)]), WIDE, label="y")

    def test_out_of_scale_rejected(self):
        iset = make_set("x", [(0, 5)])
        with pytest.raises(Exception):
            construct_fuzzy(iset, ScaleConfig(1, 10))

    def test_out_of_scale_names_the_first_offending_interval(self):
        iset = make_set("x", [(2, 3), (4, 12), (0, 5), (1, 10)])
        with pytest.raises(OutOfScale) as excinfo:
            construct_fuzzy(iset, ScaleConfig(1, 10))
        assert str(excinfo.value) == (
            "interval [4.0, 12.0] of 'x' outside scale [1.0, 10.0]"
        )

    def test_heights_are_fifths(self, film_numbers):
        for fz in film_numbers.values():
            for _, _, height in fz.regions:
                assert height * fz.n == pytest.approx(round(height * fz.n))

    def test_full_height_iff_total_overlap(self, film_numbers):
        for label in ("Film A", "Film I", "Film J"):
            assert max(h for _, _, h in film_numbers[label].regions) == 1.0
        assert max(h for _, _, h in film_numbers["Film B"].regions) < 1.0


class TestEvaluationPoints:
    def test_film_b_vs_best(self, film_numbers, film_ideals):
        best, _ = film_ideals
        assert evaluation_points(film_numbers["Film B"], best) == (3, 4, 5, 6, 7, 10)

    def test_self_union_idempotent(self, film_numbers):
        fz = film_numbers["Film A"]
        assert evaluation_points(fz, fz) == (1,)

    def test_film_g_vs_best(self, film_numbers, film_ideals):
        best, _ = film_ideals
        assert evaluation_points(film_numbers["Film G"], best) == (8, 9, 9.5, 10)


def from_regions(regs, n=1):
    return oracle.fuzzy_from_regions(regs, WIDE, n=n)


class TestCanonicalRegions:
    """A region list read under the maximum-height rule by the oracle builder
    comes back in canonical form."""

    def test_adjacent_equal_segments_merge(self):
        merged = from_regions([(0, 1, 0.5), (1, 2, 0.5)])
        assert merged.regions == ((0, 2, 0.5),)

    def test_spike_keeps_segments_split(self):
        regions = [(0, 1, 0.5), (1, 1, 0.8), (1, 2, 0.5)]
        assert list(from_regions(regions).regions) == regions

    def test_redundant_spike_dropped(self):
        merged = from_regions([(0, 1, 0.5), (1, 1, 0.5), (1, 2, 0.5)])
        assert merged.regions == ((0, 2, 0.5),)

    def test_spike_inside_segment_splits_it(self):
        cleaned = from_regions([(0, 4, 0.5), (2, 2, 0.8)])
        assert cleaned.regions == ((0, 2, 0.5), (2, 2, 0.8), (2, 4, 0.5))

    def test_zero_regions(self):
        with pytest.raises(ValueError, match="endpoints"):
            from_regions([])

    def test_idempotent_on_films(self, film_numbers):
        for fz in film_numbers.values():
            assert from_regions(fz.regions, n=fz.n).profile == fz.profile

    def test_idempotent_on_random_sets(self):
        rng = random.Random(23)
        for trial in range(300):
            pairs = oracle.random_pairs(rng)
            fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
            assert from_regions(fz.regions).regions == fz.regions


class TestOracleEquivalence:
    def test_quick_random_sample(self):
        rng = random.Random(31)
        for trial in range(300):
            pairs = oracle.random_pairs(rng)
            fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
            xs = list(fz.endpoints)
            xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            xs += [rng.uniform(0, 10) for _ in range(30)]
            for x in xs:
                assert fz.membership(x) == oracle.count_membership(pairs, x)

    def test_regions_match_oracle_decomposition(self):
        rng = random.Random(37)
        for trial in range(300):
            pairs = oracle.random_pairs(rng)
            fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
            assert list(fz.regions) == oracle.brute_regions(pairs)

    def test_support_preserved(self):
        rng = random.Random(41)
        for trial in range(300):
            pairs = oracle.random_pairs(rng)
            fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
            spans = []
            for left, right in sorted(pairs):
                if spans and left <= spans[-1][1]:
                    spans[-1][1] = max(spans[-1][1], right)
                else:
                    spans.append([left, right])
            region_spans = []
            for left, right, _ in fz.regions:
                if region_spans and left <= region_spans[-1][1]:
                    region_spans[-1][1] = max(region_spans[-1][1], right)
                else:
                    region_spans.append([left, right])
            assert region_spans == spans


class TestFuzzyNumberType:
    def test_membership_max_rule(self, film_numbers):
        fz = film_numbers["Film B"]
        assert fz.membership(5) == pytest.approx(0.4)
        assert fz.membership(5.5) == pytest.approx(0.2)
        assert fz.membership(4.5) == 0.0
        assert fz.membership(10) == pytest.approx(0.2)

    def test_support_bounds(self, film_numbers):
        fz = film_numbers["Film B"]
        assert fz.endpoints[0] == 3
        assert fz.endpoints[-1] == 10

    def test_needs_regions(self):
        for endpoints in ([], [1, 2]):
            payload = {**RECORD, "regions": [], "endpoints": endpoints}
            with pytest.raises(ValueError):
                FuzzyNumber.from_dict(payload, WIDE)

    @pytest.mark.parametrize(
        "left, right",
        [
            (NAN, 3), (3, NAN), (NAN, NAN),
            (-INF, 3), (3, INF), (-INF, INF),
            (INF, INF), (-INF, -INF),
        ],
    )
    def test_rejects_a_non_finite_region_bound(self, left, right):
        regions = [[0, 1, 0.5], [left, right, 1.0]]
        for endpoints in ([0, 1], [0, 1, left, right], [left, right]):
            payload = {"n": 1, "regions": regions, "endpoints": endpoints}
            with pytest.raises(ValueError):
                FuzzyNumber.from_dict(payload, WIDE)

    def test_calling_the_class_raises_type_error(self):
        # a number is made by construct_fuzzy or from_dict, never from regions
        regions = ((0, 1, 1.0),)
        with pytest.raises(TypeError, match="construct_fuzzy"):
            FuzzyNumber()
        with pytest.raises(TypeError):
            FuzzyNumber(regions, n=1, scale=WIDE)
        with pytest.raises(TypeError):
            FuzzyNumber(regions, (0, 1), n=1, scale=WIDE)
        with pytest.raises(TypeError):
            FuzzyNumber(regions, endpoints=(0, 1), n=1, scale=WIDE)
        with pytest.raises(TypeError):
            FuzzyNumber(regions, 1, WIDE)

    @pytest.mark.parametrize("regions, endpoints", [
        ([[2, 3, 0.5], [0, 1, 0.5]], [0, 1, 2, 3]),  # unsorted
        ([[0, 2, 0.5], [1, 3, 0.5]], [0, 1, 2, 3]),  # overlapping segments
        ([[0, 1, 0.5], [1, 2, 0.5]], [0, 1, 2]),  # touching equal segments
        ([[0, 1, 0.5], [1, 1, 0.5], [1, 2, 0.5]], [0, 1, 2]),  # redundant spike
        ([[0, 4, 0.5], [2, 2, 0.8]], [0, 2, 4]),  # spike inside a segment
        ([[0, 1, 0.5], [1, 1, 0.25], [1, 2, 0.75]], [0, 1, 2]),  # spike below
        ([[0, 1, 0.5], [0, 1, 0.5]], [0, 1]),  # a region twice
        ([[1, 2, 1.0]], [1, 2, 5]),  # a breakpoint outside every region
    ])
    def test_from_dict_rejects_a_region_list_that_is_not_canonical(
        self, regions, endpoints
    ):
        payload = {**RECORD, "regions": regions, "endpoints": endpoints}
        with pytest.raises(ValueError, match="not the canonical regions"):
            FuzzyNumber.from_dict(payload, WIDE)

    @pytest.mark.parametrize("height", [0, 0.0, -0.5, 1.5, NAN, INF])
    def test_from_dict_rejects_a_height_off_the_unit_interval(self, height):
        with pytest.raises(ValueError, match=r"heights must be in \(0, 1\]"):
            FuzzyNumber.from_dict({**RECORD, "regions": [[1, 2, height]]}, WIDE)

    def test_region_height_bounds(self, film_numbers):
        # every region of a built number runs left to right at a height in (0, 1]
        rng = random.Random(29)
        numbers = list(film_numbers.values()) + [
            construct_fuzzy(make_set(f"t{trial}", oracle.random_pairs(rng)), WIDE)
            for trial in range(100)
        ]
        for fz in numbers:
            for left, right, height in fz.regions:
                assert left <= right
                assert 0 < height <= 1

    def test_json_round_trip(self, film_numbers, film_scale):
        fz = film_numbers["Film B"]
        payload = json.loads(json.dumps(fz.to_dict()))
        assert set(payload) == {"label", "n", "regions", "endpoints"}
        again = FuzzyNumber.from_dict(payload, film_scale)
        assert again == fz

    @pytest.mark.parametrize(
        "endpoints",
        [[2, float("nan"), 1], [2, 1], [1, 1], [0, float("inf")], [-1, 5], [5, 11],
         # sorted and on the scale, but not the breakpoints [1, 2]; after [1]
         # the last segment is positive, which is refused before it is read
         [1, 1.5, 2], [1], [0, 1, 2], [], [1, 10 ** 400]],
    )
    def test_from_dict_rejects_bad_endpoints(self, endpoints):
        with pytest.raises(ValueError, match="endpoints"):
            FuzzyNumber.from_dict({**RECORD, "endpoints": endpoints}, WIDE)

    @pytest.mark.parametrize(
        "region", [[100, 200, 1.0], [-1, 2, 1.0], [9, 10.5, 0.5], [float("nan"), 2, 1.0]]
    )
    def test_from_dict_rejects_region_off_the_scale(self, region):
        # [100, 200] on [0, 10] used to give an attribute similarity of -4.86
        # against a spike at 0, outside the documented [0, 1] range
        payload = {**RECORD, "regions": [region], "endpoints": [2]}
        with pytest.raises(ValueError, match="not the canonical regions"):
            FuzzyNumber.from_dict(payload, WIDE)

    @pytest.mark.parametrize("n", [0, -3, True, "5", 2.7, None])
    def test_rejects_a_source_count_that_is_not_a_positive_int(self, n):
        # from_dict used to take the first five, truncating 2.7 to 2
        with pytest.raises(ValueError, match="source count"):
            FuzzyNumber.from_dict({**RECORD, "n": n}, WIDE)

    @pytest.mark.parametrize("payload", [
        {**RECORD, "endpoints": "12"},
        {**RECORD, "endpoints": [True, 2]},
        {**RECORD, "endpoints": None},
        {**RECORD, "endpoints": (1, 2)},
        {**RECORD, "regions": [["1", "2", 1.0]]},
        {**RECORD, "regions": [[1, 2, True]]},
        {**RECORD, "regions": [[1, 2]]},
        {**RECORD, "regions": [[1, 2, 1.0, 0.5]]},
        {**RECORD, "regions": [(1, 2, 1.0)]},
        {**RECORD, "regions": None},
        {**RECORD, "regions": "[[1, 2, 1.0]]"},
        {**RECORD, "label": 5},
        {**RECORD, "label": None},
        {**RECORD, "n": None},
        *({k: v for k, v in RECORD.items() if k != key}
          for key in ("n", "regions", "endpoints")),
        None, [], "{}", [[1, 2, 1.0]],
    ])
    def test_from_dict_refuses_a_wrong_json_type(self, payload):
        # "12" used to read as [1.0, 2.0], and "1", true and a label of 5
        # were taken; a missing or null key raised KeyError or TypeError
        with pytest.raises(ValueError):
            FuzzyNumber.from_dict(payload, WIDE)


# Region lists that differ but describe one membership function
SAME_MEMBERSHIP = {
    "spike inside a segment": (
        [(0, 4, 0.5), (2, 2, 0.8)],
        [(0, 2, 0.5), (2, 2, 0.8), (2, 4, 0.5)],
    ),
    "touching equal segments": ([(0, 1, 0.5), (1, 2, 0.5)], [(0, 2, 0.5)]),
}


class TestOneNumberPerMembership:
    @pytest.mark.parametrize("case", SAME_MEMBERSHIP)
    def test_same_membership_is_the_same_number(self, case):
        a, b = (from_regions(regs, n=5) for regs in SAME_MEMBERSHIP[case])
        assert a == b
        assert hash(a) == hash(b)
        assert attribute_vector(a) == attribute_vector(b)
        assert measure_similarity("attribute", a, b) == 1.0
        assert rank_universal([a, b]).ties == (("", ""),)

    def test_only_the_profile_is_stored(self, film_sets, film_scale, film_numbers):
        stored = ["profile", "n", "scale", "label"]
        assert list(FuzzyNumber._fields) == stored
        fresh = construct_fuzzy(film_sets["Film B"], film_scale)
        rebuilt = FuzzyNumber.from_dict(fresh.to_dict(), film_scale)
        assert list(vars(fresh)) == list(vars(rebuilt)) == stored
        assert fresh.endpoints is fresh.profile[0]
        assert rebuilt.endpoints is rebuilt.profile[0]
        assert "endpoints" not in repr(fresh)
        fz = film_numbers["Film B"]
        assert fz.regions is fz.regions
        assert fz.regions == tuple(map(tuple, fz.to_dict()["regions"]))

    def test_regions_survive_pickle_and_deepcopy(self, film_numbers, film_sets,
                                                  film_scale):
        # neither calls __init__, which raises; the copy derives equal triples
        fz = film_numbers["Film H"]
        for again in (pickle.loads(pickle.dumps(fz)), copy.deepcopy(fz)):
            assert again == fz
            assert again.regions == fz.regions
            assert all(type(v) is float for t in again.regions for v in t)
        # pickle and copy carry the fields only, whatever was read before
        fresh = construct_fuzzy(film_sets["Film H"], film_scale)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        before = [pickle.dumps(fresh, p) for p in protocols]
        fresh.regions
        attribute_vector(fresh)
        assert [pickle.dumps(fresh, p) for p in protocols] == before
        for again in (copy.copy(fresh), copy.deepcopy(fresh), pickle.loads(before[-1])):
            assert set(vars(again)) == set(FuzzyNumber._fields)
