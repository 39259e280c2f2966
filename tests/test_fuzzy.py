import json
import random

import pytest

from iaarank import (
    FuzzyNumber,
    Interval,
    IntervalSet,
    Region,
    ScaleConfig,
    attribute_similarity,
    attribute_vector,
    canonicalize,
    construct_fuzzy,
    evaluation_points,
    universal_compare,
)
from iaarank.errors import OutOfScale

import oracle
from conftest import make_set

WIDE = ScaleConfig(0, 10)
NAN, INF = float("nan"), float("inf")


def triples(fz):
    return [(r.left, r.right, r.height) for r in fz.regions]


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
        assert triples(film_numbers["Film A"]) == [(1, 1, 1.0)]

    def test_film_b_regions(self, film_numbers):
        assert triples(film_numbers["Film B"]) == [
            (3, 4, 0.2),
            (5, 5, 0.4),
            (5, 6, 0.2),
            (6, 6, 0.4),
            (6, 7, 0.2),
            (10, 10, 0.2),
        ]

    def test_film_h_regions(self, film_numbers):
        assert triples(film_numbers["Film H"]) == [
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
            for region in fz.regions:
                assert region.height * fz.n == pytest.approx(
                    round(region.height * fz.n)
                )

    def test_full_height_iff_total_overlap(self, film_numbers):
        for label in ("Film A", "Film I", "Film J"):
            assert max(r.height for r in film_numbers[label].regions) == 1.0
        assert max(r.height for r in film_numbers["Film B"].regions) < 1.0


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


class TestCanonicalize:
    def test_adjacent_equal_segments_merge(self):
        merged = canonicalize([Region(0, 1, 0.5), Region(1, 2, 0.5)])
        assert merged == (Region(0, 2, 0.5),)

    def test_spike_keeps_segments_split(self):
        regions = (Region(0, 1, 0.5), Region(1, 1, 0.8), Region(1, 2, 0.5))
        assert canonicalize(regions) == regions

    def test_redundant_spike_dropped(self):
        merged = canonicalize([Region(0, 1, 0.5), Region(1, 1, 0.5), Region(1, 2, 0.5)])
        assert merged == (Region(0, 2, 0.5),)

    def test_spike_inside_segment_splits_it(self):
        cleaned = canonicalize([Region(0, 4, 0.5), Region(2, 2, 0.8)])
        assert cleaned == (Region(0, 2, 0.5), Region(2, 2, 0.8), Region(2, 4, 0.5))

    def test_zero_regions(self):
        assert canonicalize([]) == ()

    @pytest.mark.parametrize("region", [Region(NAN, 3, 1.0), Region(3, INF, 1.0)])
    def test_rejects_a_non_finite_region_bound(self, region):
        # NaN used to end the sweep in an IndexError; inf came back unchecked
        with pytest.raises(ValueError, match="region bounds must be finite"):
            canonicalize([region])

    def test_idempotent_on_films(self, film_numbers):
        for fz in film_numbers.values():
            assert canonicalize(fz.regions) == fz.regions

    def test_idempotent_on_random_sets(self):
        rng = random.Random(23)
        for trial in range(300):
            pairs = oracle.random_pairs(rng)
            fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
            assert canonicalize(fz.regions) == fz.regions


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
            assert triples(fz) == oracle.brute_regions(pairs)

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
            for r in fz.regions:
                if region_spans and r.left <= region_spans[-1][1]:
                    region_spans[-1][1] = max(region_spans[-1][1], r.right)
                else:
                    region_spans.append([r.left, r.right])
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
        with pytest.raises(ValueError):
            FuzzyNumber(regions=(), n=1, scale=WIDE)

    @pytest.mark.parametrize(
        "left, right",
        [
            (NAN, 3), (3, NAN), (NAN, NAN),
            (-INF, 3), (3, INF), (-INF, INF),
            (INF, INF), (-INF, -INF),
        ],
    )
    def test_rejects_a_non_finite_region_bound(self, left, right):
        # a NaN bound used to end the profile sweep in an IndexError
        regions = (Region(0, 1, 0.5), Region(left, right, 1.0))
        for given in (regions[1:], sorted(regions, key=lambda r: r.left)):
            with pytest.raises(ValueError, match="region bounds must be finite"):
                FuzzyNumber(given, n=1, scale=WIDE)

    def test_old_call_forms_raise_type_error(self):
        regions = (Region(0, 1, 1.0),)
        with pytest.raises(TypeError):
            FuzzyNumber(regions, (0, 1), n=1, scale=WIDE)
        with pytest.raises(TypeError):
            FuzzyNumber(regions, endpoints=(0, 1), n=1, scale=WIDE)
        with pytest.raises(TypeError):
            FuzzyNumber(regions, 1, WIDE)

    def test_rejects_unsorted_regions(self):
        with pytest.raises(ValueError):
            FuzzyNumber(
                regions=(Region(2, 3, 0.5), Region(0, 1, 0.5)),
                n=2,
                scale=WIDE,
            )

    def test_rejects_overlapping_segments(self):
        with pytest.raises(ValueError):
            FuzzyNumber(
                regions=(Region(0, 2, 0.5), Region(1, 3, 0.5)),
                n=2,
                scale=WIDE,
            )

    def test_region_height_bounds(self):
        with pytest.raises(ValueError):
            Region(0, 1, 0.0)
        with pytest.raises(ValueError):
            Region(0, 1, 1.5)
        with pytest.raises(ValueError):
            Region(2, 1, 0.5)

    def test_json_round_trip(self, film_numbers, film_scale):
        fz = film_numbers["Film B"]
        payload = json.loads(json.dumps(fz.to_dict()))
        assert set(payload) == {"label", "n", "regions", "endpoints"}
        again = FuzzyNumber.from_dict(payload, film_scale)
        assert again == fz

    @pytest.mark.parametrize(
        "endpoints",
        [[2, float("nan"), 1], [2, 1], [1, 1], [0, float("inf")], [-1, 5], [5, 11],
         # sorted and on the scale, but not the breakpoints [1, 2]
         [1, 1.5, 2], [1], [0, 1, 2]],
    )
    def test_from_dict_rejects_bad_endpoints(self, endpoints):
        payload = {"label": "p", "n": 1, "regions": [[1, 2, 1.0]],
                   "endpoints": endpoints}
        with pytest.raises(ValueError, match="endpoints"):
            FuzzyNumber.from_dict(payload, WIDE)

    @pytest.mark.parametrize(
        "region", [[100, 200, 1.0], [-1, 2, 1.0], [9, 10.5, 0.5], [float("nan"), 2, 1.0]]
    )
    def test_from_dict_rejects_region_off_the_scale(self, region):
        # [100, 200] on [0, 10] used to give an attribute similarity of -4.86
        # against a spike at 0, outside the documented [0, 1] range
        payload = {"label": "p", "n": 1, "regions": [region], "endpoints": [2]}
        with pytest.raises(ValueError, match="outside the scale"):
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
        a, b = (
            FuzzyNumber(tuple(Region(*t) for t in regs), n=5, scale=WIDE)
            for regs in SAME_MEMBERSHIP[case]
        )
        assert a == b
        assert hash(a) == hash(b)
        assert attribute_vector(a) == attribute_vector(b)
        assert attribute_similarity(a, b) == 1.0
        assert universal_compare(a, b) == 0

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
        assert fz.regions == tuple(Region(*t) for t in fz.to_dict()["regions"])
