import math
import random

import pytest

from iaarank import (
    ScaleConfig,
    attribute_vector,
    bundled_path,
    construct_fuzzy,
    feature_vector,
    load_dataset,
    membership_polyline,
)
from iaarank.errors import ScaleMismatch

import oracle
from conftest import make_set

WIDE = ScaleConfig(0, 10)


def fn(regions, n=5, scale=WIDE):
    return oracle.fuzzy_from_regions(regions, scale, n=n)


@pytest.fixture
def rectangle():
    return fn([(0, 2, 0.6)])


@pytest.fixture
def two_step():
    return fn([(0, 1, 0.5), (1, 2, 1.0)], n=2)


class TestCentroid:
    def test_film_b_reference_value(self, film_numbers):
        v = attribute_vector(film_numbers["Film B"])
        assert v.centroid_x == pytest.approx(5.9375, abs=1e-9)
        assert v.centroid_y == pytest.approx(0.8 / 6, abs=1e-9)

    def test_single_spike(self, film_numbers):
        v = attribute_vector(film_numbers["Film A"])
        assert (v.centroid_x, v.centroid_y) == (1.0, 0.5)

    def test_film_h_above_film_b(self, film_numbers):
        # A defensible alternative reading of this shape gives ~6.036;
        # the ordering against Film B holds either way.
        cx_h = attribute_vector(film_numbers["Film H"]).centroid_x
        assert cx_h == pytest.approx(6.0477, abs=5e-4)
        assert cx_h > attribute_vector(film_numbers["Film B"]).centroid_x

    def test_oracle_agreement(self, film_numbers):
        rng = random.Random(43)
        for trial in range(200):
            pairs = oracle.random_pairs(rng)
            fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
            ox, oy = oracle.brute_centroid(oracle.brute_regions(pairs))
            v = attribute_vector(fz)
            assert v.centroid_x == pytest.approx(ox, abs=1e-9)
            assert v.centroid_y == pytest.approx(oy, abs=1e-9)


class TestArea:
    def test_spike_has_no_area(self, film_numbers):
        assert attribute_vector(film_numbers["Film A"]).area == 0.0

    def test_film_b(self, film_numbers):
        assert attribute_vector(film_numbers["Film B"]).area == pytest.approx(0.6)

    def test_film_h(self, film_numbers):
        assert attribute_vector(film_numbers["Film H"]).area == pytest.approx(5.82)

    def test_grid_integration_agreement(self, film_sets, film_scale):
        for label, iset in film_sets.items():
            fz = construct_fuzzy(iset, film_scale)
            pairs = list(zip(iset.lefts, iset.rights))
            grid = oracle.grid_area(pairs, 1.0, 10.0, step=1e-3)
            assert attribute_vector(fz).area == pytest.approx(
                grid, abs=1e-3 * film_scale.range
            )

    def test_grid_integration_random(self):
        rng = random.Random(47)
        for trial in range(25):
            pairs = oracle.random_pairs(rng)
            fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
            grid = oracle.grid_area(pairs, 0.0, 10.0, step=1e-3)
            assert attribute_vector(fz).area == pytest.approx(
                grid, abs=1e-3 * WIDE.range
            )


class TestHeight:
    @pytest.mark.parametrize(
        "label,expected",
        [("Film A", 1.0), ("Film B", 0.4), ("Film H", 0.8)],
    )
    def test_films(self, film_numbers, label, expected):
        assert attribute_vector(film_numbers[label]).height == pytest.approx(expected)


class TestPerimeter:
    def test_isolated_spike(self, film_numbers):
        assert attribute_vector(film_numbers["Film A"]).perimeter == pytest.approx(2.0)

    def test_two_step(self, two_step):
        assert attribute_vector(two_step).perimeter == pytest.approx(6.0)

    def test_rectangle(self, rectangle):
        assert attribute_vector(rectangle).perimeter == pytest.approx(5.2)

    def test_film_b(self, film_numbers):
        assert attribute_vector(film_numbers["Film B"]).perimeter == pytest.approx(8.0)

    def test_spike_inside_segment(self):
        # rise 0.5, spike 0.5 -> 0.8 -> 0.5, drop 0.5, plus twice the span 4
        fz = fn([(0, 4, 0.5), (2, 2, 0.8)])
        assert attribute_vector(fz).perimeter == pytest.approx(9.6)

    def test_film_h(self, film_numbers):
        assert attribute_vector(film_numbers["Film H"]).perimeter == pytest.approx(20.0)

    def test_oracle_agreement(self):
        rng = random.Random(53)
        for trial in range(200):
            pairs = oracle.random_pairs(rng)
            fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
            expected = oracle.brute_perimeter(oracle.brute_regions(pairs))
            assert attribute_vector(fz).perimeter == pytest.approx(expected, abs=1e-9)


class TestQuartiles:
    def test_single_spike(self, film_numbers):
        assert attribute_vector(film_numbers["Film A"]).quartiles == (1, 1, 1, 1, 1)

    def test_spike_at_eight(self, film_numbers):
        assert attribute_vector(film_numbers["Film I"]).quartiles == (8, 8, 8, 8, 8)

    def test_uniform_rectangle(self):
        assert attribute_vector(fn([(0, 2, 0.5)])).quartiles == (0, 0.5, 1.0, 1.5, 2.0)

    def test_film_b(self, film_numbers):
        assert attribute_vector(film_numbers["Film B"]).quartiles == pytest.approx(
            (3, 3.75, 5.5, 6.25, 10)
        )

    def test_outer_points_pinned_to_support(self, film_numbers):
        for fz in film_numbers.values():
            points = attribute_vector(fz).quartiles
            assert points[0] == fz.endpoints[0]
            assert points[4] == fz.endpoints[-1]
            assert sorted(points) == list(points)

    def test_discrete_fallback_two_spikes(self):
        fz = fn([(2, 2, 0.4), (5, 5, 0.2)])
        assert attribute_vector(fz).quartiles == (2, 2, 2, 5, 5)


class TestAgreementRatio:
    def test_rectangle(self, rectangle):
        assert attribute_vector(rectangle).agreement_ratio == pytest.approx(0.6)

    def test_film_b_gaps_excluded(self, film_numbers):
        # support spans [3,4], [5,7] and the spike at 10: total width 3,
        # against an area of 0.6
        fz = film_numbers["Film B"]
        assert attribute_vector(fz).agreement_ratio == pytest.approx(0.2)

    def test_film_h(self, film_numbers):
        fz = film_numbers["Film H"]
        assert attribute_vector(fz).agreement_ratio == pytest.approx(5.82 / 9)

    def test_pure_spike_rates_zero(self, film_numbers):
        assert attribute_vector(film_numbers["Film A"]).agreement_ratio == 0.0


class TestFeatureVector:
    def test_spike_pair_far_apart(self, film_numbers, film_ideals):
        best, _ = film_ideals
        fv = feature_vector(film_numbers["Film A"], best)
        assert fv[0] == pytest.approx(1.0)
        assert fv[1] == pytest.approx(9 / math.sqrt(81.25))
        assert fv[2:] == (0.0, 0.0, 0.0, 0.0)

    def test_spike_pair_near(self, film_numbers, film_ideals):
        best, _ = film_ideals
        fv = feature_vector(film_numbers["Film I"], best)
        assert fv[0] == pytest.approx(10 / 45)
        assert fv[1] == pytest.approx(2 / math.sqrt(81.25))
        assert fv[2:] == (0.0, 0.0, 0.0, 0.0)

    def test_identity(self, film_numbers):
        fz = film_numbers["Film D"]
        assert feature_vector(fz, fz) == (0,) * 6

    def test_scale_mismatch(self, film_numbers):
        other = fn([(0, 2, 0.5)], scale=ScaleConfig(0, 100))
        with pytest.raises(ScaleMismatch):
            feature_vector(film_numbers["Film A"], other)

    def test_components_in_unit_range(self):
        rng = random.Random(59)
        for trial in range(200):
            a = construct_fuzzy(make_set("a", oracle.random_pairs(rng)), WIDE)
            b = construct_fuzzy(make_set("b", oracle.random_pairs(rng)), WIDE)
            for component in feature_vector(a, b):
                assert 0.0 <= component <= 1.0

    def test_equals_the_oracle_terms(self):
        rng = random.Random(67)
        for trial in range(200):
            a = construct_fuzzy(make_set("a", oracle.random_pairs(rng)), WIDE)
            b = construct_fuzzy(make_set("b", oracle.random_pairs(rng)), WIDE)
            assert feature_vector(a, b) == oracle.feature_terms(
                attribute_vector(a), attribute_vector(b), WIDE.range
            )


class TestTranslationEquivariance:
    def test_shift_moves_x_quantities_only(self):
        rng = random.Random(61)
        scale = ScaleConfig(-100, 100)
        for trial in range(150):
            pairs = oracle.random_pairs(rng, low=0, high=10)
            delta = rng.uniform(-40, 40)
            iset = make_set(f"t{trial}", pairs)
            base = attribute_vector(construct_fuzzy(iset, scale))
            moved_set = make_set(f"t{trial}", oracle.shifted(pairs, delta))
            moved = attribute_vector(construct_fuzzy(moved_set, scale))
            assert moved.centroid_x == pytest.approx(base.centroid_x + delta, abs=1e-9)
            for p, q in zip(moved.quartiles, base.quartiles):
                assert p == pytest.approx(q + delta, abs=1e-9)
            assert moved.centroid_y == pytest.approx(base.centroid_y, abs=1e-9)
            assert moved.area == pytest.approx(base.area, abs=1e-9)
            assert moved.height == base.height
            assert moved.perimeter == pytest.approx(base.perimeter, abs=1e-9)
            assert moved.agreement_ratio == pytest.approx(
                base.agreement_ratio, abs=1e-9
            )

    def test_centroid_inside_support_hull(self):
        rng = random.Random(67)
        for trial in range(200):
            fz = construct_fuzzy(make_set("t", oracle.random_pairs(rng)), WIDE)
            cx = attribute_vector(fz).centroid_x
            assert fz.endpoints[0] - 1e-12 <= cx <= fz.endpoints[-1] + 1e-12


class TestScaleUnits:
    # A = {[2,5],[3,7],[4,6]} and B = {[1,3],[2,4]} on [0, 10]: agreement
    # ratios 0.6 and 2/3, areas 3 and 2.
    PAIRS = ([(2, 5), (3, 7), (4, 6)], [(1, 3), (2, 4)])

    @pytest.mark.parametrize("factor", [2.0 ** -44, 2.0 ** -400, 2.0 ** 40])
    def test_dyadic_scaling_scales_the_quartiles_and_keeps_the_agreement(self, factor):
        # Multiplying data and scale by a power of two rounds nothing, so no
        # threshold in scale units may switch a branch.
        scale = ScaleConfig(0, 10 * factor)
        for pairs, agreement in zip(self.PAIRS, (0.6, 2 / 3)):
            base = attribute_vector(construct_fuzzy(make_set("x", pairs), WIDE))
            scaled_set = make_set("x", [(left * factor, right * factor)
                                        for left, right in pairs])
            scaled = attribute_vector(construct_fuzzy(scaled_set, scale))
            assert base.agreement_ratio == pytest.approx(agreement)
            assert scaled.agreement_ratio == base.agreement_ratio
            assert scaled.quartiles == tuple(q * factor for q in base.quartiles)

    def test_no_bundled_or_benchmark_number_has_an_area_or_support_up_to_1e_12(self):
        # Where none does, comparing the area and the support length with
        # 0.0 rather than 1e-12 takes the same branch, so no output moved.
        from workload_inputs import WORKLOADS, dataset

        datasets = [load_dataset(bundled_path(name), scale) for name, scale in
                    (("films", ScaleConfig(1, 10)), ("synthetic-3x2", WIDE))]
        datasets += [dataset(name) for name in WORKLOADS]
        for grid in datasets:
            for cell in grid.cells.values():
                fz = construct_fuzzy(cell, grid.scale)
                for value in (attribute_vector(fz).area,
                              oracle.brute_support_length(fz.regions)):
                    assert not 0.0 < value <= 1e-12, (cell, value)


class TestPolyline:
    def test_single_spike(self, film_numbers):
        assert membership_polyline(film_numbers["Film A"]) == [(1, 0), (1, 1), (1, 0)]

    def test_rectangle(self):
        assert membership_polyline(fn([(0, 2, 0.5)])) == [
            (0, 0),
            (0, 0.5),
            (2, 0.5),
            (2, 0),
        ]

    def test_spike_inside_segment(self):
        assert membership_polyline(fn([(0, 4, 0.5), (2, 2, 0.8)])) == [
            (0, 0),
            (0, 0.5),
            (2, 0.5),
            (2, 0.8),
            (2, 0.5),
            (4, 0.5),
            (4, 0),
        ]

    def test_film_h_leading_vertices(self, film_numbers):
        vertices = membership_polyline(film_numbers["Film H"])
        assert vertices[:4] == [(1, 0), (1, 0.2), (1.5, 0.2), (1.5, 0.4)]

    def test_spike_between_segments(self, film_numbers):
        vertices = membership_polyline(film_numbers["Film B"])
        assert (6, 0.2) in vertices and (6, 0.4) in vertices
        # spike triplet at the component edge
        i = vertices.index((5, 0))
        assert vertices[i : i + 3] == [(5, 0), (5, 0.4), (5, 0.2)]


class TestAttributeVector:
    def test_all_fields_populated(self, film_numbers):
        attrs = attribute_vector(film_numbers["Film H"])
        payload = attrs.to_dict()
        assert set(payload) == {
            "quartiles",
            "centroid_x",
            "centroid_y",
            "area",
            "height",
            "perimeter",
            "agreement_ratio",
        }

    def test_memoized_identity(self, film_numbers):
        fz = film_numbers["Film H"]
        assert attribute_vector(fz) is attribute_vector(fz)
