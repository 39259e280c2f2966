import math
import random

import pytest

from iaarank import (
    IntervalSet,
    ScaleConfig,
    ideal_interval_set,
    load_dataset,
    midpoint_mean,
)
from iaarank.errors import (
    EmptyDataset,
    InvertedBounds,
    MalformedInterval,
    MalformedRow,
    OutOfScale,
    RaggedCellWarning,
    ZeroSources,
)

import oracle
from conftest import FILM_INTERVALS, make_set


class TestIntervalAndScale:
    def test_inverted_construction(self):
        with pytest.raises(InvertedBounds) as excinfo:
            IntervalSet([(0, 1), (2, 1)])
        assert str(excinfo.value) == "left bound 2.0 exceeds right bound 1.0"

    def test_point_interval_legal(self):
        iset = IntervalSet([(3, 3)])
        assert (iset.lefts, iset.rights) == ((3.0,), (3.0,))

    @pytest.mark.parametrize("pair,shown", [
        ((0, math.inf), "[0.0, inf]"),
        ((-math.inf, 1), "[-inf, 1.0]"),
        ((math.nan, 1), "[nan, 1.0]"),
    ])
    def test_non_finite_bounds(self, pair, shown):
        with pytest.raises(MalformedInterval) as excinfo:
            IntervalSet([pair])
        assert str(excinfo.value) == f"interval bounds must be finite, got {shown}"

    def test_bounds_are_converted_with_float(self):
        iset = IntervalSet([(1, "2.5"), (2, 3)], "f")
        assert (iset.lefts, iset.rights) == ((1.0, 2.0), (2.5, 3.0))
        assert all(type(v) is float for v in iset.lefts + iset.rights)
        assert iset == IntervalSet(iter([(1.0, 2.5), (2.0, 3.0)]), "f")
        with pytest.raises(ValueError):
            IntervalSet([("one", 2)])

    def test_scale_requires_positive_range(self):
        with pytest.raises(ValueError):
            ScaleConfig(5, 5)
        assert ScaleConfig(1, 10).range == 9

    def test_interval_set_needs_sources(self):
        with pytest.raises(ZeroSources):
            IntervalSet((), "empty")

    def test_duplicates_kept(self):
        iset = make_set("dup", [(1, 2), (1, 2)])
        assert iset.n == 2


class TestIdealSets:
    def test_best(self):
        iset = ideal_interval_set(ScaleConfig(1, 10), 5, "best")
        assert (iset.lefts, iset.rights) == ((10.0,) * 5, (10.0,) * 5)

    def test_worst(self):
        iset = ideal_interval_set(ScaleConfig(1, 10), 5, "worst")
        assert (iset.lefts, iset.rights) == ((1.0,) * 5, (1.0,) * 5)

    def test_single_source_wide_scale(self):
        iset = ideal_interval_set(ScaleConfig(0, 100), 1, "best")
        assert (iset.lefts, iset.rights) == ((100.0,), (100.0,))

    def test_zero_sources(self):
        with pytest.raises(ZeroSources):
            ideal_interval_set(ScaleConfig(1, 10), 0, "best")

    def test_bad_which(self):
        with pytest.raises(ValueError):
            ideal_interval_set(ScaleConfig(1, 10), 5, "median")


class TestMidpointMean:
    def test_film_b(self):
        assert midpoint_mean(make_set("B", FILM_INTERVALS["Film B"])) == pytest.approx(
            6.1, abs=1e-12
        )

    def test_film_h(self):
        assert midpoint_mean(make_set("H", FILM_INTERVALS["Film H"])) == pytest.approx(
            6.01, abs=1e-12
        )

    def test_all_point_intervals(self):
        assert midpoint_mean(make_set("A", [(1, 1)] * 5)) == 1.0

    def test_translation_equivariance(self):
        rng = random.Random(11)
        for _ in range(200):
            pairs = [
                tuple(sorted((rng.uniform(0, 50), rng.uniform(0, 50))))
                for _ in range(rng.randint(1, 8))
            ]
            delta = rng.uniform(-20, 20)
            moved = make_set("t", oracle.shifted(pairs, delta))
            assert midpoint_mean(moved) == pytest.approx(
                midpoint_mean(make_set("t", pairs)) + delta, abs=1e-12
            )


FILM_CSV_HEADER = "alternative,criterion,source,left,right\n"


def write_csv(path, body):
    path.write_text(FILM_CSV_HEADER + body, encoding="utf-8")
    return path


class TestBoundText:
    """The loader is the one place interval bound text is read."""

    @pytest.mark.parametrize("text", ["", "abc", "1:2", "[1", "1;2", "2e"])
    def test_malformed_bound(self, tmp_path, film_scale, text):
        path = write_csv(tmp_path / "b.csv", f"A,c,s,{text},9\n")
        with pytest.raises(MalformedRow) as excinfo:
            load_dataset(path, film_scale)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_bound(self, tmp_path, film_scale, text):
        path = write_csv(tmp_path / "f.csv", f"A,c,s,1,{text}\n")
        with pytest.raises(MalformedRow, match="finite"):
            load_dataset(path, film_scale)

    def test_equal_bounds_load_as_a_point(self, tmp_path, film_scale):
        path = write_csv(tmp_path / "p.csv", "A,c,s,7,7\n")
        dataset = load_dataset(path, film_scale)
        cell = dataset.cell("A", "c")
        assert (cell.lefts, cell.rights) == ((7.0,), (7.0,))

    def test_repr_bounds_round_trip_bit_exact(self, tmp_path):
        rng = random.Random(7)
        scale = ScaleConfig(-1e13, 1e13)
        pairs = []
        for _ in range(200):
            left = rng.uniform(-1e6, 1e6) * rng.choice([1, 1e-7, 1e7])
            pairs.append((left, left + abs(rng.gauss(0, 10))))
        body = "".join(
            f"A,c,s{i:03d},{left!r},{right!r}\n"
            for i, (left, right) in enumerate(pairs)
        )
        path = write_csv(tmp_path / "r.csv", body)
        cell = load_dataset(path, scale).cell("A", "c")
        assert cell.lefts == tuple(left for left, _ in pairs)
        assert cell.rights == tuple(right for _, right in pairs)


class TestLoadDataset:
    def test_film_fixture(self, film_scale, film_sets):
        from iaarank import bundled_path

        dataset = load_dataset(bundled_path("films"), film_scale)
        assert dataset.alternatives == tuple(FILM_INTERVALS)
        assert dataset.criteria == ("overall",)
        for label, expected in film_sets.items():
            cell = dataset.cell(label, "overall")
            assert cell.n == 5
            assert sorted(zip(cell.lefts, cell.rights)) == sorted(
                zip(expected.lefts, expected.rights)
            )

    def test_deterministic(self, film_scale):
        from iaarank import bundled_path

        first = load_dataset(bundled_path("films"), film_scale)
        second = load_dataset(bundled_path("films"), film_scale)
        assert first == second

    def test_empty_file(self, tmp_path, film_scale):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyDataset):
            load_dataset(path, film_scale)

    def test_header_only(self, tmp_path, film_scale):
        path = write_csv(tmp_path / "h.csv", "")
        with pytest.raises(EmptyDataset):
            load_dataset(path, film_scale)

    def test_bad_header(self, tmp_path, film_scale):
        path = tmp_path / "bad.csv"
        path.write_text("alt,crit,src,l,r\nA,c,s,1,2\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_dataset(path, film_scale)

    def test_bad_number(self, tmp_path, film_scale):
        path = write_csv(tmp_path / "n.csv", "A,c,s,one,2\n")
        with pytest.raises(MalformedRow) as excinfo:
            load_dataset(path, film_scale)
        assert excinfo.value.line == 2

    def test_wrong_field_count(self, tmp_path, film_scale):
        path = write_csv(tmp_path / "w.csv", "A,c,s,1\n")
        with pytest.raises(MalformedRow):
            load_dataset(path, film_scale)

    def test_out_of_scale(self, tmp_path, film_scale):
        path = write_csv(tmp_path / "o.csv", "A,c,s,1,2\nA,c,t,1,11\n")
        with pytest.raises(OutOfScale) as excinfo:
            load_dataset(path, film_scale)
        assert excinfo.value.line == 3

    def test_inverted_row_names_line(self, tmp_path, film_scale):
        path = write_csv(tmp_path / "i.csv", "A,c,s,1,2\nA,c,t,7,3\n")
        with pytest.raises(InvertedBounds) as excinfo:
            load_dataset(path, film_scale)
        assert "line 3" in str(excinfo.value)
        assert excinfo.value.line == 3

    def test_missing_cell(self, tmp_path, film_scale):
        body = "A,c1,s,1,2\nA,c2,s,1,2\nB,c1,s,1,2\n"
        path = write_csv(tmp_path / "m.csv", body)
        with pytest.raises(MalformedRow):
            load_dataset(path, film_scale)

    def test_ragged_cell_warns(self, tmp_path, film_scale):
        body = "A,c1,s1,1,2\nA,c1,s2,1,2\nA,c2,s1,1,2\n"
        path = write_csv(tmp_path / "r.csv", body)
        with pytest.warns(RaggedCellWarning):
            load_dataset(path, film_scale)

    def test_sources_ordered_by_label(self, tmp_path, film_scale):
        body = "A,c,s2,3,4\nA,c,s1,1,2\n"
        path = write_csv(tmp_path / "s.csv", body)
        dataset = load_dataset(path, film_scale)
        cell = dataset.cell("A", "c")
        assert list(zip(cell.lefts, cell.rights)) == [(1.0, 2.0), (3.0, 4.0)]

    def test_json_mirror(self, tmp_path, film_scale):
        rows = [
            {"alternative": "A", "criterion": "c", "source": "s1", "left": 1, "right": 2},
            {"alternative": "A", "criterion": "c", "source": "s2", "left": 2, "right": 3},
        ]
        import json

        path = tmp_path / "d.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        dataset = load_dataset(path, film_scale)
        cell = dataset.cell("A", "c")
        assert list(zip(cell.lefts, cell.rights)) == [(1.0, 2.0), (2.0, 3.0)]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_json_boolean_bound_rejected(self, tmp_path, film_scale, side):
        import json

        rows = [
            {"alternative": "A", "criterion": "c", "source": "s1", "left": 1, "right": 2},
            {"alternative": "A", "criterion": "c", "source": "s2", "left": 1, "right": 2},
        ]
        rows[1][side] = True
        path = tmp_path / "b.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(MalformedRow) as excinfo:
            load_dataset(path, film_scale)
        assert excinfo.value.line == 2
        assert f"{path} row 2" in str(excinfo.value)

    def test_json_bad_shape(self, tmp_path, film_scale):
        path = tmp_path / "d.json"
        path.write_text('{"rows": []}', encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_dataset(path, film_scale)

    def test_criterion_column_and_exclusion(self, tmp_path, film_scale):
        body = (
            "A,c1,s,1,2\nA,c2,s,2,3\nB,c1,s,3,4\nB,c2,s,4,5\n"
        )
        path = write_csv(tmp_path / "mc.csv", body)
        dataset = load_dataset(path, film_scale)
        assert dataset.criteria == ("c1", "c2")
        assert [s.label for s in dataset.column("c2")] == ["A", "B"]
        reduced = dataset.without_criterion("c1")
        assert reduced.criteria == ("c2",)
        with pytest.raises(KeyError):
            dataset.without_criterion("c9")
