import math
import random

import pytest

from iaarank import (
    Interval,
    IntervalSet,
    ScaleConfig,
    ideal_interval_set,
    load_dataset,
    midpoint_mean,
    parse_interval,
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


class TestParseInterval:
    def test_colon_form(self):
        assert parse_interval("1.5:6.5") == Interval(1.5, 6.5)

    def test_bracket_form(self):
        assert parse_interval("[1.5, 6.5]") == Interval(1.5, 6.5)

    def test_bare_number_is_point(self):
        assert parse_interval("7") == Interval(7, 7)

    def test_inverted_bounds(self):
        with pytest.raises(InvertedBounds):
            parse_interval("7:3")

    @pytest.mark.parametrize("text", ["", "abc", "1:2:3", "[1;2]", "[]", "1,2"])
    def test_malformed(self, text):
        with pytest.raises(MalformedInterval):
            parse_interval(text)

    @pytest.mark.parametrize("text", ["inf", "nan", "1:inf"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(MalformedInterval):
            parse_interval(text)

    def test_format_round_trips_bit_exact(self):
        rng = random.Random(7)
        for _ in range(500):
            left = rng.uniform(-1e6, 1e6) * rng.choice([1, 1e-7, 1e7])
            right = left + abs(rng.gauss(0, 10))
            interval = Interval(left, right)
            again = parse_interval(f"{interval.left!r}:{interval.right!r}")
            assert again.left == interval.left
            assert again.right == interval.right


class TestIntervalAndScale:
    def test_inverted_construction(self):
        with pytest.raises(InvertedBounds):
            Interval(2, 1)

    def test_point_interval_legal(self):
        interval = Interval(3, 3)
        assert (interval.left, interval.right) == (3.0, 3.0)

    def test_non_finite_bounds(self):
        with pytest.raises(MalformedInterval):
            Interval(0, math.inf)

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
        assert iset.intervals == (Interval(10, 10),) * 5

    def test_worst(self):
        iset = ideal_interval_set(ScaleConfig(1, 10), 5, "worst")
        assert iset.intervals == (Interval(1, 1),) * 5

    def test_single_source_wide_scale(self):
        iset = ideal_interval_set(ScaleConfig(0, 100), 1, "best")
        assert iset.intervals == (Interval(100, 100),)

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


class TestLoadDataset:
    def test_film_fixture(self, film_scale, film_sets):
        from iaarank import bundled_path

        dataset = load_dataset(bundled_path("films"), film_scale)
        assert dataset.alternatives == tuple(FILM_INTERVALS)
        assert dataset.criteria == ("overall",)
        for label, expected in film_sets.items():
            cell = dataset.cell(label, "overall")
            assert cell.n == 5
            assert sorted(cell.intervals, key=lambda iv: (iv.left, iv.right)) == sorted(
                expected.intervals, key=lambda iv: (iv.left, iv.right)
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
        assert dataset.cell("A", "c").intervals == (Interval(1, 2), Interval(3, 4))

    def test_json_mirror(self, tmp_path, film_scale):
        rows = [
            {"alternative": "A", "criterion": "c", "source": "s1", "left": 1, "right": 2},
            {"alternative": "A", "criterion": "c", "source": "s2", "left": 2, "right": 3},
        ]
        import json

        path = tmp_path / "d.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        dataset = load_dataset(path, film_scale)
        assert dataset.cell("A", "c").intervals == (Interval(1, 2), Interval(2, 3))

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
