import csv
import io
import json
import math
import pickle
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iaarank import FuzzyNumber, IntervalSet, ScaleConfig, construct_fuzzy
from iaarank import cli
from iaarank.cli import main

FILMS = ["--input", "films", "--scale-min", "1", "--scale-max", "10"]
SYNTH = ["--input", "synthetic-3x2", "--scale-min", "0", "--scale-max", "10"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_rows(path, rows):
    path.write_text(
        "alternative,criterion,source,left,right\n" + rows, encoding="utf-8"
    )
    return str(path)


class TestBuild:
    def test_film_records(self, capsys):
        code, out, _ = run(capsys, "build", *FILMS)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 10
        by_label = {r["label"]: r for r in records}
        assert by_label["Film A"]["regions"] == [[1.0, 1.0, 1.0]]
        assert by_label["Film A"]["n"] == 5
        assert by_label["Film B"]["endpoints"] == [3, 4, 5, 6, 7, 10]
        assert set(records[0]) == {
            "alternative",
            "criterion",
            "label",
            "n",
            "regions",
            "endpoints",
        }

    def test_json_format_is_array(self, capsys):
        code, out, _ = run(capsys, "build", *FILMS, "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 10

    def test_csv_format(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", *FILMS, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alternative,criterion,left,right,height"
        assert lines[1] == "Film A,overall,1,1,1.0"
        # a whole coordinate loses ".0" only below 1e16; -0.0 prints 0
        path = write_rows(tmp_path / "wide.csv", "A,c,s,-0.0,2.5\nA,c,t,2.5,1e17\n")
        code, out, _ = run(capsys, "build", "--input", path, "--scale-min", "0",
                           "--scale-max", "1e300", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == [
            "A,c,0,2.5,0.5", "A,c,2.5,2.5,1.0", "A,c,2.5,1e+17,0.5"
        ]

    def test_negative_zero_bound_builds_the_number_of_zero(self, capsys, tmp_path):
        outputs, numbers = [], []
        for zero in ("-0.0", "0.0"):
            rows = f"A,c,s,{zero},2.5\nA,c,t,2.5,4\n"
            path = write_rows(tmp_path / "z.csv", rows)
            code, out, _ = run(capsys, "build", "--input", path, "--scale-min", "-1",
                               "--scale-max", "10", "--format", "json")
            assert code == 0
            outputs.append(out)
            numbers.append(construct_fuzzy(
                IntervalSet([(float(zero), 2.5), (2.5, 4)], "A"), ScaleConfig(-1, 10)
            ))
        assert outputs[0] == outputs[1]
        assert "-0" not in outputs[0]
        assert pickle.dumps(numbers[0]) == pickle.dumps(numbers[1])
        record = {"n": 1, "regions": [[-0.0, 1.0, 1.0]], "endpoints": [-0.0, 1.0]}
        fz = FuzzyNumber.from_dict(record, ScaleConfig(-1, 10))
        assert math.copysign(1.0, fz.endpoints[0]) == 1.0

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--input", "/no/such/file.csv",
                           "--scale-min", "1", "--scale-max", "10")
        assert code == 2
        assert "file" in err.lower() or "no such" in err.lower()

    def test_inverted_row_exits_3_naming_line(self, capsys, tmp_path):
        path = write_rows(tmp_path / "bad.csv", "A,c,s,1,2\nA,c,t,7,3\n")
        code, _, err = run(capsys, "build", "--input", path,
                           "--scale-min", "1", "--scale-max", "10")
        assert code == 3
        assert "line 3" in err

    def test_out_of_scale_exits_3(self, capsys, tmp_path):
        path = write_rows(tmp_path / "o.csv", "A,c,s,1,11\n")
        code, _, err = run(capsys, "build", "--input", path,
                           "--scale-min", "1", "--scale-max", "10")
        assert code == 3

    def test_boolean_json_bound_exits_2_naming_row(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        row = {"alternative": "A", "criterion": "c", "source": "s", "right": 2}
        path.write_text(json.dumps([{**row, "left": True}]), encoding="utf-8")
        code, _, err = run(capsys, "build", "--input", str(path),
                           "--scale-min", "1", "--scale-max", "10")
        assert code == 2
        assert f"{path} row 1" in err

    @pytest.mark.parametrize(
        "key, value",
        [("left", "1"), ("right", None), ("left", [1]),
         ("alternative", None), ("criterion", 1), ("source", [1, 2])],
        ids=["text bound", "null bound", "list bound", "null label",
             "number label", "list label"],
    )
    def test_json_value_of_the_wrong_type_exits_2_naming_row(
            self, capsys, tmp_path, key, value):
        # bounds must be JSON numbers and labels JSON strings
        path = tmp_path / "t.json"
        row = {"alternative": "A", "criterion": "c", "source": "s",
               "left": 1, "right": 2}
        path.write_text(json.dumps([row, {**row, "source": "t", key: value}]),
                        encoding="utf-8")
        code, out, err = run(capsys, "build", "--input", str(path),
                             "--scale-min", "1", "--scale-max", "10")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} row 2: ")

    def test_unparseable_row_exits_2(self, capsys, tmp_path):
        path = write_rows(tmp_path / "p.csv", "A,c,s,one,2\n")
        code, _, _ = run(capsys, "build", "--input", path,
                         "--scale-min", "1", "--scale-max", "10")
        assert code == 2

    def test_json_bound_beyond_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        row = {"alternative": "A", "criterion": "c", "source": "s", "left": 1}
        path.write_text(json.dumps([{**row, "right": 10**400}]), encoding="utf-8")
        code, out, err = run(capsys, "build", "--input", str(path),
                             "--scale-min", "1", "--scale-max", "10")
        assert (code, out) == (2, "")
        assert err == f"error: {path} line 1: bound beyond the float range\n"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_undecodable_file_exits_2_naming_it(self, capsys, tmp_path, suffix):
        path = tmp_path / f"latin1{suffix}"
        path.write_bytes(b"alternative,criterion,source,left,right\nCaf\xe9,c,s,1,2\n")
        code, out, err = run(capsys, "build", "--input", str(path),
                             "--scale-min", "1", "--scale-max", "10")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text (")

    def test_repeated_source_exits_2_naming_both_lines(self, capsys, tmp_path):
        path = write_rows(tmp_path / "r.csv", "A,c,s1,1,2\nA,c,s2,2,3\nA,c,s1,4,5\n")
        code, out, err = run(capsys, "build", "--input", path,
                             "--scale-min", "1", "--scale-max", "10")
        assert (code, out) == (2, "")
        assert "line 4: repeats source 's1' of line 2" in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_epsilon_ignored_outside_rank_and_topsis(self, capsys, value):
        code, out, _ = run(capsys, "build", *FILMS, "--epsilon", value)
        assert code == 0
        assert out == run(capsys, "build", *FILMS)[1]


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(1e16)
@example(1e300)
@example(9999999999999998.0)
def test_plain_coordinate_reads_back_no_longer_than_repr(x):
    text = cli.plain(x)
    assert float(text) == x
    assert len(text) <= len(repr(x))
    if abs(x) < 1e16:  # the whole-number rule of earlier releases
        assert text == (str(int(x)) if x == int(x) else repr(x))


class TestRank:
    def test_universal_matches_reference_ranks(self, capsys):
        code, out, _ = run(capsys, "rank", *FILMS, "--method", "universal")
        assert code == 0
        lines = out.splitlines()[1:]
        labels = [" ".join(line.split()[:2]) for line in lines]
        assert labels == ["Film J", "Film G", "Film F", "Film I", "Film D",
                          "Film H", "Film B", "Film E", "Film C", "Film A"]
        assert [line.split()[-1] for line in lines] == [str(i) for i in range(1, 11)]

    def test_ideal_ratio_prints_film_a_score(self, capsys):
        code, out, _ = run(capsys, "rank", *FILMS, "--method", "ideal-ratio",
                           "--measure", "combined")
        assert code == 0
        film_a = [line for line in out.splitlines() if line.startswith("Film A")][0]
        assert "0.2418" in film_a

    def test_jaccard_ratio_exits_4_naming_film_i(self, capsys):
        code, _, err = run(capsys, "rank", *FILMS, "--method", "ideal-ratio",
                           "--measure", "jaccard")
        assert code == 4
        assert "Film I" in err

    def test_baseline(self, capsys):
        code, out, _ = run(capsys, "rank", *FILMS, "--method", "baseline")
        assert code == 0
        assert out.splitlines()[1].startswith("Film J")
        assert "10.0000" in out.splitlines()[1]

    def test_baseline_ties_one_set_in_two_source_orders(self, capsys, tmp_path):
        # B holds A's intervals in reverse source order; summed in source
        # order, A scored 0.20000000000000004 and B 0.19999999999999998.
        path = write_rows(tmp_path / "b.csv",
                          "A,c,s1,0.1,0.1\nA,c,s2,0.2,0.2\nA,c,s3,0.3,0.3\n"
                          "B,c,s1,0.3,0.3\nB,c,s2,0.2,0.2\nB,c,s3,0.1,0.1\n")
        code, out, _ = run(capsys, "rank", "--input", path, "--scale-min", "0",
                           "--scale-max", "1", "--method", "baseline", "--format", "json")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [(e["label"], e["rank"]) for e in entries] == [("A", 1), ("B", 1)]
        assert entries[0]["score"] == entries[1]["score"]
        assert json.loads(out)["ties"] == [["A", "B"]]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "rank", *FILMS, "--method", "universal",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["method"] == "universal"
        assert payload["entries"][0]["label"] == "Film J"

    def test_ideal_from_file(self, capsys, tmp_path):
        rows = (
            "best,c,s1,9,9\nbest,c,s2,9,9\n"
            "worst,c,s1,2,2\nworst,c,s2,2,2\n"
        )
        path = write_rows(tmp_path / "ideals.csv", rows)
        code, out, _ = run(capsys, "rank", *FILMS, "--method", "ideal-ratio",
                           "--ideal", path)
        assert code == 0

    def test_ideal_file_of_the_scale_extremes_ranks_as_auto(self, capsys, tmp_path):
        # the file's ideals take its alternatives' labels, which no output prints
        rows = "".join(f"best,c,s{i},10,10\nworst,c,s{i},1,1\n" for i in range(5))
        path = write_rows(tmp_path / "ideals.csv", rows)
        code, from_file, _ = run(capsys, "rank", *FILMS, "--method", "ideal-ratio",
                                 "--format", "json", "--ideal", path)
        assert code == 0
        code, auto, _ = run(capsys, "rank", *FILMS, "--method", "ideal-ratio",
                            "--format", "json")
        assert code == 0
        assert from_file == auto

    def test_bad_ideal_file_exits_3(self, capsys, tmp_path):
        path = write_rows(tmp_path / "ideals.csv", "top,c,s1,9,9\n")
        code, _, _ = run(capsys, "rank", *FILMS, "--method", "ideal-ratio",
                         "--ideal", path)
        assert code == 3

    def test_ragged_ideal_file_warns_in_one_line_and_exits_3(self, capsys, tmp_path):
        # read as --input is: under "error" too, the warning is one line
        path = write_rows(tmp_path / "ideals.csv", "best,c,s1,9,9\nbest,c,s2,9,9\n"
                          "best,d,s1,9,9\nworst,c,s1,2,2\nworst,d,s1,2,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "rank", *FILMS, "--method", "ideal-ratio",
                                 "--ideal", path)
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            f"warning: {path}: alternative 'best' has differing source counts "
            "across criteria: {'c': 2, 'd': 1}",
            "error: ideal file must hold exactly the alternatives 'best' and 'worst' "
            "on a single criterion",
        ]

    def test_multi_criteria_requires_criterion_flag(self, capsys, tmp_path):
        rows = "A,c1,s,1,2\nA,c2,s,2,3\n"
        path = write_rows(tmp_path / "mc.csv", rows)
        code, _, err = run(capsys, "rank", "--input", path,
                           "--scale-min", "1", "--scale-max", "10")
        assert code == 3
        assert "criterion" in err

    def test_negative_epsilon_exits_3(self, capsys):
        code, _, _ = run(capsys, "rank", *FILMS, "--epsilon", "-1")
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_exits_3(self, capsys, value):
        code, out, err = run(capsys, "rank", *FILMS, "--epsilon", value)
        assert (code, out) == (3, "")
        assert "--epsilon must be finite" in err


class TestSimilarity:
    def test_pair_text_output(self, capsys):
        code, out, _ = run(capsys, "similarity", *FILMS, "Film A", "Film J",
                           "--measure", "jaccard")
        assert code == 0
        assert out == "0.0000\n"

    def test_pair_json(self, capsys):
        code, out, _ = run(capsys, "similarity", *FILMS, "Film I", "Film I",
                           "--measure", "combined", "--format", "json")
        payload = json.loads(out)
        assert payload["similarity"] == 1.0

    def test_matrix(self, capsys):
        code, out, _ = run(capsys, "similarity", *FILMS, "--matrix",
                           "--measure", "combined")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11
        assert "1.0000" in lines[1]

    def test_matrix_text_columns_fit_long_labels(self, capsys, tmp_path):
        path = write_rows(tmp_path / "long.csv",
                          "LongAlternativeName,c,s,1,2\nB,c,s,2,3\n")
        code, out, _ = run(capsys, "similarity", "--input", path, "--matrix",
                           "--scale-min", "1", "--scale-max", "10")
        assert code == 0
        header, *rows = out.splitlines()
        # each value ends where its column's label ends
        ends = [match.end() for match in re.finditer(r"\S+", header)]
        assert len(ends) == 2 and len(rows) == 2
        for row in rows:
            assert [match.end() for match in re.finditer(r"\S+", row)][1:] == ends

    def test_pair_builds_only_its_two_numbers(self, capsys, monkeypatch):
        # Counted through a wrapper on cli.construct_fuzzy, the global the
        # benchmark's tracer wraps; films has 10 alternatives.
        expected = run(capsys, "similarity", *FILMS, "Film A", "Film B")
        built = []

        def counting(interval_set, scale):
            built.append(interval_set)
            return construct_fuzzy(interval_set, scale)

        monkeypatch.setattr(cli, "construct_fuzzy", counting)
        assert run(capsys, "similarity", *FILMS, "Film A", "Film B") == expected
        assert [cell.label for cell in built] == ["Film A", "Film B"]

    def test_unknown_label_exits_3(self, capsys):
        code, _, _ = run(capsys, "similarity", *FILMS, "Film A", "Film Z")
        assert code == 3

    def test_missing_labels_exits_3(self, capsys):
        code, _, _ = run(capsys, "similarity", *FILMS, "Film A")
        assert code == 3

    @pytest.mark.parametrize("labels", [["Film B"], ["Film A", "Film B"]])
    def test_matrix_with_labels_exits_3(self, capsys, labels):
        code, out, err = run(capsys, "similarity", *FILMS, "--matrix", *labels)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "--matrix" in err


class TestAttributesCommand:
    def test_records(self, capsys):
        code, out, _ = run(capsys, "attributes", *FILMS)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        by_label = {r["alternative"]: r for r in records}
        assert by_label["Film B"]["centroid_x"] == pytest.approx(5.9375)
        assert by_label["Film A"]["perimeter"] == pytest.approx(2.0)
        assert by_label["Film H"]["quartiles"][0] == 1.0


class TestTopsisCommand:
    def test_synthetic_fixture(self, capsys):
        code, out, _ = run(capsys, "topsis", *SYNTH, "--measure", "combined")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "criterion c1: PIS=X NIS=Z"
        top_row = [line for line in lines if line.startswith("X")][0]
        assert "1.0000" in top_row

    def test_weights_and_directions(self, capsys):
        code, out, _ = run(capsys, "topsis", *SYNTH, "--weights", "2,1",
                           "--directions", "b,c")
        assert code == 0
        assert "PIS=Z" in out

    def test_exclude_criterion(self, capsys):
        code, out, _ = run(capsys, "topsis", *SYNTH, "--exclude-criterion", "c2")
        assert code == 0
        assert "c2" not in out

    def test_unknown_excluded_criterion_exits_3_naming_the_criteria(self, capsys):
        code, out, err = run(capsys, "topsis", *SYNTH, "--exclude-criterion", "nope")
        assert (code, out) == (3, "")
        assert err == (
            "error: --exclude-criterion: criterion 'nope' not in dataset (have: c1, c2)\n"
        )

    def test_bad_weights_exit_3(self, capsys):
        code, _, _ = run(capsys, "topsis", *SYNTH, "--weights", "0,0")
        assert code == 3

    def test_missing_cell_exits_2_naming_the_file(self, capsys, tmp_path):
        path = write_rows(tmp_path / "m.csv", "A,c,s1,1,2\nA,d,s1,1,2\nB,c,s1,3,4\n")
        code, out, err = run(capsys, "topsis", "--input", path,
                             "--scale-min", "0", "--scale-max", "10")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: missing cell for alternative 'B', criterion 'd'\n"

    def test_negative_weight_given_with_equals_sign_exits_3(self, capsys):
        # "--weights -1,1" is read by argparse as an unknown option (exit 2)
        code, out, err = run(capsys, "topsis", *SYNTH, "--weights=-1,1")
        assert (code, out) == (3, "")
        assert "non-negative" in err

    @pytest.mark.parametrize("value,message", [("-1", "non-negative"), ("inf", "finite")])
    def test_bad_epsilon_exits_3(self, capsys, value, message):
        code, out, err = run(capsys, "topsis", *SYNTH, "--epsilon", value)
        assert (code, out, err) == (3, "", f"error: --epsilon must be {message}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("weights", ["nan,1", "inf,1"])
    def test_non_finite_weights_exit_3(self, capsys, weights, fmt):
        code, out, err = run(capsys, "topsis", *SYNTH, "--weights", weights,
                             "--format", fmt)
        assert (code, out) == (3, "")
        assert "finite" in err

    def test_unknown_tie_break_criterion_exits_3(self, capsys):
        code, out, err = run(capsys, "topsis", *SYNTH,
                             "--tie-break-criterion", "nope")
        assert (code, out) == (3, "")
        assert "'nope'" in err

    def test_bad_direction_exit_3(self, capsys):
        code, _, _ = run(capsys, "topsis", *SYNTH, "--directions", "b,sideways")
        assert code == 3

    @pytest.mark.parametrize("flags,message", [
        (["--exclude-criterion", "c1", "--weights", "1,1"],
         "--weights: 2 values for 1 criterion (c2)"),
        (["--exclude-criterion", "c2", "--directions", "b,c"],
         "--directions: 2 values for 1 criterion (c1)"),
        (["--weights", "1"], "--weights: 1 value for 2 criteria (c1, c2)"),
        (["--weights", "1,1", "--directions", "b,b,c"],
         "--directions: 3 values for 2 criteria (c1, c2)"),
    ], ids=["weights after exclusion", "directions after exclusion", "one weight",
            "three directions"])
    def test_wrong_count_names_the_flag_and_the_ranked_criteria(self, capsys, flags,
                                                                message):
        code, out, err = run(capsys, "topsis", *SYNTH, *flags)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_unknown_direction_is_reported_before_a_wrong_weight_count(self, capsys):
        code, out, err = run(capsys, "topsis", *SYNTH, "--weights", "1",
                             "--directions", "b,x")
        assert (code, out, err) == (3, "", "error: --directions: unknown direction 'x'\n")

    def test_one_value_per_criterion_left_after_exclusion(self, capsys):
        code, out, _ = run(capsys, "topsis", *SYNTH, "--exclude-criterion", "c1",
                           "--weights", "1", "--directions", "c")
        assert code == 0
        assert "criterion c2: PIS=Z NIS=X" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "topsis", *SYNTH, "--format", "json")
        payload = json.loads(out)
        assert payload["entries"][0]["label"] == "X"
        assert payload["entries"][0]["closeness"] == 1.0

    @pytest.mark.parametrize("c3_first", [False, True], ids=["c1 first", "c3 first"])
    def test_same_cells_in_another_criterion_order_tie(self, capsys, tmp_path, c3_first):
        # A holds P, Q, R in c1, c2, c3 and B holds Q, R, P, so equal weights
        # tie them. Added left to right in criterion order, B's D+ ended in
        # ...0935 and A's in ...0936, ranking B 2 and A 3 with c1 first.
        p = ((5.763, 6.675), (3.199, 4.412), (4.172, 4.842))
        q = ((6.561, 7.989), (2.709, 3.9), (4.676, 6.439))
        r = ((6.106, 6.753), (7.861, 8.185), (3.927, 5.466))
        spikes = {"Zbest": ((9.5, 9.5),) * 3, "Wworst": ((0.5, 0.5),) * 3}
        criteria = ("c3", "c1", "c2") if c3_first else ("c1", "c2", "c3")
        rows = "".join(
            f"{alternative},{criterion},s{k},{left},{right}\n"
            for criterion in criteria
            for alternative, cells in (("A", (p, q, r)), ("B", (q, r, p)))
            for k, (left, right) in enumerate(cells[int(criterion[1]) - 1], 1)
        ) + "".join(
            f"{alternative},{criterion},s{k},{left},{right}\n"
            for criterion in criteria
            for alternative, cell in spikes.items()
            for k, (left, right) in enumerate(cell, 1)
        )
        path = write_rows(tmp_path / "orders.csv", rows)
        code, out, _ = run(capsys, "topsis", "--input", path, "--scale-min", "0",
                           "--scale-max", "10", "--measure", "combined", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        entries = {e["label"]: e for e in payload["entries"]}
        a, b = entries["A"], entries["B"]
        assert a["rank"] == b["rank"] == 2
        assert (a["d_plus"], a["d_minus"]) == (b["d_plus"], b["d_minus"])
        assert a["closeness"] == b["closeness"]
        assert payload["ties"] == [["A", "B"]]

    def test_ragged_dataset_warns_in_one_stderr_line_under_any_filter(
            self, capsys, tmp_path):
        # A differing source count across one alternative's criteria is a
        # RaggedCellWarning in the library; the CLI writes it as one line, not
        # in Python's warning format, and "error" does not end the job.
        path = write_rows(tmp_path / "ragged.csv",
                          "A,c,s1,1,2\nA,c,s2,1,3\nA,d,s1,1,2\nB,c,s1,3,4\nB,d,s1,3,4\n")
        argv = ["topsis", "--input", path, "--scale-min", "0", "--scale-max", "10"]
        line = (f"warning: {path}: alternative 'A' has differing source counts "
                "across criteria: {'c': 2, 'd': 1}\n")
        outputs = set()
        for action in ("error", "ignore", "default"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                code, out, err = run(capsys, *argv)
            assert (code, err) == (0, line), action
            outputs.add(out)
        assert len(outputs) == 1 and "rank" in outputs.pop()


class TestPlotdata:
    def test_film_a_spike_triplet(self, capsys):
        code, out, _ = run(capsys, "plotdata", *FILMS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alternative,criterion,x,mu"
        assert lines[1:4] == [
            "Film A,overall,1,0",
            "Film A,overall,1,1",
            "Film A,overall,1,0",
        ]

    def test_rectangle_outline(self, capsys, tmp_path):
        path = write_rows(tmp_path / "r.csv", "R,c,s,0,2\n")
        code, out, _ = run(capsys, "plotdata", "--input", path,
                           "--scale-min", "0", "--scale-max", "10")
        assert code == 0
        assert out.splitlines()[1:] == [
            "R,c,0,0",
            "R,c,0,1",
            "R,c,2,1",
            "R,c,2,0",
        ]

    def test_film_h_profile_head(self, capsys):
        code, out, _ = run(capsys, "plotdata", *FILMS)
        rows = [line for line in out.splitlines() if line.startswith("Film H")]
        assert rows[:4] == [
            "Film H,overall,1,0",
            "Film H,overall,1,0.2",
            "Film H,overall,1.5,0.2",
            "Film H,overall,1.5,0.4",
        ]


class TestDeterminismAndOutput:
    SUBCOMMANDS = [
        ("build", FILMS),
        ("attributes", FILMS),
        ("similarity", FILMS + ["--matrix"]),
        ("rank", FILMS + ["--method", "ideal-ratio"]),
        ("topsis", SYNTH),
        ("plotdata", FILMS),
    ]

    @pytest.mark.parametrize("command,args", SUBCOMMANDS)
    def test_byte_identical_runs(self, tmp_path, command, args):
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        assert main([command, *args, "--output", str(first)]) == 0
        assert main([command, *args, "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_output_file_written(self, tmp_path):
        target = tmp_path / "ranks.json"
        code = main(["rank", *FILMS, "--format", "json", "--output", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["entries"][0]["label"] == "Film J"

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_output_exits_2_naming_the_path(self, capsys, tmp_path, target):
        path = tmp_path / target  # a file in a missing directory, or a directory
        code, out, err = run(capsys, "build", *FILMS, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,expected,named", [
        (["topsis", *SYNTH, "--weights="], 3, "--weights"),
        (["topsis", *SYNTH, "--directions="], 3, "--directions"),
        (["topsis", *SYNTH, "--weights", "1,x"], 3,
         "--weights: could not convert string to float: 'x'"),
        (["topsis", *SYNTH, "--directions", "b,x"], 3,
         "--directions: unknown direction 'x'"),
        (["topsis", *SYNTH, "--exclude-criterion="], 3,
         "--exclude-criterion: criterion '' not in dataset (have: c1, c2)"),
        (["build", *FILMS, "--output="], 2, "--output"),
        (["build", "--input=", *FILMS[2:]], 2, "--input"),
        (["rank", *FILMS, "--method", "ideal-ratio", "--ideal="], 2, "--ideal"),
        (["topsis", *SYNTH, "--exclude-criterion", "nope"], 3,
         "--exclude-criterion: criterion 'nope' not in dataset (have: c1, c2)"),
        (["topsis", *SYNTH, "--tie-break-criterion", "nope"], 3,
         "--tie-break-criterion: criterion 'nope' not in dataset (have: c1, c2)"),
        (["topsis", *SYNTH, "--tie-break-criterion", "c1", "--exclude-criterion", "c1"],
         3, "--tie-break-criterion: criterion 'c1' was removed by --exclude-criterion"),
        (["rank", *SYNTH, "--criterion", "nope"], 3,
         "--criterion: criterion 'nope' not in dataset (have: c1, c2)"),
        (["build", "--input", "films", "--scale-min", "1", "--scale-max", "inf"], 3,
         "error: scale bounds must be finite"),
        (["build", "--input", "films", "--scale-min", "nan", "--scale-max", "10"], 3,
         "error: scale bounds must be finite"),
        (["topsis", *FILMS, "--exclude-criterion", "overall"], 3,
         "error: excluding the only criterion leaves no data"),
    ])
    def test_empty_flag_value_is_an_error(self, capsys, argv, expected, named):
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert out == ""
        assert err.startswith("error: ") and named in err

    def test_text_mode_scores_use_four_decimals(self, capsys):
        code, out, _ = run(capsys, "rank", *FILMS, "--method", "ideal-ratio")
        for line in out.splitlines()[1:]:
            score = line.split()[2]
            assert len(score.split(".")[1]) == 4

    @pytest.mark.parametrize("argv", [
        ["rank", *SYNTH, "--criterion", "c2", "--method", "universal"],
        ["rank", *SYNTH, "--criterion", "c2", "--method", "baseline"],
        ["rank", *SYNTH, "--criterion", "c2", "--method", "ideal-ratio"],
        ["topsis", *SYNTH],
        ["rank", *FILMS, "--method", "universal"],
    ], ids=["universal", "baseline", "ideal-ratio", "topsis", "films-universal"])
    def test_text_table_columns_end_under_their_headers(self, capsys, argv):
        # the labels X, Y, Z are shorter than the header "label"; the films'
        # labels ("Film A") are longer
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("label"))
        header, *rows = lines[start:]
        ends = [match.end() for match in re.finditer(r"\S+", header)]
        assert len(rows) == (10 if "films" in argv else 3)
        for row in rows:
            # the value columns are the row's last len(ends) - 1 words
            words = [match.end() for match in re.finditer(r"\S+", row)]
            assert words[1 - len(ends):] == ends[1:]


class TestCsvRoundTrip:
    ALTERNATIVES = ("Acme, Inc.", 'The "Best" One', "Line\nBreak", "Bare\rReturn")
    CRITERIA = ("price, net", 'say "hi"')
    ALTS, CRITS = set(ALTERNATIVES), set(CRITERIA)
    # argv after the subcommand, and the label set expected in each label column
    CASES = {
        "build": ((), {0: ALTS, 1: CRITS}),
        "attributes": ((), {0: ALTS, 1: CRITS}),
        "similarity-matrix": (("--matrix", "--criterion", CRITERIA[0]), {0: ALTS}),
        "similarity-pair": (
            (*ALTERNATIVES[:2], "--criterion", CRITERIA[0]),
            {0: {ALTERNATIVES[0]}, 1: {ALTERNATIVES[1]}},
        ),
        "rank": (("--method", "ideal-ratio", "--criterion", CRITERIA[1]), {0: ALTS}),
        "topsis": ((), {0: ALTS}),
        "plotdata": ((), {0: ALTS, 1: CRITS}),
    }

    @pytest.fixture
    def dataset(self, tmp_path):
        buffer = io.StringIO()
        # QUOTE_ALL: with "\n" row ends, Python 3.11 leaves a bare "\r" unquoted
        writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(("alternative", "criterion", "source", "left", "right"))
        for a, alternative in enumerate(self.ALTERNATIVES):
            for c, criterion in enumerate(self.CRITERIA):
                writer.writerow((alternative, criterion, "s1", 1 + a, 3 + a + c))
                writer.writerow((alternative, criterion, "s2", 2 + a, 2 + a + c))
        path = tmp_path / "labels.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("case", CASES)
    def test_labels_survive_csv_reader(self, capsys, dataset, case):
        args, label_columns = self.CASES[case]
        command = case.split("-")[0]
        code, out, err = run(capsys, command, *args, "--input", dataset,
                             "--scale-min", "0", "--scale-max", "10", "--format", "csv")
        assert code == 0, err
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert rows and all(len(row) == len(header) for row in rows)
        for column, expected in label_columns.items():
            assert {row[column] for row in rows} == expected
        if case == "similarity-matrix":
            assert header[1:] == list(self.ALTERNATIVES)


class TestCsvMatchesJson:
    """Every CSV cell equals the value the JSON run gives for it."""

    CASES = {
        "build": ("build", *FILMS),
        "attributes": ("attributes", *FILMS),
        "similarity-pair": ("similarity", *FILMS, "Film A", "Film B"),
        "similarity-matrix": ("similarity", *FILMS, "--matrix"),
        "rank-universal": ("rank", *FILMS, "--method", "universal"),
        "rank-ideal-ratio": ("rank", *FILMS, "--method", "ideal-ratio"),
        "rank-baseline": ("rank", *FILMS, "--method", "baseline"),
        "topsis": ("topsis", *SYNTH),
    }

    @staticmethod
    def json_rows(case, payload) -> list[dict]:
        """The JSON payload as one {CSV column: value} dict per CSV row."""
        if case == "build":
            return [
                {"alternative": r["alternative"], "criterion": r["criterion"],
                 **dict(zip(("left", "right", "height"), region))}
                for r in payload for region in r["regions"]
            ]
        if case == "attributes":
            return [
                {**{k: v for k, v in r.items() if k != "quartiles"},
                 **{f"q{i}": q for i, q in enumerate(r["quartiles"], 1)}}
                for r in payload
            ]
        if case == "similarity-pair":
            return [payload]
        if case == "similarity-matrix":
            return [
                {"label": label, **dict(zip(payload["labels"], row))}
                for label, row in zip(payload["labels"], payload["matrix"])
            ]
        return payload["entries"]

    @staticmethod
    def agrees(cell: str, value) -> bool:
        if value is None:
            return cell == ""
        if isinstance(value, bool):
            return cell == ("true" if value else "false")
        if isinstance(value, str):
            return cell == value
        return float(cell) == value

    @pytest.mark.parametrize("case", CASES)
    def test_every_cell(self, capsys, case):
        argv = self.CASES[case]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, err
        expected = self.json_rows(case, json.loads(out))
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert len(rows) == len(expected)
        if argv[0] in ("rank", "topsis"):
            assert header == list(expected[0])
        for row, want in zip(rows, expected):
            assert len(row) == len(header) == len(want)
            got = dict(zip(header, row))
            for name, value in want.items():
                assert self.agrees(got[name], value), (name, got[name], value)
