"""The dataset loader against a naive grouping, and hostile dataset text."""

import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from iaarank import ScaleConfig, load_dataset
from iaarank.cli import main
from iaarank.errors import (
    EmptyDataset,
    InvertedBounds,
    MalformedRow,
    OutOfScale,
    RaggedCellWarning,
)

import oracle

WIDE = ScaleConfig(0, 10)
HEADER = ("alternative", "criterion", "source", "left", "right")

# Labels mix CSV metacharacters, surrounding whitespace and other text; NUL
# is left out because Python 3.10's csv module rejects it.
label_chars = st.one_of(
    st.sampled_from(' ,"\n\r\t'),
    st.characters(min_codepoint=1, max_codepoint=0x2FFF, blacklist_categories=("Cs",)),
)
labels = st.text(label_chars, max_size=6)
bounds = st.one_of(
    st.integers(0, 40).map(lambda k: k / 4),
    st.floats(0, 10, allow_nan=False, allow_infinity=False),
)
intervals = st.tuples(bounds, bounds).map(lambda ab: (min(ab), max(ab)))


@st.composite
def grids(draw, unique_sources=False, names=labels):
    """Rows of a full alternatives x criteria grid, in a drawn order.

    Unless unique_sources is set, a cell may name one source twice.
    """
    alternatives = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    criteria = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    rows = []
    for alternative in alternatives:
        for criterion in criteria:
            sources = draw(st.lists(names, min_size=1, max_size=4,
                                    unique=unique_sources))
            for source in sources:
                rows.append((alternative, criterion, source, *draw(intervals)))
    return draw(st.permutations(rows))


def csv_text(rows):
    # The default "\r\n" terminator makes the writer quote both "\r" and "\n".
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(HEADER)
    writer.writerows((a, c, s, repr(l), repr(r)) for a, c, s, l, r in rows)
    return buffer.getvalue()


def json_text(rows):
    return json.dumps([dict(zip(HEADER, row)) for row in rows])


def load_text(text, suffix):
    """load_dataset on text written to a fresh file, or the MalformedRow."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"data{suffix}"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RaggedCellWarning)
                return load_dataset(path, WIDE)
        except MalformedRow as exc:
            return exc


def assert_matches_oracle(loaded, rows):
    try:
        alternatives, criteria, cells = oracle.brute_load(rows)
    except ValueError:
        assert isinstance(loaded, MalformedRow) and "repeats source" in str(loaded)
        return
    assert not isinstance(loaded, Exception), loaded
    assert loaded.alternatives == tuple(alternatives)
    assert loaded.criteria == tuple(criteria)
    assert {
        key: list(zip(cell.lefts, cell.rights))
        for key, cell in loaded.cells.items()
    } == cells


def stripped(rows):
    return [(a.strip(), c.strip(), s.strip(), l, r) for a, c, s, l, r in rows]


class TestAgainstBruteLoad:
    @settings(max_examples=150, deadline=None)
    @given(grids())
    def test_csv_equals_brute_load(self, rows):
        # The CSV reader strips each field, so labels that differ only in
        # surrounding whitespace meet in one cell (and may repeat a source).
        assert_matches_oracle(load_text(csv_text(rows), ".csv"), stripped(rows))

    @settings(max_examples=150, deadline=None)
    @given(grids())
    def test_json_mirror_equals_brute_load(self, rows):
        assert_matches_oracle(load_text(json_text(rows), ".json"), rows)

    @settings(max_examples=100, deadline=None)
    @given(grids(unique_sources=True), st.randoms(use_true_random=False))
    def test_row_order_leaves_cells_unchanged(self, rows, rng):
        rows = stripped(rows)
        first = load_text(csv_text(rows), ".csv")
        assume(not isinstance(first, MalformedRow))  # a source repeated by stripping
        shuffled = list(rows)
        rng.shuffle(shuffled)
        again = load_text(csv_text(shuffled), ".csv")
        assert set(again.alternatives) == set(first.alternatives)
        assert again.cells == first.cells
        for key, cell in first.cells.items():
            members = sorted((s, (l, r)) for a, c, s, l, r in rows if (a, c) == key)
            assert list(zip(cell.lefts, cell.rights)) == [
                pair for _, pair in members
            ]


class TestHostileInput:
    def test_repeated_source_names_both_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            ",".join(HEADER) + "\nA,c,s1,1,2\nA,c,s2,2,3\nB,c,s1,3,4\nA,c,s1,4,5\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow) as excinfo:
            load_dataset(path, WIDE)
        assert excinfo.value.line == 5
        assert str(excinfo.value) == (
            f"{path} line 5: repeats source 's1' of line 2 "
            "for alternative 'A', criterion 'c'"
        )

    @pytest.mark.parametrize(
        "rows,line,message",
        [
            ('"Two\nLines",c,s,1,2\nB,c,s,one,2\n', 4, "non-numeric bound"),
            ('A,c,s,1,2\n"Two\nLines",c,s,1,2\nA,c,s,2,3\n', 5,
             "repeats source 's' of line 2"),
        ],
        ids=["bad bound", "repeated source"],
    )
    def test_csv_lines_count_inside_quoted_fields(self, tmp_path, rows, line, message):
        # the quoted label spans two physical lines
        path = tmp_path / "m.csv"
        path.write_text(",".join(HEADER) + "\n" + rows, encoding="utf-8")
        with pytest.raises(MalformedRow, match=message) as excinfo:
            load_dataset(path, WIDE)
        assert excinfo.value.line == line
        assert str(excinfo.value).startswith(f"{path} line {line}: ")

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_undecodable_file_names_the_file(self, tmp_path, suffix):
        path = tmp_path / f"latin1{suffix}"
        path.write_bytes(",".join(HEADER).encode() + b"\nCaf\xe9,c,s,1,2\n")
        with pytest.raises(MalformedRow, match="not UTF-8 text") as excinfo:
            load_dataset(path, WIDE)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_json_integer_beyond_float_range(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            '[{"alternative": "A", "criterion": "c", "source": "s", '
            '"left": 1, "right": 1' + "0" * 400 + "}]",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match="beyond the float range") as excinfo:
            load_dataset(path, WIDE)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,  # nesting deeper than the recursion limit
            '[{"left": 1' + "0" * 5000 + "}]",  # past the int-from-text digit limit
        ],
    )
    def test_json_parser_limits(self, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedRow, match="invalid JSON"):
            load_dataset(path, WIDE)

    def test_json_lone_surrogate_label(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            '[{"alternative": "\\ud800", "criterion": "c", "source": "s", '
            '"left": 1, "right": 2}]',
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow, match="row 1: labels must be valid Unicode"):
            load_dataset(path, WIDE)

    def test_csv_field_over_size_limit(self, tmp_path):
        path = tmp_path / "wide.csv"
        field = "x" * (csv.field_size_limit() + 1)
        path.write_text(",".join(HEADER) + f"\nA,c,s,1,2\nA,c,{field},1,2\n",
                        encoding="utf-8")
        with pytest.raises(MalformedRow, match="line 3: field larger") as excinfo:
            load_dataset(path, WIDE)
        assert excinfo.value.line == 3


BOM = "\ufeff"


class TestByteOrderMark:
    """A leading byte-order mark, as spreadsheet "CSV UTF-8" exports write
    it, belongs neither to the first header name nor to the JSON text."""

    @settings(max_examples=60, deadline=None)
    @given(grids(unique_sources=True))
    def test_loads_as_the_same_text_without_it(self, rows):
        for text, suffix in ((csv_text(rows), ".csv"), (json_text(rows), ".json")):
            plain = load_text(text, suffix)
            marked = load_text(BOM + text, suffix)
            if isinstance(plain, MalformedRow):  # labels that meet once stripped
                assert (type(marked), marked.line) == (MalformedRow, plain.line)
            else:
                assert marked == plain

    @pytest.mark.parametrize("suffix,text,message", [
        (".csv", ",".join(HEADER) + "\nA,c,s1,1,2\nA,c,s2,one,3\n",
         "line 3: non-numeric bound ('one', '3')"),
        (".json", json_text([("A", "c", "s1", 1, 2), ("A", "c", "s2", "one", 3)]),
         "row 2: bounds must be numbers, got ('one', 3)"),
    ], ids=["csv", "json"])
    def test_a_bad_row_after_it_keeps_its_line(self, tmp_path, suffix, text, message):
        path = tmp_path / f"marked{suffix}"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes()[:3] == b"\xef\xbb\xbf"
        with pytest.raises(MalformedRow) as excinfo:
            load_dataset(path, WIDE)
        assert str(excinfo.value) == f"{path} {message}"
        assert excinfo.value.line == int(message.split()[1].rstrip(":"))


# Bound texts on and off the scale [0, 10], non-finite, signed zero, beyond
# the float range, unparseable, and padded with whitespace or separators.
bound_texts = st.one_of(
    st.floats(-5, 15, allow_nan=False).map(repr),
    st.integers(-5, 15).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0", "-0.0",
                     "0", "10", "1e309", "-1e309", "1e-320", "one", "1_0", ""]),
)
# str.strip removes the separators \x1c-\x1f and float does not; both remove
# the em space.
pads = st.sampled_from(["", " ", "  ", "\t", "\x1c", "\x1f", "\u2003"])
padded_texts = st.builds(
    lambda before, text, after: before + text + after,
    pads, bound_texts, pads,
)
# Independent draws are often inverted; the second branch is ordered.
bound_pairs = st.one_of(
    st.tuples(padded_texts, padded_texts),
    st.tuples(st.floats(-1, 11), st.floats(-1, 11)).map(
        lambda ab: (repr(min(ab)), repr(max(ab)))
    ),
)


class TestRowGuard:
    @settings(max_examples=300, deadline=None)
    @given(bound_pairs)
    def test_row_loads_exactly_when_the_brute_predicate_holds(self, pair):
        left, right = pair
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "row.csv"
            path.write_text(",".join(HEADER) + f"\nA,c,s,{left},{right}\n",
                            encoding="utf-8")
            try:
                loaded = load_dataset(path, WIDE)
            except (MalformedRow, InvertedBounds, OutOfScale) as exc:
                loaded = exc
        if oracle.brute_row_ok(left, right, WIDE.scale_min, WIDE.scale_max):
            assert not isinstance(loaded, Exception), loaded
            cell = loaded.cell("A", "c")
            # repr tells -0.0 from 0.0
            assert [repr(cell.lefts), repr(cell.rights)] == [
                repr((float(left.strip()),)), repr((float(right.strip()),))
            ]
        else:
            assert isinstance(loaded, Exception), (left, right)
            kind, message = oracle.brute_row_error(
                f"{path} line 2", left.strip(), right.strip(),
                WIDE.scale_min, WIDE.scale_max,
            )
            assert type(loaded).__name__ == kind
            assert str(loaded) == message
            assert loaded.line == 2


class TestPaddedBounds:
    """The CSV reader strips the labels only; a bound keeps its padding until
    it fails the guard."""

    def test_padded_bounds_load_as_the_same_floats(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text(",".join(HEADER) + "\n A ,c,s1, 1.5 ,\t2\t\n"
                        "A, c ,s2,\x1c3\x1f, 4\u2003\n", encoding="utf-8")
        loaded = load_dataset(path, WIDE)
        cell = loaded.cell("A", "c")
        assert (cell.lefts, cell.rights) == ((1.5, 3.0), (2.0, 4.0))
        assert (loaded.alternatives, loaded.criteria) == (("A",), ("c",))

    @pytest.mark.parametrize("left,right,error,message", [
        (" one ", "\t2", MalformedRow, "non-numeric bound ('one', '2')"),
        (" ", " ", MalformedRow, "non-numeric bound ('', '')"),
        ("\x1c5 ", " 4", InvertedBounds, "left bound 5.0 exceeds right bound 4.0"),
        (" 1", "11\x1f", OutOfScale, "interval [1.0, 11.0] outside scale"),
    ])
    def test_padded_bad_bound_reports_the_stripped_text(self, tmp_path, left, right,
                                                        error, message):
        path = tmp_path / "padded.csv"
        path.write_text(",".join(HEADER) + f"\nA,c,s,{left},{right}\n", encoding="utf-8")
        with pytest.raises(error) as excinfo:
            load_dataset(path, WIDE)
        assert str(excinfo.value).startswith(f"{path} line 2: {message}")
        assert excinfo.value.line == 2

    def test_rows_of_blank_fields_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(" , , , , \n" + ",".join(HEADER) + "\n\t,,,,\nA,c,s,1,2\n , , , , \n",
                        encoding="utf-8")
        assert load_dataset(path, WIDE).cell("A", "c").lefts == (1.0,)
        path.write_text(",".join(HEADER) + "\n , , , , \n", encoding="utf-8")
        with pytest.raises(EmptyDataset):
            load_dataset(path, WIDE)


# Dataset text built from pieces that are valid, slightly wrong or hostile.
csv_cells = st.one_of(
    labels,
    st.sampled_from(["0", "1", "2.5", "10", "11", "-1", "nan", "inf", "1e400",
                     "one", "", " 3 ", "1_0", "0x1"]),
)
csv_records = st.lists(csv_cells, min_size=0, max_size=7)
csv_documents = st.builds(
    lambda header, records, newline: newline.join(
        [",".join(header)] + [",".join(record) for record in records]
    ),
    st.one_of(st.just(HEADER), csv_records),
    st.lists(st.one_of(csv_records, st.just(["A", "c", "s", "1", "2"])), max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400),
    st.floats(), labels,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(HEADER + ("extra",)), inner, max_size=6),
    ),
    max_leaves=20,
)
json_rows = st.fixed_dictionaries(
    {key: st.one_of(st.sampled_from(["A", "B", "c", "s1", "s2"]), json_values)
     for key in HEADER[:3]}
    | {key: st.one_of(bounds, json_scalars) for key in HEADER[3:]}
)
json_documents = st.one_of(
    # valid grids, some with a lone surrogate escape in a label
    grids(names=st.one_of(labels, st.just("\ud800"))).map(json_text),
    st.lists(st.one_of(json_rows, json_values), max_size=6).map(
        lambda payload: json.dumps(payload, allow_nan=True)
    ),
    json_values.map(json.dumps),
    st.text(max_size=40),
)
raw_bytes = st.binary(max_size=80)

COMMANDS = [
    ["build", "--format", "json"],
    ["attributes", "--format", "csv"],
    ["plotdata"],
    ["rank", "--format", "text"],
    ["similarity", "--matrix", "--format", "csv"],
    ["topsis", "--format", "json"],
]


def run_main(data: bytes, suffix: str, command):
    """Exit code of cli.main on a file holding data; exceptions propagate."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_bytes(data)
        argv = [*command, "--input", str(path), "--scale-min", "0", "--scale-max", "10"]
        # Output is encoded as the real stdout encodes it, so text the CLI
        # cannot write fails here too.
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore", RaggedCellWarning)
            return main(argv)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestFuzzThroughCli:
    @FUZZ
    @given(st.one_of(csv_documents.map(lambda t: t.encode("utf-8")),
                     grids().map(lambda rows: csv_text(rows).encode("utf-8")),
                     raw_bytes),
           st.sampled_from(COMMANDS))
    def test_csv_text_ends_in_a_documented_exit(self, data, command):
        assert run_main(data, ".csv", command) in (0, 2, 3)

    @FUZZ
    @given(st.one_of(json_documents.map(lambda t: t.encode("utf-8")), raw_bytes),
           st.sampled_from(COMMANDS))
    def test_json_text_ends_in_a_documented_exit(self, data, command):
        assert run_main(data, ".json", command) in (0, 2, 3)
