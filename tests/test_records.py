"""Value semantics of the eleven public record classes.

Each record compares equal to one with equal fields and to no instance of
another class, hashes as its field tuple, prints as Name(field=value, ...),
refuses assignment and deletion, and survives pickle, copy and weak
references. Only a class that checks or converts its arguments writes its own
__init__; the others take their fields by position through Record.__init__."""

import copy
import pickle
import weakref

import pytest

from iaarank import (
    AttributeVector,
    CriterionIdeals,
    DecisionMatrix,
    FuzzyNumber,
    IntervalSet,
    MultiCriteriaDataset,
    RankingEntry,
    RankingResult,
    ScaleConfig,
    TopsisEntry,
    TopsisResult,
    attribute_vector,
    construct_fuzzy,
)
from iaarank._record import Record


def _set(label="a"):
    return IntervalSet(((1, 3), (2, 4)), label)


def _number(label="a"):
    return construct_fuzzy(_set(label), ScaleConfig(0, 10))


def _dataset():
    return MultiCriteriaDataset(("a",), ("c",), {("a", "c"): _set()}, ScaleConfig(0, 10))


def _ideals():
    return CriterionIdeals("c", _number("a"), _number("b"), False)


# class -> (field names in order, a factory that builds a new equal instance)
RECORDS = {
    ScaleConfig: (("scale_min", "scale_max"), lambda: ScaleConfig(0, 10)),
    IntervalSet: (("lefts", "rights", "label"), _set),
    MultiCriteriaDataset: (("alternatives", "criteria", "cells", "scale"), _dataset),
    FuzzyNumber: (("profile", "n", "scale", "label"), _number),
    AttributeVector: (
        ("quartiles", "centroid_x", "centroid_y", "area", "height", "perimeter",
         "agreement_ratio"),
        lambda: attribute_vector(_number()),
    ),
    RankingEntry: (("label", "score", "rank"), lambda: RankingEntry("a", 0.5, 1)),
    RankingResult: (
        ("method", "entries", "ties"),
        lambda: RankingResult("universal", (RankingEntry("a", None, 1),), ()),
    ),
    DecisionMatrix: (
        ("alternatives", "criteria", "cells", "scale", "weights", "directions"),
        lambda: DecisionMatrix.from_dataset(_dataset()),
    ),
    CriterionIdeals: (
        ("criterion", "pis", "nis", "degenerate"), _ideals
    ),
    TopsisEntry: (
        ("label", "d_plus", "d_minus", "closeness", "rank", "degenerate"),
        lambda: TopsisEntry("a", 0.25, 0.75, 0.75, 1, False),
    ),
    TopsisResult: (
        ("measure", "entries", "ideals", "ties"),
        lambda: TopsisResult("combined", (TopsisEntry("a", 0.0, 0.0, 0.5, 1, True),),
                             (_ideals(),), ()),
    ),
}


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    names, build = RECORDS[request.param]
    return request.param, names, build


def test_equal_fields_are_equal(record):
    cls, names, build = record
    a, b = build(), build()
    assert type(a) is cls
    assert a is not b
    assert a == b
    assert not a != b


def test_a_record_equals_itself_without_building_its_field_tuple(record, monkeypatch):
    _, _, build = record
    x = build()

    def no_field_tuple(self):
        raise AssertionError("field tuple built")

    monkeypatch.setattr(Record, "_values", no_field_tuple)
    assert x == x
    assert not x != x


def test_hash_is_the_field_tuple_hash(record):
    _, names, build = record
    x = build()
    values = tuple(getattr(x, name) for name in names)
    try:
        expected = hash(values)
    except TypeError:  # a dict field: neither the tuple nor the record hashes
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


def test_another_class_with_the_same_values_differs(record):
    cls, names, build = record
    x = build()
    other = object.__new__(type("Other", (cls,), {}))
    vars(other).update(vars(x))
    assert other != x and x != other
    assert x != tuple(getattr(x, name) for name in names)


def test_a_topsis_result_is_a_ranking_result():
    # TopsisResult extends RankingResult: labels() reads its entries, and it
    # still never equals a RankingResult holding the same values.
    entries = (TopsisEntry("b", 0.25, 0.75, 0.75, 1, False),
               TopsisEntry("a", 0.75, 0.25, 0.25, 2, False))
    result = TopsisResult("combined", entries, (_ideals(),), ())
    assert isinstance(result, RankingResult)
    assert result.labels() == ("b", "a")
    ranking = RankingResult(result.measure, result.entries, result.ties)
    assert ranking.labels() == result.labels()
    assert result != ranking and ranking != result


def test_other_class_same_floats():
    # Both field tuples equal ((1.0,), (2.0,), "a"); the classes still tell
    # them apart.
    interval_set, entry = IntervalSet([(1, 2)], "a"), RankingEntry((1.0,), (2.0,), "a")
    assert interval_set._values() == entry._values()
    assert interval_set != entry and entry != interval_set


def test_repr_names_every_field(record):
    cls, names, build = record
    x = build()
    fields = ", ".join(f"{name}={getattr(x, name)!r}" for name in names)
    assert repr(x) == f"{cls.__name__}({fields})"


def test_assignment_and_deletion_raise(record):
    _, names, build = record
    x = build()
    before = getattr(x, names[0])
    with pytest.raises(AttributeError):
        setattr(x, names[0], None)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    assert getattr(x, names[0]) is before


def test_pickle_and_copy_round_trip(record):
    cls, _, build = record
    x = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(x, protocol))
        assert type(again) is cls and again == x
    for duplicate in (copy.copy(x), copy.deepcopy(x)):
        assert type(duplicate) is cls and duplicate is not x and duplicate == x


def test_weak_reference(record):
    _, _, build = record
    x = build()
    assert weakref.ref(x)() is x


CHECKING = {ScaleConfig, IntervalSet, MultiCriteriaDataset, FuzzyNumber, DecisionMatrix}


def test_only_checking_records_write_an_init():
    # A record class writes __init__ only to check or convert its arguments;
    # the others store their values through Record.__init__.
    assert {cls for cls in RECORDS if "__init__" in vars(cls)} == CHECKING


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if cls not in CHECKING], ids=lambda cls: cls.__name__
)
def test_a_storing_record_takes_its_fields_by_position(cls):
    x = RECORDS[cls][1]()
    values = x._values()
    assert cls(*values) == x
    for call in (
        lambda: cls(*values[:-1]),
        lambda: cls(*values, None),
        lambda: cls(**dict(zip(cls._fields, values))),
    ):
        with pytest.raises(TypeError, match=cls.__name__):
            call()
