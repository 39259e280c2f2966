"""Value semantics of the fourteen public record classes.

Each record compares equal to one with equal fields and to no instance of
another class, hashes as its field tuple, prints as Name(field=value, ...),
refuses assignment and deletion, and survives pickle, copy and weak
references."""

import copy
import pickle
import weakref

import pytest

from iaarank import (
    AttributeVector,
    CriterionIdeals,
    DecisionMatrix,
    FuzzyNumber,
    Interval,
    IntervalSet,
    MultiCriteriaDataset,
    RankingEntry,
    RankingResult,
    Region,
    ScaleConfig,
    SimilarityWeights,
    TopsisEntry,
    TopsisResult,
    attribute_vector,
    construct_fuzzy,
)
from iaarank._record import Record


def _set(label="a"):
    return IntervalSet((Interval(1, 3), Interval(2, 4)), label)


def _number(label="a"):
    return construct_fuzzy(_set(label), ScaleConfig(0, 10))


def _dataset():
    return MultiCriteriaDataset(("a",), ("c",), {("a", "c"): _set()}, ScaleConfig(0, 10))


def _ideals():
    return CriterionIdeals("c", _number("a"), _number("b"), False)


# class -> (field names in order, a factory that builds a new equal instance)
RECORDS = {
    Interval: (("left", "right"), lambda: Interval(1, 2)),
    ScaleConfig: (("scale_min", "scale_max"), lambda: ScaleConfig(0, 10)),
    IntervalSet: (("lefts", "rights", "label"), _set),
    MultiCriteriaDataset: (("alternatives", "criteria", "cells", "scale"), _dataset),
    Region: (("left", "right", "height"), lambda: Region(1, 2, 0.5)),
    FuzzyNumber: (("profile", "n", "scale", "label"), _number),
    AttributeVector: (
        ("quartiles", "centroid_x", "centroid_y", "area", "height", "perimeter",
         "agreement_ratio"),
        lambda: attribute_vector(_number()),
    ),
    SimilarityWeights: (("values",), SimilarityWeights),
    RankingEntry: (("label", "score", "rank"), lambda: RankingEntry("a", 0.5, 1)),
    RankingResult: (
        ("method", "entries", "ties"),
        lambda: RankingResult("universal", (RankingEntry("a", None, 1),)),
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
                             (_ideals(),)),
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


def test_other_class_same_floats():
    assert Interval(0, 10) != ScaleConfig(0, 10)
    assert Region(1, 2, 1) != Interval(1, 2)


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
