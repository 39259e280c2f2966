"""The CLI's JSON writer against the stdlib: cli._json_text(v) must equal
json.dumps(v, indent=2) byte for byte, on any value json can encode."""

import collections
import enum
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iaarank.cli import _json_text


class Real(float):
    pass


class Name(str):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf]
# equal as dict keys, different as JSON
LOOKALIKES = [1, 1.0, True, 0, 0.0, -0.0, False]

texts = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "é", " ", "\x00", "\ud800", "\udfff\ud800", 'quote " and \\ slash', "\n"]
)
floats = st.floats() | st.sampled_from([*SPECIAL_FLOATS, 2.5, 1e-300, 1e300, 0.1])
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**1000), max_value=10**1000),
    floats,
    texts,
    st.sampled_from(LOOKALIKES),
    st.builds(Real, floats),
    st.builds(Name, texts),
    st.sampled_from(list(Level)),
)
keys = st.one_of(texts, st.integers(), floats, st.booleans(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(texts, children, max_size=5).map(collections.OrderedDict),
        # lists of floats take the one-join path; repeats hit the float cache
        st.lists(st.sampled_from([2.5, 0.1, 0.0, -0.0, math.nan, 1e16, -3.0]), max_size=8),
        st.lists(floats, max_size=8),
    )


values = st.recursive(leaves, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(values)
@example([0.0, -0.0, 2.5, 2.5])
@example([*SPECIAL_FLOATS, *SPECIAL_FLOATS, 2.5, 2.5])
@example([1, 1.0, True, 1.0, 1, True])
@example({"a": [1.0, 2.0], "b": [1, 2], "c": [1.0, 1, True]})
@example({1: "int", 1.5: "float", True: "bool", None: "none", "s": "str"})
@example([[], (), {}, [[]], {"": {}}])
@example([10**999, -(10**999), Level.HIGH, Real(2.5), Name("x")])
def test_writer_equals_stdlib_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_zero_and_negative_zero_keep_their_sign():
    assert _json_text([0.0, -0.0, 2.5, 2.5]) == "[\n  0.0,\n  -0.0,\n  2.5,\n  2.5\n]"


@pytest.mark.parametrize("value", [{1, 2}, [object()], {"a": b"bytes"}, {(1, 2): 3}])
def test_unencodable_values_raise_the_stdlib_type_error(value):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as writer:
        _json_text(value)
    assert str(writer.value) == str(stdlib.value)
