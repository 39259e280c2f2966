"""Differential properties of the step profile against the brute-force oracle."""

import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iaarank import FuzzyNumber, ScaleConfig, construct_fuzzy
from iaarank.attributes import AttributeVector, attribute_vector, membership_polyline
from iaarank.errors import OutOfScale

import oracle
from conftest import make_set

WIDE = ScaleConfig(0, 10)

# Quarter-lattice bounds coincide often, so shared endpoints and spikes are
# common; continuous bounds give the generic case.
bounds = st.one_of(
    st.integers(0, 40).map(lambda k: k / 4),
    st.floats(0, 10, allow_nan=False, allow_infinity=False),
)
intervals = st.one_of(
    st.tuples(bounds, bounds).map(lambda ab: (min(ab), max(ab))),
    bounds.map(lambda v: (v, v)),
)
interval_lists = st.lists(intervals, min_size=1, max_size=200)

heights = st.integers(1, 8).map(lambda k: k / 8)
half_steps = st.integers(0, 20).map(lambda k: k / 2)
# (left, right, height) triples: segments may overlap, and lines on the same
# lattice often sit inside segments.
regions = st.one_of(
    st.builds(lambda a, b, h: (min(a, b), max(a, b), h), half_steps, half_steps, heights),
    st.builds(lambda x, h: (x, x, h), half_steps, heights),
)
region_lists = st.lists(regions, min_size=1, max_size=30)


def probe_points(xs):
    """Every breakpoint, every midpoint between neighbours, and points outside."""
    xs = sorted(xs)
    return [*xs, *((a + b) / 2 for a, b in zip(xs, xs[1:])), xs[0] - 1, xs[-1] + 1]


def build(pairs):
    return construct_fuzzy(make_set("p", pairs), WIDE)


@settings(max_examples=150, deadline=None)
@given(interval_lists)
@example([(0.0, 0.0), (5e-324, 5e-324)])  # adjacent doubles: two spikes, no segment
def test_regions_equal_oracle_bit_exactly(pairs):
    fz = build(pairs)
    assert fz.regions == tuple(oracle.brute_regions(pairs))
    assert all(type(region) is tuple and list(map(type, region)) == [float] * 3
               for region in fz.regions)
    assert fz.regions == tuple(map(tuple, fz.to_dict()["regions"]))


@settings(max_examples=150, deadline=None)
@given(interval_lists)
def test_membership_equals_direct_count(pairs):
    fz = build(pairs)
    for x in probe_points(fz.endpoints):
        assert fz.membership(x) == oracle.count_membership(pairs, x)


@settings(max_examples=150, deadline=None)
@given(interval_lists)
@example([(0.0, 0.0), (5e-324, 5e-324)])
def test_perimeter_equals_oracle_bit_exactly(pairs):
    fz = build(pairs)
    expected = oracle.brute_perimeter(oracle.brute_regions(pairs))
    assert attribute_vector(fz).perimeter == expected


@settings(max_examples=150, deadline=None)
@given(interval_lists)
@example([(0.0, 0.0), (5e-324, 5e-324)])
@example([(1.0, 2.0), (2.0, 3.0), (4.0, 4.0)])  # touching segments, lone spike
def test_agreement_equals_oracle_bit_exactly(pairs):
    fz = build(pairs)
    triples = oracle.brute_regions(pairs)
    assert attribute_vector(fz).agreement_ratio == oracle.brute_agreement(triples)


@settings(max_examples=300, deadline=None)
@given(region_lists)
@example([(0, 4, 0.5), (2, 2, 0.25)])
@example([(0, 1, 0.5), (1, 1, 1.0), (3, 3, 0.25)])
def test_agreement_of_canonical_lists_equals_oracle(regs):
    fz = oracle.fuzzy_from_regions(regs, WIDE)
    assert attribute_vector(fz).agreement_ratio == oracle.brute_agreement(fz.regions)


def from_pairs(pairs):
    return build(pairs), oracle.brute_regions(pairs)


def from_regions(regs):
    return oracle.fuzzy_from_regions(regs, WIDE), oracle.brute_canonical(regs)[1]


@settings(max_examples=300, deadline=None)
@given(st.one_of(interval_lists.map(from_pairs), region_lists.map(from_regions)))
@example(from_pairs([(2.0, 2.0), (2.0, 2.0), (7.0, 7.0)]))  # all spikes
@example(from_pairs([(0.0, 2.0), (2.0, 4.0), (4.0, 10.0)]))  # two quartiles in [4, 10]
@example(from_pairs([(0.0, 0.0), (5e-324, 5e-324)]))  # adjacent-double spikes
@example(from_pairs([(1.0, 1.0 + 2 ** -52)]))  # an area of 2**-52: continuous quartiles
@example(from_pairs([(0.0, 0.0), (5e-324, 1.5e-323)]))  # its quarter area is 0.0: discrete
@example(from_pairs([(0.0, 1.0), (3.0, 6.0)]))  # a quarter of the area ends at 1, before a gap
@example(from_pairs([(0.0, 4.0), (0.0, 1.0)]))  # two quartiles in [1, 4]
@example(from_pairs([(0.0, 1.0), (0.0, 1.0), (0.0, 6.0)]))  # the first quartile in [0, 1]
def test_attribute_vector_equals_oracle_bit_exactly(case):
    fz, triples = case
    assert repr(attribute_vector(fz)) == repr(
        AttributeVector(*oracle.brute_attributes(triples))
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 15), st.floats(-5, 15)).map(sorted),
                min_size=1, max_size=20))
@example([(0.0, 10.0), (-1.0, 3.0), (4.0, 11.0)])
@example([(0.0, 5.0), (2.0, 11.0)])  # off on the right, behind an on-scale right
def test_off_scale_interval_raises_the_first_offender(pairs):
    outside = [(l, r) for l, r in pairs if not (0 <= l and r <= 10)]
    assume(outside)
    left, right = outside[0]
    with pytest.raises(OutOfScale) as excinfo:
        construct_fuzzy(make_set("p", pairs), WIDE)
    assert str(excinfo.value) == (
        f"interval [{left}, {right}] of 'p' outside scale [0.0, 10.0]"
    )


@settings(max_examples=300, deadline=None)
@given(region_lists)
@example([(0, 4, 0.5), (2, 2, 0.25)])
@example([(0, 4, 0.5), (2, 2, 0.75), (1, 3, 0.625)])
def test_region_builder_idempotent_and_preserves_membership(regs):
    fz = oracle.fuzzy_from_regions(regs, WIDE)
    canonical = list(fz.regions)
    assert canonical == oracle.brute_canonical(regs)[1]
    assert list(oracle.fuzzy_from_regions(canonical, WIDE).regions) == canonical
    for x in probe_points({b for l, r, _ in regs for b in (l, r)}):
        direct = max((h for l, r, h in regs if l <= x <= r), default=0.0)
        assert fz.membership(x) == direct


@settings(max_examples=300, deadline=None)
@given(region_lists)
@example([(0, 4, 0.5), (2, 2, 0.75)])
@example([(0, 1, 0.5), (1, 1, 0.5), (1, 2, 0.5)])
def test_regions_and_their_canonical_form_give_one_number(regs):
    given_as = oracle.fuzzy_from_regions(regs, WIDE)
    canonical = oracle.fuzzy_from_regions(given_as.regions, WIDE)
    assert given_as.profile == canonical.profile
    _, points, segments = given_as.profile
    flat = [left == point == right
            for left, point, right in zip(segments, points, segments[1:])]
    assert not any(flat)
    assert given_as == canonical and hash(given_as) == hash(canonical)
    assert attribute_vector(given_as) == attribute_vector(canonical)
    assert given_as.regions == canonical.regions
    assert list(canonical.regions) == oracle.brute_canonical(regs)[1]


@settings(max_examples=300, deadline=None)
@given(region_lists)
@example([(0, 4, 0.5), (2, 2, 0.75)])  # a spike inside a segment
@example([(0, 1, 0.5), (1, 2, 0.5)])  # touching equal segments
@example([(0, 1, 0.5), (1, 1, 0.25), (1, 2, 0.75)])  # a spike below a segment
def test_from_dict_takes_only_canonical_records(regs):
    """A region list, as given, with its bounds as endpoints: from_dict reads
    it back exactly when it is canonical, and refuses it otherwise."""
    record = {"n": 1, "regions": [list(t) for t in regs],
              "endpoints": sorted({b for l, r, _ in regs for b in (l, r)})}
    canonical = oracle.brute_canonical(regs)
    if (record["endpoints"], regs) == canonical:
        assert FuzzyNumber.from_dict(record, WIDE).to_dict() == {"label": "", **record}
    else:
        with pytest.raises(ValueError):
            FuzzyNumber.from_dict(record, WIDE)


# Any JSON value, and near misses of a record: small counts, region lists
# and the sorted bounds of a region list as endpoints.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
region_records = region_lists.map(lambda regs: [list(t) for t in regs])
endpoint_lists = region_lists.map(
    lambda regs: sorted({b for l, r, _ in regs for b in (l, r)})
)
records = st.fixed_dictionaries({}, optional={
    "label": json_values | st.just("p"),
    "n": json_values | st.integers(1, 3),
    "regions": json_values | region_records,
    "endpoints": json_values | endpoint_lists,
})


def canonical_record(regs):
    xs, canonical = oracle.brute_canonical(regs)
    return {"n": 1, "regions": [list(t) for t in canonical], "endpoints": xs}


# A canonical record with some of its keys overwritten, often none
changed_records = st.builds(lambda base, change: {**base, **change},
                            region_lists.map(canonical_record), records)


@settings(max_examples=500, deadline=None)
@given(records | json_values | changed_records)
@example({"n": 1, "regions": [[2, 3, 1.0]], "endpoints": [2]})  # positive last segment
@example({"n": 1, "regions": [[1, 2, 1.0]], "endpoints": [1, 10 ** 400]})
def test_from_dict_reads_its_own_records_and_refuses_the_rest_with_value_error(payload):
    try:
        fz = FuzzyNumber.from_dict(payload, WIDE)
    except ValueError:
        return
    assert fz.to_dict() == {"label": "", **payload}


@settings(max_examples=150, deadline=None)
@given(interval_lists)
@example([(1.0, 2.0), (2.0, 3.0)])  # touching intervals: 2 is still a breakpoint
@example([(1.0, 3.0), (2.0, 2.0)])  # a point interval inside another
def test_from_dict_round_trip_keeps_profile(pairs):
    fz = build(pairs)
    assert fz.endpoints == tuple(sorted({bound for pair in pairs for bound in pair}))
    again = FuzzyNumber.from_dict(json.loads(json.dumps(fz.to_dict())), WIDE)
    assert again == fz
    assert again.profile == fz.profile
    assert attribute_vector(again).perimeter == attribute_vector(fz).perimeter
    assert membership_polyline(again) == membership_polyline(fz)
    for x in probe_points(fz.endpoints):
        assert again.membership(x) == fz.membership(x)
