"""Differential properties of the step profile against the brute-force oracle."""

import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iaarank import FuzzyNumber, Region, ScaleConfig, canonicalize, construct_fuzzy
from iaarank.attributes import (
    AttributeVector,
    agreement_ratio,
    attribute_vector,
    membership_polyline,
    perimeter,
    support_length,
)
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
# Segments may overlap; lines on the same lattice often sit inside segments.
regions = st.one_of(
    st.builds(lambda a, b, h: Region(min(a, b), max(a, b), h), half_steps, half_steps, heights),
    st.builds(lambda x, h: Region(x, x, h), half_steps, heights),
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
    assert [(r.left, r.right, r.height) for r in fz.regions] == oracle.brute_regions(pairs)


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
    assert perimeter(fz) == oracle.brute_perimeter(oracle.brute_regions(pairs))


@settings(max_examples=150, deadline=None)
@given(interval_lists)
@example([(0.0, 0.0), (5e-324, 5e-324)])
@example([(1.0, 2.0), (2.0, 3.0), (4.0, 4.0)])  # touching segments, lone spike
def test_support_length_and_agreement_equal_oracle_bit_exactly(pairs):
    fz = build(pairs)
    triples = oracle.brute_regions(pairs)
    assert support_length(fz) == oracle.brute_support_length(triples)
    assert agreement_ratio(fz) == oracle.brute_agreement(triples)


@settings(max_examples=300, deadline=None)
@given(region_lists)
@example([Region(0, 4, 0.5), Region(2, 2, 0.25)])
@example([Region(0, 1, 0.5), Region(1, 1, 1.0), Region(3, 3, 0.25)])
def test_support_length_and_agreement_of_canonical_lists_equal_oracle(regs):
    fz = FuzzyNumber(canonicalize(regs), n=1, scale=WIDE)
    triples = [(r.left, r.right, r.height) for r in fz.regions]
    assert support_length(fz) == oracle.brute_support_length(triples)
    assert agreement_ratio(fz) == oracle.brute_agreement(triples)


def from_pairs(pairs):
    return build(pairs), oracle.brute_regions(pairs)


def from_regions(regs):
    regs = canonicalize(regs)
    return FuzzyNumber(regs, n=1, scale=WIDE), [(r.left, r.right, r.height) for r in regs]


@settings(max_examples=300, deadline=None)
@given(st.one_of(interval_lists.map(from_pairs), region_lists.map(from_regions)))
@example(from_pairs([(2.0, 2.0), (2.0, 2.0), (7.0, 7.0)]))  # all spikes
@example(from_pairs([(0.0, 2.0), (2.0, 4.0), (4.0, 10.0)]))  # two quartiles in [4, 10]
@example(from_pairs([(0.0, 0.0), (5e-324, 5e-324)]))  # adjacent-double spikes
@example(from_pairs([(1.0, 1.0 + 2 ** -52)]))  # area below 1e-12: discrete quartiles
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
@example([Region(0, 4, 0.5), Region(2, 2, 0.25)])
@example([Region(0, 4, 0.5), Region(2, 2, 0.75), Region(1, 3, 0.625)])
def test_canonicalize_idempotent_and_preserves_membership(regs):
    canonical = canonicalize(regs)
    assert canonicalize(canonical) == canonical
    fz = FuzzyNumber(canonical, n=1, scale=WIDE)
    for x in probe_points({b for r in regs for b in (r.left, r.right)}):
        direct = max((r.height for r in regs if r.left <= x <= r.right), default=0.0)
        assert fz.membership(x) == direct


def constructible(regs):
    """The regions the FuzzyNumber constructor accepts, in order: every line,
    and each segment that starts at or after the end of the last one kept."""
    kept, end = [], None
    for r in sorted(regs, key=lambda r: (r.left, r.right)):
        if r.is_line:
            kept.append(r)
        elif end is None or r.left >= end:
            kept.append(r)
            end = r.right
    return kept


@settings(max_examples=300, deadline=None)
@given(region_lists)
@example([Region(0, 4, 0.5), Region(2, 2, 0.75)])
@example([Region(0, 1, 0.5), Region(1, 1, 0.5), Region(1, 2, 0.5)])
def test_regions_and_their_canonical_form_give_one_number(regs):
    regs = constructible(regs)
    given_as = FuzzyNumber(regs, n=1, scale=WIDE)
    canonical = FuzzyNumber(canonicalize(regs), n=1, scale=WIDE)
    assert given_as.profile == canonical.profile
    _, points, segments = given_as.profile
    flat = [left == point == right
            for left, point, right in zip(segments, points, segments[1:])]
    assert not any(flat)
    assert given_as == canonical and hash(given_as) == hash(canonical)
    assert attribute_vector(given_as) == attribute_vector(canonical)
    assert given_as.regions == canonical.regions == canonicalize(regs)


@settings(max_examples=150, deadline=None)
@given(interval_lists)
@example([(1.0, 2.0), (2.0, 3.0)])  # touching intervals: 2 is still a breakpoint
@example([(1.0, 3.0), (2.0, 2.0)])  # a point interval inside another
def test_from_dict_round_trip_keeps_profile(pairs):
    fz = build(pairs)
    assert fz.endpoints == make_set("p", pairs).endpoints()
    again = FuzzyNumber.from_dict(json.loads(json.dumps(fz.to_dict())), WIDE)
    assert again == fz
    assert again.profile == fz.profile
    assert perimeter(again) == perimeter(fz)
    assert membership_polyline(again) == membership_polyline(fz)
    for x in probe_points(fz.endpoints):
        assert again.membership(x) == fz.membership(x)
