"""Unit tests for repro.bgp.community."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp import (
    BLACKHOLE,
    Community,
    CommunitySet,
    LargeCommunity,
    NO_ADVERTISE,
    NO_EXPORT,
)
from repro.bgp.errors import AttributeError_


class TestCommunity:
    def test_parse(self):
        community = Community.parse("3356:300")
        assert community.asn == 3356
        assert community.local_value == 300

    def test_of(self):
        assert Community.of(3356, 300) == Community.parse("3356:300")

    def test_parse_rejects_malformed(self):
        for bad in ("3356", "a:b", "3356:70000", "70000:1", ":"):
            with pytest.raises(AttributeError_):
                Community.parse(bad)

    def test_of_rejects_out_of_range(self):
        with pytest.raises(AttributeError_):
            Community.of(0x10000, 1)

    def test_value_range_check(self):
        with pytest.raises(AttributeError_):
            Community(-1)
        with pytest.raises(AttributeError_):
            Community(2**32)

    def test_wire_roundtrip(self):
        community = Community.parse("64500:12345")
        assert Community.from_bytes(community.to_bytes()) == community

    def test_from_bytes_rejects_bad_length(self):
        with pytest.raises(AttributeError_):
            Community.from_bytes(b"\x00\x01\x02")

    def test_well_known(self):
        assert NO_EXPORT.is_well_known
        assert NO_ADVERTISE.is_well_known
        assert BLACKHOLE.is_well_known
        assert str(BLACKHOLE) == "65535:666"
        assert not Community.parse("3356:300").is_well_known

    def test_reserved_low(self):
        assert Community.parse("0:1").is_reserved_low

    def test_ordering_and_hash(self):
        low = Community.parse("1:1")
        high = Community.parse("2:0")
        assert low < high
        assert len({low, Community.parse("1:1")}) == 1

    def test_str_roundtrip(self):
        assert str(Community.parse("20205:64")) == "20205:64"


class TestLargeCommunity:
    def test_parse(self):
        large = LargeCommunity.parse("64496:1:2")
        assert large.global_admin == 64496
        assert (large.data1, large.data2) == (1, 2)

    def test_parse_rejects_malformed(self):
        for bad in ("1:2", "1:2:3:4", "a:b:c"):
            with pytest.raises(AttributeError_):
                LargeCommunity.parse(bad)

    def test_field_range_check(self):
        with pytest.raises(AttributeError_):
            LargeCommunity(2**32, 0, 0)

    def test_wire_roundtrip(self):
        large = LargeCommunity(4200000000, 7, 9)
        assert LargeCommunity.from_bytes(large.to_bytes()) == large

    def test_from_bytes_rejects_bad_length(self):
        with pytest.raises(AttributeError_):
            LargeCommunity.from_bytes(b"\x00" * 11)

    def test_ordering(self):
        assert LargeCommunity(1, 0, 0) < LargeCommunity(1, 0, 1)


class TestCommunitySet:
    def test_parse_mixed(self):
        mixed = CommunitySet.parse("3356:300 64496:1:2 65535:666")
        assert len(mixed.classic) == 2
        assert len(mixed.large) == 1
        assert len(mixed) == 3

    def test_empty_singleton(self):
        assert CommunitySet.empty().is_empty()
        assert not CommunitySet.empty()
        assert CommunitySet.parse("1:1")

    def test_equality_ignores_order(self):
        first = CommunitySet.parse("1:1 2:2")
        second = CommunitySet.parse("2:2 1:1")
        assert first == second
        assert hash(first) == hash(second)

    def test_add_remove_are_pure(self):
        base = CommunitySet.parse("1:1")
        bigger = base.add(Community.parse("2:2"))
        assert len(base) == 1
        assert len(bigger) == 2
        smaller = bigger.remove(Community.parse("1:1"))
        assert Community.parse("1:1") not in smaller

    def test_remove_missing_is_noop(self):
        base = CommunitySet.parse("1:1")
        assert base.remove(Community.parse("9:9")) == base

    def test_union(self):
        union = CommunitySet.parse("1:1").union(CommunitySet.parse("2:2"))
        assert union == CommunitySet.parse("1:1 2:2")

    def test_without_asn(self):
        mixed = CommunitySet.parse("3356:1 3356:2 174:1 3356:5:5")
        cleaned = mixed.without_asn(3356)
        assert cleaned == CommunitySet.parse("174:1")

    def test_only_asn(self):
        mixed = CommunitySet.parse("3356:1 174:1")
        assert mixed.only_asn(3356) == CommunitySet.parse("3356:1")

    def test_filter(self):
        mixed = CommunitySet.parse("1:100 1:200")
        kept = mixed.filter(lambda c: c.local_value >= 200)
        assert kept == CommunitySet.parse("1:200")

    def test_contains(self):
        mixed = CommunitySet.parse("1:1 2:2:2")
        assert Community.parse("1:1") in mixed
        assert LargeCommunity.parse("2:2:2") in mixed
        assert Community.parse("9:9") not in mixed

    def test_iteration_is_sorted(self):
        mixed = CommunitySet.parse("2:2 1:1 3:3:3")
        rendered = str(mixed)
        assert rendered == "1:1 2:2 3:3:3"

    def test_rejects_non_communities(self):
        with pytest.raises(AttributeError_):
            CommunitySet(classic=("1:1",))  # type: ignore[arg-type]
        with pytest.raises(AttributeError_):
            CommunitySet.empty().add("1:1")  # type: ignore[arg-type]

    def test_rejects_plain_ints_equal_to_members(self):
        """``Community(v) == v``, so a membership shortcut would wave a
        plain int through; every entry point must still refuse it."""
        member = Community.of(1, 1)
        present = CommunitySet((member,))
        with pytest.raises(AttributeError_):
            CommunitySet(classic=(int(member),))
        with pytest.raises(AttributeError_):
            CommunitySet(classic=(member, int(member)))
        with pytest.raises(AttributeError_):
            present.add(int(member))
        with pytest.raises(AttributeError_):
            present.remove(int(member))
        with pytest.raises(AttributeError_):
            CommunitySet.empty().remove(int(member))

    def test_cleared(self):
        assert CommunitySet.parse("1:1").cleared().is_empty()


class TestCommunityContract:
    """What code relying on the ``int``-backed Community may assume."""

    def test_equals_its_plain_value(self):
        community = Community.parse("3356:300")
        assert community == (3356 << 16) | 300
        assert hash(community) == hash((3356 << 16) | 300)
        assert type(community.value) is int

    def test_text_forms(self):
        community = Community.parse("3356:300")
        assert str(community) == "3356:300"
        assert f"{community}" == "3356:300"
        assert repr(community) == "Community('3356:300')"

    def test_sort_order_is_numeric(self):
        values = [Community.of(2, 0), Community.of(1, 5), Community.of(1, 1)]
        assert [str(c) for c in sorted(values)] == ["1:1", "1:5", "2:0"]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_keeps_the_type(self, protocol):
        community = Community.parse("64500:7")
        loaded = pickle.loads(pickle.dumps(community, protocol))
        assert type(loaded) is Community
        assert loaded == community and str(loaded) == "64500:7"

    def test_community_set_pickle_round_trip(self):
        members = CommunitySet.parse("64500:7 1:2:3")
        loaded = pickle.loads(pickle.dumps(members))
        assert loaded == members
        assert all(type(c) is Community for c in loaded.classic)

    def test_never_equal_to_a_large_community(self):
        for value in (0, 1, (1 << 16) | 2):
            classic = Community(value)
            for large in (
                LargeCommunity(0, 0, value),
                LargeCommunity(value, 0, 0),
            ):
                assert classic != large and large != classic
                assert large not in frozenset((classic,))
                assert classic not in frozenset((large,))


_CLASSIC = st.builds(
    lambda asn, value: (asn << 16) | value,
    st.integers(0, 3),
    st.integers(0, 3),
)
_LARGE = st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 1))
_MODEL = st.tuples(st.frozensets(_CLASSIC), st.frozensets(_LARGE))


def _build(model):
    classic, large = model
    return CommunitySet(
        (Community(value) for value in classic),
        (LargeCommunity(*fields) for fields in large),
    )


def _model(communities):
    assert all(type(c) is Community for c in communities.classic)
    return (
        frozenset(int(c) for c in communities.classic),
        frozenset((c.global_admin, c.data1, c.data2) for c in communities.large),
    )


class TestCommunitySetAlgebra:
    """``CommunitySet`` agrees with plain frozensets of ints/tuples."""

    @given(_MODEL, _MODEL, st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_frozenset_reference(self, left, right, asn):
        first, second = _build(left), _build(right)
        union = (left[0] | right[0], left[1] | right[1])
        difference = (left[0] - right[0], left[1] - right[1])
        assert _model(first.union(second)) == union
        assert _model(first.add(*second)) == union
        assert _model(first.difference(second)) == difference
        assert _model(first.remove(*second)) == difference
        assert _model(first.without_asn(asn)) == (
            frozenset(v for v in left[0] if v >> 16 != asn),
            frozenset(t for t in left[1] if t[0] != asn),
        )
        assert first.union(second) == _build(union)
        assert first.difference(second) == _build(difference)

    @given(_MODEL, _MODEL)
    @settings(max_examples=100, deadline=None)
    def test_unchanged_results_are_self(self, left, right):
        first, second = _build(left), _build(right)
        covers = right[0] <= left[0] and right[1] <= left[1]
        disjoint = not (left[0] & right[0]) and not (left[1] & right[1])
        assert (first.union(second) is first) == covers
        assert (first.add(*second) is first) == covers
        assert (first.difference(second) is first) == disjoint
        assert (first.remove(*second) is first) == disjoint
