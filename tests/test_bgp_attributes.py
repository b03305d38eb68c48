"""Unit tests for repro.bgp.attributes and messages."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp import (
    ASPath,
    CommunitySet,
    Origin,
    PathAttributes,
    UpdateMessage,
)
from repro.bgp.community import Community, LargeCommunity
from repro.bgp.errors import AttributeError_, MessageError
from repro.netbase import ASN, Prefix


def make_attrs(**overrides):
    defaults = dict(
        as_path=ASPath.from_string("20205 3356 174 12654"),
        next_hop="10.0.0.1",
        communities=CommunitySet.parse("3356:300"),
    )
    defaults.update(overrides)
    return PathAttributes(**defaults)


class TestPathAttributes:
    def test_defaults(self):
        attrs = PathAttributes()
        assert attrs.origin == Origin.IGP
        assert attrs.as_path.is_empty()
        assert attrs.communities.is_empty()
        assert attrs.med is None
        assert attrs.local_pref is None

    def test_replace_changes_one_field(self):
        attrs = make_attrs()
        updated = attrs.replace(med=50)
        assert updated.med == 50
        assert updated.as_path == attrs.as_path
        assert attrs.med is None  # original untouched

    def test_replace_can_clear_optional(self):
        attrs = make_attrs(med=10)
        assert attrs.replace(med=None).med is None

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(AttributeError_):
            make_attrs().replace(color="blue")

    def test_with_communities(self):
        updated = make_attrs().with_communities(CommunitySet.parse("1:1"))
        assert updated.communities == CommunitySet.parse("1:1")

    def test_with_prepend(self):
        updated = make_attrs().with_prepend(64500, 2)
        assert updated.as_path.asns()[:2] == (ASN(64500), ASN(64500))

    def test_with_next_hop(self):
        assert make_attrs().with_next_hop("10.9.9.9").next_hop == "10.9.9.9"

    def test_med_range_validation(self):
        with pytest.raises(AttributeError_):
            PathAttributes(med=-1)
        with pytest.raises(AttributeError_):
            PathAttributes(local_pref=2**32)

    def test_equality_covers_all_fields(self):
        assert make_attrs() == make_attrs()
        assert make_attrs() != make_attrs(med=1)
        assert make_attrs() != make_attrs(next_hop="10.0.0.2")

    def test_hashable(self):
        assert len({make_attrs(), make_attrs()}) == 1

    def test_same_path_and_communities_ignores_next_hop_and_med(self):
        base = make_attrs()
        assert base.same_path_and_communities(
            make_attrs(next_hop="10.0.0.2", med=99)
        )
        assert not base.same_path_and_communities(
            make_attrs(communities=CommunitySet.empty())
        )
        assert not base.same_path_and_communities(
            make_attrs(as_path=ASPath.from_string("20205 3356"))
        )

    def test_repr_mentions_key_fields(self):
        rendered = repr(make_attrs(med=5))
        assert "med=5" in rendered
        assert "3356" in rendered


# ----------------------------------------------------------------------
# reference oracle for attribute rewrites
# ----------------------------------------------------------------------
FIELDS = (
    "origin",
    "as_path",
    "next_hop",
    "med",
    "local_pref",
    "communities",
    "atomic_aggregate",
    "aggregator",
    "originator_id",
    "cluster_list",
    "extra",
)


def fields(attributes):
    """Every field of *attributes*, by constructor keyword."""
    return {name: getattr(attributes, name) for name in FIELDS}


def reference_key(attributes):
    """The full-tuple key that equality was defined by: every field,
    compared as one tuple."""
    return tuple(getattr(attributes, name) for name in FIELDS)


# Small pools, so that two independent draws are often equal.  AS paths
# and community sets are built fresh on every draw: equal values are
# usually distinct objects, which exercises more than identity.
METRICS = st.one_of(st.none(), st.sampled_from((0, 1, 100, 0xFFFFFFFF)))
ADDRESSES = st.one_of(st.none(), st.sampled_from(("10.0.0.1", "10.0.0.2")))
FIELD_VALUES = {
    "origin": st.sampled_from(tuple(Origin)),
    "as_path": st.one_of(
        st.none(),
        st.lists(st.sampled_from((64500, 64501, 3356)), max_size=3).map(
            ASPath.from_asns
        ),
    ),
    "next_hop": ADDRESSES,
    "med": METRICS,
    "local_pref": METRICS,
    "communities": st.one_of(
        st.none(),
        st.builds(
            CommunitySet,
            st.lists(st.sampled_from((1, 0x0D1C0001)).map(Community)),
            st.lists(st.just(LargeCommunity(64500, 1, 2)), max_size=1),
        ),
    ),
    "atomic_aggregate": st.booleans(),
    "aggregator": st.one_of(st.none(), st.just((ASN(64500), "10.0.0.9"))),
    "originator_id": ADDRESSES,
    "cluster_list": st.lists(
        st.sampled_from(("1.1.1.1", "2.2.2.2")), max_size=2
    ).map(tuple),
    "extra": st.lists(
        st.sampled_from(((99, b"\x01"), (40, b""))), max_size=2, unique=True
    ).map(tuple),
}


@st.composite
def field_subsets(draw):
    """Values for a random subset of the fields."""
    names = draw(st.lists(st.sampled_from(FIELDS), unique=True))
    return {name: draw(FIELD_VALUES[name]) for name in names}


@st.composite
def attribute_sets(draw):
    return PathAttributes(**draw(field_subsets()))


class TestReplaceOracle:
    """``replace`` and equality held to plain reference definitions."""

    @settings(max_examples=150, deadline=None)
    @given(attribute_sets(), field_subsets())
    def test_replace_equals_construction_from_merged_fields(
        self, base, changes
    ):
        replaced = base.replace(**changes)
        built = PathAttributes(**{**fields(base), **changes})
        assert replaced == built
        assert reference_key(replaced) == reference_key(built)

    @settings(max_examples=150, deadline=None)
    @given(attribute_sets(), field_subsets())
    def test_equality_is_reference_key_equality(self, base, changes):
        other = base.replace(**changes)
        expected = reference_key(base) == reference_key(other)
        assert (base == other) is expected
        assert (other == base) is expected
        assert (base != other) is not expected
        if expected:
            assert hash(base) == hash(other)

    @settings(max_examples=150, deadline=None)
    @given(attribute_sets(), field_subsets())
    def test_equal_values_in_distinct_objects(self, base, changes):
        # Rebuilt AS path and community set: equal, never identical.
        twin = PathAttributes(
            **{
                **fields(base),
                "as_path": ASPath(base.as_path.segments),
                "communities": CommunitySet(
                    base.communities.classic, base.communities.large
                ),
            }
        )
        assert twin.as_path is not base.as_path
        assert twin.communities is not base.communities
        assert twin == base and hash(twin) == hash(base)
        first, second = base.replace(**changes), twin.replace(**changes)
        assert reference_key(first) == reference_key(second)
        assert first == second and hash(first) == hash(second)

    @settings(max_examples=150, deadline=None)
    @given(field_subsets(), field_subsets())
    def test_independent_sets_agree_with_reference_key(self, first, second):
        a, b = PathAttributes(**first), PathAttributes(**second)
        assert (a == b) is (reference_key(a) == reference_key(b))
        if a == b:
            assert hash(a) == hash(b)

    @settings(max_examples=100, deadline=None)
    @given(attribute_sets())
    def test_none_clears_communities_and_as_path(self, base):
        cleared = base.replace(communities=None, as_path=None)
        assert cleared.communities.is_empty()
        assert cleared.as_path.is_empty()
        assert cleared == PathAttributes(
            **{**fields(base), "communities": None, "as_path": None}
        )

    @settings(max_examples=100, deadline=None)
    @given(
        attribute_sets(),
        st.sampled_from(("med", "local_pref")),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=2**32)),
    )
    def test_out_of_range_metric_raises(self, base, name, value):
        with pytest.raises(AttributeError_):
            base.replace(**{name: value})
        with pytest.raises(AttributeError_):
            PathAttributes(**{name: value})

    @settings(max_examples=100, deadline=None)
    @given(
        attribute_sets(),
        field_subsets(),
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1).filter(
            lambda name: name not in FIELDS and name != "self"
        ),
    )
    def test_unknown_field_raises(self, base, changes, name):
        with pytest.raises(AttributeError_, match=name):
            base.replace(**changes, **{name: 1})


class TestUpdateMessage:
    def test_announce(self):
        update = UpdateMessage.announce(
            Prefix("84.205.64.0/24"), make_attrs()
        )
        assert update.is_announcement
        assert not update.is_withdrawal
        assert update.announced == (Prefix("84.205.64.0/24"),)
        assert update == UpdateMessage(
            announced=[Prefix("84.205.64.0/24")], attributes=make_attrs()
        )

    def test_withdraw(self):
        update = UpdateMessage.withdraw(Prefix("84.205.64.0/24"))
        assert update.is_withdrawal
        assert update.attributes is None

    def test_mixed(self):
        update = UpdateMessage(
            announced=[Prefix("10.0.0.0/8")],
            withdrawn=[Prefix("11.0.0.0/8")],
            attributes=make_attrs(),
        )
        assert update.is_announcement and update.is_withdrawal

    def test_rejects_announce_without_attributes(self):
        with pytest.raises(MessageError):
            UpdateMessage(announced=[Prefix("10.0.0.0/8")])
        with pytest.raises(MessageError):
            UpdateMessage.announce(Prefix("10.0.0.0/8"), None)

    def test_rejects_empty_update(self):
        with pytest.raises(MessageError):
            UpdateMessage()

    def test_rejects_non_prefix(self):
        with pytest.raises(MessageError):
            UpdateMessage(withdrawn=["10.0.0.0/8"])  # type: ignore[list-item]

    def test_equality(self):
        first = UpdateMessage.announce(Prefix("10.0.0.0/8"), make_attrs())
        second = UpdateMessage.announce(Prefix("10.0.0.0/8"), make_attrs())
        assert first == second
        assert hash(first) == hash(second)
