"""Unit tests for observation flattening and stream grouping."""

import pytest

from repro.analysis.classify import AnnouncementType
from repro.analysis.observations import (
    Observation,
    ObservationKind,
    SessionKey,
    explode_update,
    group_into_streams,
    peer_ases,
    sessions_of,
)
from repro.bgp import ASPath, CommunitySet, PathAttributes, UpdateMessage
from repro.netbase import ASN, Prefix
from repro.simulator.collector import CollectedMessage

SESSION = SessionKey("rrc00", 20205, "10.0.0.1")


def attrs():
    return PathAttributes(
        as_path=ASPath.from_string("20205 12654"),
        next_hop="10.0.0.1",
        med=7,
        communities=CommunitySet.parse("20205:1"),
    )


class TestExplode:
    def test_withdrawals_come_first(self):
        update = UpdateMessage(
            announced=[Prefix("10.0.0.0/8")],
            withdrawn=[Prefix("11.0.0.0/8")],
            attributes=attrs(),
        )
        observations = list(explode_update(5.0, SESSION, update))
        assert observations[0].is_withdrawal
        assert observations[1].is_announcement

    def test_announcements_share_attributes(self):
        update = UpdateMessage.announce(
            [Prefix("10.0.0.0/8"), Prefix("11.0.0.0/8")], attrs()
        )
        observations = list(explode_update(5.0, SESSION, update))
        assert len(observations) == 2
        assert all(
            obs.as_path == attrs().as_path for obs in observations
        )
        assert all(obs.med == 7 for obs in observations)
        assert all(obs.timestamp == 5.0 for obs in observations)

    def test_withdrawal_has_no_attributes(self):
        update = UpdateMessage.withdraw(Prefix("10.0.0.0/8"))
        observation = explode_update(1.0, SESSION, update)[0]
        assert observation.as_path is None
        assert observation.communities.is_empty()
        assert observation.med is None

    def test_shifted_and_with_as_path(self):
        update = UpdateMessage.announce(Prefix("10.0.0.0/8"), attrs())
        observation = explode_update(1.0, SESSION, update)[0]
        moved = observation.shifted(2.0)
        assert moved.timestamp == 2.0
        assert moved.prefix == observation.prefix
        repaired = observation.with_as_path(
            ASPath.from_string("1 20205 12654")
        )
        assert repaired.as_path.hop_count() == 3


class TestGrouping:
    def _observation(self, session, prefix, t):
        return Observation(
            timestamp=t,
            session=session,
            prefix=Prefix(prefix),
            kind=ObservationKind.ANNOUNCE,
            as_path=ASPath.from_string("1 2"),
        )

    def test_group_into_streams_preserves_order(self):
        other = SessionKey("rrc00", 3356, "10.0.0.2")
        feed = [
            self._observation(SESSION, "10.0.0.0/8", 1.0),
            self._observation(other, "10.0.0.0/8", 2.0),
            self._observation(SESSION, "10.0.0.0/8", 3.0),
        ]
        streams = group_into_streams(feed)
        assert len(streams) == 2
        own = streams[(SESSION, Prefix("10.0.0.0/8"))]
        assert [obs.timestamp for obs in own] == [1.0, 3.0]

    def test_helpers(self):
        other = SessionKey("rrc00", 3356, "10.0.0.2")
        feed = [
            self._observation(SESSION, "10.0.0.0/8", 1.0),
            self._observation(other, "11.0.0.0/8", 2.0),
        ]
        assert peer_ases(feed) == {ASN(20205), ASN(3356)}
        assert sessions_of(feed) == {SESSION, other}

    def test_session_key_str(self):
        assert str(SESSION) == "rrc00:20205@10.0.0.1"


class TestValueTypeContract:
    """The per-observation key and record types hash, compare and
    construct in C.  A Python-level ``__hash__`` coming back on any of
    them is a measurable slowdown on every observation."""

    @pytest.mark.parametrize(
        "cls", [Prefix, SessionKey, Observation, CollectedMessage]
    )
    def test_tuple_hash(self, cls):
        assert issubclass(cls, tuple)
        assert cls.__hash__ is tuple.__hash__

    def test_announcement_type_hashes_by_identity(self):
        assert AnnouncementType.__hash__ is object.__hash__
        assert hash(AnnouncementType.NN) == object.__hash__(
            AnnouncementType.NN
        )

    def test_session_key_hash_is_the_field_tuples(self):
        assert hash(SESSION) == hash(("rrc00", 20205, "10.0.0.1"))
        assert SESSION == SessionKey("rrc00", 20205, "10.0.0.1")

    def test_observation_is_immutable(self):
        update = UpdateMessage.announce(Prefix("10.0.0.0/8"), attrs())
        observation = explode_update(1.0, SESSION, update)[0]
        with pytest.raises(AttributeError):
            observation.timestamp = 2.0
        with pytest.raises(AttributeError):
            observation.extra = 1

    def test_copies_keep_the_type(self):
        update = UpdateMessage.announce(Prefix("10.0.0.0/8"), attrs())
        observation = explode_update(1.0, SESSION, update)[0]
        moved = observation.shifted(2.0)
        assert type(moved) is Observation
        assert moved == observation._replace(timestamp=2.0)
        assert moved.communities is observation.communities
