"""Unit + property tests for the announcement-type classifier."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AnnouncementType,
    UpdateClassifier,
    classify_observations,
)
from repro.analysis.classify import TYPE_ORDER, compare_announcements, TypeCounts
from repro.analysis.observations import (
    Observation,
    ObservationKind,
    SessionKey,
)
from repro.bgp import ASPath, CommunitySet
from repro.netbase import Prefix

SESSION = SessionKey("rrc00", 20205, "10.0.0.1")
PREFIX = Prefix("84.205.64.0/24")


def announce(t, path, communities="", session=SESSION, prefix=PREFIX):
    return Observation(
        timestamp=t,
        session=session,
        prefix=prefix,
        kind=ObservationKind.ANNOUNCE,
        as_path=ASPath.from_string(path) if path else ASPath.empty(),
        communities=CommunitySet.parse(communities),
    )


def withdraw(t, session=SESSION, prefix=PREFIX):
    return Observation(
        timestamp=t,
        session=session,
        prefix=prefix,
        kind=ObservationKind.WITHDRAW,
    )


class TestCompare:
    PATH = ASPath.from_string("1 2 3")

    def test_nn(self):
        kind = compare_announcements(
            self.PATH, CommunitySet.empty(), self.PATH, CommunitySet.empty()
        )
        assert kind == AnnouncementType.NN

    def test_nc(self):
        kind = compare_announcements(
            self.PATH,
            CommunitySet.parse("1:1"),
            self.PATH,
            CommunitySet.parse("1:2"),
        )
        assert kind == AnnouncementType.NC

    def test_pn(self):
        kind = compare_announcements(
            self.PATH,
            CommunitySet.empty(),
            ASPath.from_string("1 4 3"),
            CommunitySet.empty(),
        )
        assert kind == AnnouncementType.PN

    def test_pc(self):
        kind = compare_announcements(
            self.PATH,
            CommunitySet.parse("1:1"),
            ASPath.from_string("1 4 3"),
            CommunitySet.parse("1:2"),
        )
        assert kind == AnnouncementType.PC

    def test_xn(self):
        kind = compare_announcements(
            self.PATH,
            CommunitySet.empty(),
            ASPath.from_string("1 1 2 3"),
            CommunitySet.empty(),
        )
        assert kind == AnnouncementType.XN

    def test_xc(self):
        kind = compare_announcements(
            self.PATH,
            CommunitySet.parse("1:1"),
            ASPath.from_string("1 1 2 3"),
            CommunitySet.parse("1:2"),
        )
        assert kind == AnnouncementType.XC

    def test_empty_paths_compare_as_no_change(self):
        kind = compare_announcements(
            None, CommunitySet.empty(), None, CommunitySet.empty()
        )
        assert kind == AnnouncementType.NN


class TestTypeProperties:
    def test_flags(self):
        assert AnnouncementType.PC.path_changed
        assert AnnouncementType.PC.community_changed
        assert AnnouncementType.XN.prepend_only
        assert not AnnouncementType.XN.community_changed
        assert AnnouncementType.NC.is_spurious
        assert AnnouncementType.NN.is_spurious
        assert not AnnouncementType.PC.is_spurious

    def test_order_covers_all(self):
        assert set(TYPE_ORDER) == set(AnnouncementType)


class TestClassifier:
    def test_first_announcement_is_unclassified(self):
        classifier = UpdateClassifier()
        assert classifier.observe(announce(1, "1 2")) is None
        assert classifier.counts.unclassified_first == 1

    def test_streams_are_independent(self):
        classifier = UpdateClassifier()
        other_session = SessionKey("rrc00", 3356, "10.0.0.2")
        classifier.observe(announce(1, "1 2"))
        # Same prefix, different session: also first-on-stream.
        assert (
            classifier.observe(announce(2, "1 2", session=other_session))
            is None
        )

    def test_prefixes_are_independent(self):
        classifier = UpdateClassifier()
        classifier.observe(announce(1, "1 2"))
        other = announce(2, "1 2", prefix=Prefix("10.0.0.0/8"))
        assert classifier.observe(other) is None

    def test_withdrawal_does_not_reset_stream_state(self):
        # The paper compares an announcement to the previous
        # *announcement*, so a withdraw/re-announce of the same route
        # counts as nn.
        classifier = UpdateClassifier()
        classifier.observe(announce(1, "1 2", "1:1"))
        classifier.observe(withdraw(2))
        kind = classifier.observe(announce(3, "1 2", "1:1"))
        assert kind == AnnouncementType.NN
        assert classifier.counts.withdrawals == 1

    def test_community_exploration_sequence(self):
        # The Figure 4 pattern: pc followed by nc's.
        classifier = UpdateClassifier()
        classifier.observe(announce(0, "20205 6939 12654", "6939:1"))
        kinds = [
            classifier.observe(announce(1, "20205 3356 174 12654", "3356:100")),
            classifier.observe(announce(2, "20205 3356 174 12654", "3356:200")),
            classifier.observe(announce(3, "20205 3356 174 12654", "3356:300")),
        ]
        assert kinds == [
            AnnouncementType.PC,
            AnnouncementType.NC,
            AnnouncementType.NC,
        ]

    def test_duplicate_sequence(self):
        # The Figure 5 pattern: pn followed by nn's.
        classifier = UpdateClassifier()
        classifier.observe(announce(0, "20811 6939 12654"))
        kinds = [
            classifier.observe(announce(1, "20811 3356 174 12654")),
            classifier.observe(announce(2, "20811 3356 174 12654")),
        ]
        assert kinds == [AnnouncementType.PN, AnnouncementType.NN]

    def test_counts_and_shares(self):
        observations = [
            announce(0, "1 2", "1:1"),
            announce(1, "1 2", "1:2"),  # nc
            announce(2, "1 3", "1:2"),  # pn
            announce(3, "1 3", "1:2"),  # nn
            announce(4, "1 1 3", "1:2"),  # xn
            withdraw(5),
        ]
        counts = classify_observations(observations)
        assert counts.classified_total == 4
        assert counts.announcements_total == 5
        assert counts.withdrawals == 1
        assert counts.counts[AnnouncementType.NC] == 1
        assert counts.share(AnnouncementType.NC) == 0.25
        assert counts.no_path_change_share() == 0.5

    def test_empty_counts(self):
        counts = TypeCounts()
        assert counts.share(AnnouncementType.PC) == 0.0
        assert counts.classified_total == 0

    def test_as_rows_ordering(self):
        counts = classify_observations([announce(0, "1"), announce(1, "1")])
        rows = counts.as_rows()
        assert [row[0] for row in rows] == [
            "pc", "pn", "nc", "nn", "xc", "xn",
        ]


class TestClassifierProperties:
    paths = st.lists(
        st.integers(min_value=1, max_value=100), min_size=1, max_size=4
    ).map(lambda asns: " ".join(str(a) for a in asns))
    community_sets = st.sets(
        st.integers(min_value=0, max_value=5), max_size=3
    ).map(
        lambda values: " ".join(f"100:{v}" for v in sorted(values))
    )

    @given(st.lists(st.tuples(paths, community_sets), min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_every_non_first_announcement_gets_a_type(self, stream):
        observations = [
            announce(index, path, communities)
            for index, (path, communities) in enumerate(stream)
        ]
        counts = classify_observations(observations)
        assert counts.classified_total == len(stream) - 1
        assert counts.unclassified_first == 1

    @given(st.lists(st.tuples(paths, community_sets), min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_shares_sum_to_one(self, stream):
        observations = [
            announce(index, path, communities)
            for index, (path, communities) in enumerate(stream)
        ]
        counts = classify_observations(observations)
        total = sum(counts.share(kind) for kind in AnnouncementType)
        assert total == pytest.approx(1.0)

    @given(paths, community_sets)
    @settings(max_examples=50, deadline=None)
    def test_identical_reannouncement_is_always_nn(self, path, communities):
        observations = [
            announce(0, path, communities),
            announce(1, path, communities),
        ]
        counts = classify_observations(observations)
        assert counts.counts[AnnouncementType.NN] == 1


class TestSnapshotSeeding:
    def _archive(self):
        from repro.netbase import Prefix
        from repro.simulator import Network

        network = Network()
        origin = network.add_router("origin", 65001)
        middle = network.add_router("middle", 65002)
        collector = network.add_collector("rrc0")
        network.connect(origin, middle)
        network.connect(middle, collector)
        origin.originate(Prefix("203.0.113.0/24"))
        network.converge()
        return network, origin, collector

    def test_seeded_first_announcement_is_classified(self):
        from repro.analysis import observations_from_collector
        from repro.bgp import CommunitySet
        from repro.mrt import snapshot_from_collector
        from repro.netbase import Prefix

        network, origin, collector = self._archive()
        snapshot = snapshot_from_collector(collector)
        collector.clear()
        # A community change arrives after the snapshot was taken.
        origin.originate(
            Prefix("203.0.113.0/24"),
            communities=CommunitySet.parse("65001:9"),
        )
        network.converge()

        unseeded = UpdateClassifier()
        for obs in observations_from_collector(collector):
            unseeded.observe(obs)
        assert unseeded.counts.unclassified_first == 1

        seeded = UpdateClassifier()
        assert seeded.seed_from_snapshot(snapshot, "rrc0") == 1
        for obs in observations_from_collector(collector):
            seeded.observe(obs)
        assert seeded.counts.unclassified_first == 0
        assert seeded.counts.counts[AnnouncementType.NC] == 1

    def test_seeding_does_not_override_live_state(self):
        from repro.mrt import snapshot_from_collector

        network, origin, collector = self._archive()
        snapshot = snapshot_from_collector(collector)
        classifier = UpdateClassifier()
        # Live observation first; seeding afterwards must not clobber.
        from repro.analysis import observations_from_collector

        for obs in observations_from_collector(collector):
            classifier.observe(obs)
        assert classifier.seed_from_snapshot(snapshot, "rrc0") == 0
