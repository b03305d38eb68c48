"""Unit tests for the §4 cleaning pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import CleaningPipeline
from repro.analysis.cleaning import SAME_SECOND_STEP
from repro.analysis.observations import (
    Observation,
    ObservationKind,
    SessionKey,
)
from repro.bgp import ASPath, CommunitySet
from repro.netbase import Prefix
from repro.pipeline.sinks import SinkBase
from repro.workloads import AllocationRegistry

SESSION = SessionKey("rrc00", 20205, "10.0.0.1")


class _ListSink(SinkBase):
    """Collects every pushed observation."""

    def __init__(self):
        self.items = []

    def push(self, item):
        self.items.append(item)


def announce(t, path="20205 3356 12654", prefix="84.205.64.0/24",
             session=SESSION):
    return Observation(
        timestamp=t,
        session=session,
        prefix=Prefix(prefix),
        kind=ObservationKind.ANNOUNCE,
        as_path=ASPath.from_string(path),
        communities=CommunitySet.empty(),
    )


def registry_with(*asns, prefixes=("84.205.64.0/19",), at=0.0):
    registry = AllocationRegistry()
    registry.allocate_all(list(asns), list(prefixes), at=at)
    return registry


class TestAllocationFiltering:
    def test_passes_fully_allocated(self):
        pipeline = CleaningPipeline(
            oracle=registry_with(20205, 3356, 12654)
        )
        cleaned, report = pipeline.run([announce(10.5)])
        assert len(cleaned) == 1
        assert report.dropped_total == 0

    def test_drops_unallocated_asn_in_path(self):
        pipeline = CleaningPipeline(oracle=registry_with(20205, 12654))
        cleaned, report = pipeline.run([announce(10.5)])
        assert cleaned == []
        assert report.dropped_unallocated_asn == 1

    def test_drops_unallocated_peer_asn(self):
        pipeline = CleaningPipeline(oracle=registry_with(3356, 12654))
        cleaned, report = pipeline.run([announce(10.5)])
        assert cleaned == []
        assert report.dropped_unallocated_asn == 1

    def test_drops_unallocated_prefix(self):
        pipeline = CleaningPipeline(
            oracle=registry_with(20205, 3356, 12654, prefixes=())
        )
        cleaned, report = pipeline.run([announce(10.5)])
        assert cleaned == []
        assert report.dropped_unallocated_prefix == 1

    def test_allocation_date_matters(self):
        pipeline = CleaningPipeline(
            oracle=registry_with(20205, 3356, 12654, at=100.0)
        )
        cleaned, report = pipeline.run([announce(50.5), announce(150.5)])
        assert len(cleaned) == 1
        assert cleaned[0].timestamp == 150.5

    def test_drops_reserved_asns(self):
        pipeline = CleaningPipeline()
        observation = announce(10.5, path="20205 65535 12654")
        cleaned, report = pipeline.run([observation])
        assert cleaned == []
        assert report.dropped_reserved_asn == 1

    def test_drops_as_trans(self):
        pipeline = CleaningPipeline()
        cleaned, report = pipeline.run(
            [announce(10.5, path="20205 23456 12654")]
        )
        assert cleaned == []

    def test_reserved_filter_can_be_disabled(self):
        pipeline = CleaningPipeline(drop_reserved_asns=False)
        cleaned, _ = pipeline.run(
            [announce(10.5, path="20205 65535 12654")]
        )
        assert len(cleaned) == 1

    def test_max_prefix_length(self):
        pipeline = CleaningPipeline(max_prefix_length_v4=24)
        keep = announce(1.5)
        drop = announce(2.5, prefix="84.205.64.0/25")
        cleaned, report = pipeline.run([keep, drop])
        assert len(cleaned) == 1
        assert report.dropped_long_prefix == 1

    def test_withdrawals_pass_asn_checks_without_path(self):
        withdrawal = Observation(
            timestamp=1.5,
            session=SESSION,
            prefix=Prefix("84.205.64.0/24"),
            kind=ObservationKind.WITHDRAW,
        )
        pipeline = CleaningPipeline(oracle=registry_with(20205))
        cleaned, _ = pipeline.run([withdrawal])
        assert len(cleaned) == 1


class TestRouteServerRepair:
    def test_prepends_missing_peer_asn(self):
        # Peer 20205 is a transparent route server: path starts at 3356.
        observation = announce(10.5, path="3356 12654")
        pipeline = CleaningPipeline()
        cleaned, report = pipeline.run([observation])
        assert str(cleaned[0].as_path) == "20205 3356 12654"
        assert report.repaired_route_server_paths == 1
        assert SESSION in report.route_server_peers

    def test_leaves_normal_paths_alone(self):
        pipeline = CleaningPipeline()
        cleaned, report = pipeline.run([announce(10.5)])
        assert str(cleaned[0].as_path) == "20205 3356 12654"
        assert report.repaired_route_server_paths == 0

    def test_repair_can_be_disabled(self):
        pipeline = CleaningPipeline(repair_route_server_paths=False)
        cleaned, _ = pipeline.run([announce(10.5, path="3356 12654")])
        assert str(cleaned[0].as_path) == "3356 12654"


class TestTimestampDisambiguation:
    def test_same_second_arrivals_are_spread(self):
        pipeline = CleaningPipeline()
        cleaned, report = pipeline.run(
            [announce(100.0), announce(100.0), announce(100.0)]
        )
        times = [obs.timestamp for obs in cleaned]
        assert times == [
            100.0,
            100.0 + SAME_SECOND_STEP,
            100.0 + 2 * SAME_SECOND_STEP,
        ]
        assert report.disambiguated_timestamps == 2

    def test_order_is_preserved(self):
        pipeline = CleaningPipeline()
        first = announce(100.0, path="20205 1 12654")
        second = announce(100.0, path="20205 2 12654")
        cleaned, _ = pipeline.run([first, second])
        assert str(cleaned[0].as_path).split()[1] == "1"
        assert cleaned[0].timestamp < cleaned[1].timestamp

    def test_subsecond_timestamps_untouched(self):
        pipeline = CleaningPipeline()
        cleaned, report = pipeline.run(
            [announce(100.25), announce(100.50)]
        )
        assert [obs.timestamp for obs in cleaned] == [100.25, 100.50]
        assert report.disambiguated_timestamps == 0

    def test_collectors_are_independent(self):
        other = SessionKey("route-views2", 20205, "10.0.0.1")
        pipeline = CleaningPipeline()
        cleaned, report = pipeline.run(
            [announce(100.0), announce(100.0, session=other)]
        )
        assert [obs.timestamp for obs in cleaned] == [100.0, 100.0]

    def test_disambiguation_can_be_disabled(self):
        pipeline = CleaningPipeline(disambiguate_same_second=False)
        cleaned, _ = pipeline.run([announce(100.0), announce(100.0)])
        assert [obs.timestamp for obs in cleaned] == [100.0, 100.0]


def dict_per_second_reference(observations, step=SAME_SECOND_STEP):
    """Disambiguation with unbounded state: one entry per (collector,
    whole second) ever seen."""
    last_by_second = {}
    times = []
    for observation in observations:
        timestamp = observation.timestamp
        if timestamp != int(timestamp):
            times.append(timestamp)
            continue
        key = (observation.session.collector, int(timestamp))
        previous = last_by_second.get(key)
        adjusted = timestamp if previous is None else previous + step
        last_by_second[key] = adjusted
        times.append(adjusted)
    return times


class TestDisambiguationState:
    COLLECTORS = ("rrc00", "rrc01", "route-views2")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(COLLECTORS),
                st.integers(0, 3),
                st.sampled_from((0.0, 0.0, 0.0, 0.25, 0.5)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_time_ordered_feed_matches_per_second_reference(self, steps):
        feed = []
        clock = 100
        for collector, advance, fraction in steps:
            clock += advance
            session = SessionKey(collector, 20205, "10.0.0.1")
            feed.append(announce(clock + fraction, session=session))
        cleaned, report = CleaningPipeline().run(feed)
        reference = dict_per_second_reference(feed)
        assert [obs.timestamp for obs in cleaned] == reference
        assert report.disambiguated_timestamps == sum(
            1
            for obs, t in zip(feed, reference)
            if obs.timestamp != t
        )

    def test_state_is_one_pair_per_collector(self):
        delivered = _ListSink()
        sink = CleaningPipeline().sink(delivered)
        templates = [
            announce(0.0, session=SessionKey(collector, 20205, "10.0.0.1"))
            for collector in self.COLLECTORS
        ]
        for second in range(10_000):
            for template in templates:
                observation = template.shifted(float(second))
                sink.push(observation)
                sink.push(observation)
        assert len(sink._last_by_collector) == len(self.COLLECTORS)
        assert len(delivered.items) == 2 * 10_000 * len(self.COLLECTORS)
        assert sink.report.disambiguated_timestamps == 10_000 * len(
            self.COLLECTORS
        )

    def test_feed_going_back_in_time_restarts_the_second(self):
        cleaned, report = CleaningPipeline().run(
            [announce(100.0), announce(100.0), announce(101.0),
             announce(100.0), announce(100.0)]
        )
        assert [obs.timestamp for obs in cleaned] == [
            100.0,
            100.0 + SAME_SECOND_STEP,
            101.0,
            100.0,
            100.0 + SAME_SECOND_STEP,
        ]
        assert report.disambiguated_timestamps == 2


class TestReport:
    def test_summary_mentions_counts(self):
        pipeline = CleaningPipeline()
        _, report = pipeline.run([announce(100.0), announce(100.0)])
        summary = report.summary()
        assert "2 ->" in summary.replace("cleaned ", "")
        assert "disambiguated 1" in summary
