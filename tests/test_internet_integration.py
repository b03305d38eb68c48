"""Integration tests: the full synthetic internet end to end.

These run the small configuration once (module-scoped fixture) and make
qualitative assertions corresponding to the paper's findings.
"""

import pytest

from repro.analysis import (
    AnnouncementType,
    CleaningPipeline,
    CommunityExplorationDetector,
    build_table1,
    build_table2,
    classify_observations,
    group_into_streams,
    observations_from_collector,
)
from repro.analysis.revealed import revealed_communities
from repro.rib.route import RouteSource
from repro.workloads import InternetConfig, InternetModel


@pytest.fixture(scope="module")
def simulated_day():
    config = InternetConfig.small()
    return InternetModel(config).run()


@pytest.fixture(scope="module")
def observations(simulated_day):
    merged = []
    for collector in simulated_day.collectors():
        merged.extend(observations_from_collector(collector))
    merged.sort(key=lambda obs: obs.timestamp)
    return merged


class TestStructure:
    def test_collectors_heard_messages(self, simulated_day):
        assert simulated_day.total_collected_messages() > 100
        for collector in simulated_day.collectors():
            assert collector.message_count() > 0

    def test_network_quiesced(self, simulated_day):
        assert simulated_day.network.queue.pending == 0

    def test_beacons_were_scheduled(self, simulated_day):
        assert len(simulated_day.beacon_prefixes) == 2

    def test_practices_assigned_to_all_ases(self, simulated_day):
        assert set(simulated_day.practices) == set(
            simulated_day.topology.ases
        )


class TestGaoRexfordPreference:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known defect: Router._import_route runs the import chain and"
            " then replaces local_pref with None on every eBGP route,"
            " wiping the LOCAL_PREF RelationshipImportPolicy set; fixing"
            " it changes every pinned simulated digest"
        ),
    )
    def test_ebgp_routes_keep_relationship_local_pref(self, simulated_day):
        """Customer/peer/provider routes should carry LOCAL_PREF
        200/150/80 in the Loc-RIB after convergence."""
        ebgp_routes = [
            route
            for router in simulated_day.network.routers.values()
            for route in map(router.loc_rib.get, router.loc_rib.prefixes())
            if route.source == RouteSource.EBGP
        ]
        assert ebgp_routes
        assert all(
            route.attributes.local_pref in (200, 150, 80)
            for route in ebgp_routes
        )


class TestPaperFindings:
    def test_all_types_except_x_occur(self, observations):
        counts = classify_observations(observations)
        for kind in (
            AnnouncementType.PC,
            AnnouncementType.PN,
            AnnouncementType.NC,
            AnnouncementType.NN,
        ):
            assert counts.counts[kind] > 0, kind

    def test_no_path_change_types_are_substantial(self, observations):
        """Finding 1: announcements with no path change are common."""
        counts = classify_observations(observations)
        assert counts.no_path_change_share() > 0.2

    def test_prepend_types_are_rare(self, observations):
        counts = classify_observations(observations)
        prepend_share = counts.share(AnnouncementType.XC) + counts.share(
            AnnouncementType.XN
        )
        assert prepend_share < 0.05

    def test_communities_are_prevalent(self, observations):
        table1 = build_table1(observations)
        assert table1.community_share > 0.3

    def test_beacon_withdrawals_reveal_communities(
        self, simulated_day, observations
    ):
        """Finding 4: most community attributes surface in withdrawals."""
        beacons = set(simulated_day.beacon_prefixes)
        beacon_obs = [o for o in observations if o.prefix in beacons]
        result = revealed_communities(beacon_obs)
        assert result.total_unique > 0
        assert result.withdrawal_ratio > 0.3

    def test_community_exploration_detected(
        self, simulated_day, observations
    ):
        """Finding 2: geo-tagging produces exploration bursts."""
        beacons = set(simulated_day.beacon_prefixes)
        beacon_obs = [o for o in observations if o.prefix in beacons]
        events = CommunityExplorationDetector().detect(
            group_into_streams(beacon_obs)
        )
        assert events, "no exploration bursts detected"

    def test_sessions_show_diverse_type_mixes(self, observations):
        """Figure 3: different sessions see different distributions."""
        by_session = {}
        for observation in observations:
            by_session.setdefault(observation.session, []).append(
                observation
            )
        shares = []
        for session_obs in by_session.values():
            counts = classify_observations(session_obs)
            if counts.classified_total >= 20:
                shares.append(
                    round(counts.no_path_change_share(), 2)
                )
        assert len(set(shares)) > 1, "all sessions identical"


class TestCleaningIntegration:
    def test_bogons_are_dropped(self, simulated_day, observations):
        pipeline = CleaningPipeline(oracle=simulated_day.registry)
        cleaned, report = pipeline.run(observations)
        assert report.dropped_unallocated_prefix > 0
        assert len(cleaned) < len(observations)

    def test_route_server_paths_repaired(
        self, simulated_day, observations
    ):
        pipeline = CleaningPipeline(oracle=simulated_day.registry)
        cleaned, report = pipeline.run(observations)
        assert report.repaired_route_server_paths > 0
        # After repair, every announcement starts with its peer ASN.
        for observation in cleaned:
            if observation.is_announcement and observation.as_path:
                assert (
                    int(observation.as_path.first_asn)
                    == observation.session.peer_asn
                )

    def test_cleaning_is_idempotent(self, simulated_day, observations):
        pipeline = CleaningPipeline(oracle=simulated_day.registry)
        once, _ = pipeline.run(observations)
        twice, report = CleaningPipeline(
            oracle=simulated_day.registry
        ).run(once)
        assert len(twice) == len(once)
        assert report.repaired_route_server_paths == 0


class TestTableBuilders:
    def test_table1_consistency(self, observations):
        table1 = build_table1(observations)
        assert table1.announcements + table1.withdrawals == len(
            observations
        )
        assert table1.with_communities <= table1.announcements
        assert table1.peers <= table1.sessions
        assert table1.ipv4_prefixes > 0

    def test_table2_shares_sum_to_one(self, observations, simulated_day):
        table2 = build_table2(
            observations, set(simulated_day.beacon_prefixes)
        )
        assert table2.sanity_check()
        assert table2.beacon is not None
        assert table2.beacon.classified_total <= (
            table2.full.classified_total
        )

    def test_mrt_dump_reparses_identically(self, simulated_day):
        import io

        from repro.analysis import observations_from_mrt
        from repro.mrt import MRTReader

        collector = simulated_day.collectors()[0]
        direct = list(observations_from_collector(collector))
        data = collector.dump_mrt()
        records = MRTReader(io.BytesIO(data))
        reparsed = list(
            observations_from_mrt(records, collector.name)
        )
        assert len(reparsed) == len(direct)
        assert [o.prefix for o in reparsed] == [o.prefix for o in direct]
        assert [o.communities for o in reparsed] == [
            o.communities for o in direct
        ]
