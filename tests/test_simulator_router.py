"""Integration tests for the router pipeline on small topologies."""

import pytest

from repro.bgp import CommunitySet, UpdateMessage
from repro.bgp.community import Community, NO_EXPORT
from repro.netbase import Prefix
from repro.policy import (
    AddCommunity,
    PolicyChain,
    RoutingPolicy,
    StripAllCommunities,
)
from repro.simulator import Network
from repro.vendors import BIRD, CISCO_IOS, JUNOS

PREFIX = Prefix("203.0.113.0/24")


def two_as_chain(vendor=CISCO_IOS):
    """origin(65001) -> middle(65002) -> collector."""
    network = Network()
    origin = network.add_router("origin", 65001, vendor=vendor)
    middle = network.add_router("middle", 65002, vendor=vendor)
    collector = network.add_collector("rrc", 12456)
    network.connect(origin, middle)
    network.connect(middle, collector)
    return network, origin, middle, collector


class TestBasicPropagation:
    def test_origination_reaches_collector(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        announcements = [
            r for r in collector.records if r.message.is_announcement
        ]
        assert len(announcements) == 1
        attrs = announcements[0].message.attributes
        assert str(attrs.as_path) == "65002 65001"

    def test_withdrawal_propagates(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        origin.withdraw_origination(PREFIX)
        network.converge()
        withdrawals = [
            r for r in collector.records if r.message.is_withdrawal
        ]
        assert len(withdrawals) == 1
        assert middle.loc_rib.get(PREFIX) is None

    def test_next_hop_rewritten_at_each_ebgp_hop(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        session = collector.sessions[0]
        last = collector.records[-1]
        assert last.message.attributes.next_hop == session.peer_address(
            collector
        )

    def test_local_pref_not_leaked_over_ebgp(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        last = collector.records[-1]
        assert last.message.attributes.local_pref is None

    def test_med_stripped_on_ebgp_export_by_default(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX, med=50)
        network.converge()
        # origin -> middle carries the originated MED; middle resets it.
        assert middle.loc_rib.get(PREFIX).attributes.med == 50
        last = collector.records[-1]
        assert last.message.attributes.med is None

    def test_communities_propagate_transitively(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(
            PREFIX, communities=CommunitySet.parse("65001:777")
        )
        network.converge()
        last = collector.records[-1]
        assert Community.parse("65001:777") in last.message.attributes.communities

    def test_as_path_loop_rejected(self):
        network = Network()
        a = network.add_router("a", 65001)
        b = network.add_router("b", 65002)
        c = network.add_router("c", 65001)  # same AS as a
        network.connect(a, b)
        network.connect(b, c)
        a.originate(PREFIX)
        network.converge()
        # c must reject the route a->b->c because AS 65001 is in path.
        assert c.loc_rib.get(PREFIX) is None

    def test_transparent_router_does_not_prepend(self):
        network = Network()
        origin = network.add_router("origin", 65001)
        route_server = network.add_router(
            "rs", 65100, transparent=True
        )
        collector = network.add_collector("rrc", 12456)
        network.connect(origin, route_server)
        network.connect(route_server, collector)
        origin.originate(PREFIX)
        network.converge()
        last = collector.records[-1]
        assert str(last.message.attributes.as_path) == "65001"


class TestNoExportScoping:
    def test_originated_no_export_never_leaves_the_as(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(
            PREFIX, communities=CommunitySet((NO_EXPORT,))
        )
        network.converge()
        # NO_EXPORT blocks origin's own eBGP export already.
        assert middle.loc_rib.get(PREFIX) is None
        assert collector.message_count() == 0

    def test_no_export_added_at_import_stops_re_export(self):
        network, origin, middle, collector = two_as_chain()
        middle.set_policy(
            middle.sessions[0],
            RoutingPolicy(
                import_chain=PolicyChain(
                    (AddCommunity(str(NO_EXPORT)),)
                )
            ),
        )
        origin.originate(PREFIX)
        network.converge()
        # middle accepted and scoped the route; collector sees nothing.
        assert middle.loc_rib.get(PREFIX) is not None
        assert collector.message_count() == 0


class TestSessionChurn:
    def test_session_down_withdraws_routes(self):
        network, origin, middle, collector = two_as_chain()
        session = origin.sessions[0]
        origin.originate(PREFIX)
        network.converge()
        session.bring_down()
        network.converge()
        assert middle.loc_rib.get(PREFIX) is None
        assert collector.records[-1].message.is_withdrawal

    def test_session_up_resends_table(self):
        network, origin, middle, collector = two_as_chain()
        session = origin.sessions[0]
        origin.originate(PREFIX)
        network.converge()
        session.bring_down()
        network.converge()
        session.bring_up()
        network.converge()
        assert middle.loc_rib.get(PREFIX) is not None
        assert collector.records[-1].message.is_announcement

    def test_collector_reset_produces_nn_duplicates(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        collector_session = collector.sessions[0]
        collector_session.bring_down()
        network.converge()
        collector_session.bring_up()
        network.converge()
        announcements = [
            r.message.attributes
            for r in collector.records
            if r.message.is_announcement
        ]
        assert len(announcements) == 2
        assert announcements[0] == announcements[1]


class TestPolicyIntegration:
    def test_ingress_tagging_visible_downstream(self):
        network, origin, middle, collector = two_as_chain()
        middle.set_policy(
            middle.sessions[0],
            RoutingPolicy(
                import_chain=PolicyChain((AddCommunity("65002:300"),))
            ),
        )
        origin.originate(PREFIX)
        network.converge()
        last = collector.records[-1]
        assert Community.parse("65002:300") in last.message.attributes.communities

    def test_egress_cleaning_hides_communities(self):
        network, origin, middle, collector = two_as_chain()
        middle.set_policy(
            middle.sessions[1],
            RoutingPolicy(
                export_chain=PolicyChain((StripAllCommunities(),))
            ),
        )
        origin.originate(
            PREFIX, communities=CommunitySet.parse("65001:1")
        )
        network.converge()
        last = collector.records[-1]
        assert last.message.attributes.communities.is_empty()

    def test_import_reject_acts_as_withdraw(self):
        from repro.policy import RejectAll

        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        assert middle.loc_rib.get(PREFIX) is not None
        # Install a reject-all policy, then have origin re-announce.
        middle.set_policy(
            middle.sessions[0],
            RoutingPolicy(import_chain=PolicyChain((RejectAll(),))),
        )
        origin.originate(PREFIX, med=1)  # attribute change re-triggers
        network.converge()
        assert middle.loc_rib.get(PREFIX) is None

    def test_refresh_exports_after_policy_change(self):
        from repro.policy import PrependASN

        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        before = collector.message_count()
        export_session = middle.sessions[1]
        middle.set_policy(
            export_session,
            RoutingPolicy(export_chain=PolicyChain((PrependASN(2),))),
        )
        sent = middle.refresh_exports(export_session)
        network.converge()
        assert sent == 1
        last = collector.records[-1]
        assert str(last.message.attributes.as_path) == (
            "65002 65002 65002 65001"
        )

    def test_refresh_exports_without_change_is_silent(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        before = collector.message_count()
        assert middle.refresh_exports(middle.sessions[1]) == 0
        network.converge()
        assert collector.message_count() == before


class TestMRAI:
    def test_mrai_batches_rapid_changes(self):
        network = Network()
        origin = network.add_router("origin", 65001)
        middle = network.add_router("middle", 65002)
        collector = network.add_collector("rrc", 12456)
        network.connect(origin, middle)
        network.connect(middle, collector, mrai=30.0)
        origin.originate(PREFIX, communities=CommunitySet.parse("65001:1"))
        network.converge()
        baseline = collector.message_count()
        # Three rapid community changes within one MRAI window.
        for value in (2, 3, 4):
            origin.originate(
                PREFIX,
                communities=CommunitySet.parse(f"65001:{value}"),
            )
            network.run(until=network.clock.now + 1.0)
        network.converge()
        after = collector.message_count()
        # Without MRAI there would be 3 messages; pacing merges them.
        assert after - baseline < 3
        # Final state must still be the last announced community.
        last = collector.records[-1]
        assert Community.parse("65001:4") in last.message.attributes.communities

    def test_refresh_exports_counts_only_messages_on_the_wire(self):
        from repro.policy import SetMED

        network = Network()
        origin = network.add_router("origin", 65001)
        middle = network.add_router("middle", 65002)
        collector = network.add_collector("rrc", 12456)
        network.connect(origin, middle)
        export_session = network.connect(middle, collector, mrai=30.0)
        prefixes = [Prefix(f"203.0.{index}.0/24") for index in range(3)]
        for prefix in prefixes:
            origin.originate(prefix)
        network.converge()
        middle.set_policy(
            export_session,
            RoutingPolicy(export_chain=PolicyChain((SetMED(50),))),
        )
        # Inside the MRAI window: all three changes are held back.
        sent_before = middle.sent_updates
        assert middle.refresh_exports(export_session) == 0
        assert middle.sent_updates == sent_before
        # The MRAI timer then sends them, with the new MED.
        network.converge()
        assert middle.sent_updates == sent_before + 3
        assert all(
            record.message.attributes.med == 50
            for record in collector.records[-3:]
        )


class TestCollectorArchive:
    def test_mrt_dump_roundtrip(self):
        import io

        from repro.mrt import MRTReader

        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        data = collector.dump_mrt()
        records = list(MRTReader(io.BytesIO(data)))
        assert len(records) == collector.message_count()
        assert records[-1].message == collector.records[-1].message

    def test_clear(self):
        network, origin, middle, collector = two_as_chain()
        origin.originate(PREFIX)
        network.converge()
        assert collector.clear() > 0
        assert collector.message_count() == 0
