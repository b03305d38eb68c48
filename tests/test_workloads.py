"""Unit tests for workload generation (registry, topology, practices)."""

import pytest

from repro.bgp import ASPath, CommunitySet, PathAttributes
from repro.netbase import ASN, Prefix
from repro.policy.engine import PolicyContext
from repro.workloads import (
    AllocationRegistry,
    ASRole,
    GaoRexfordExportFilter,
    Relationship,
    RelationshipImportPolicy,
    REL_CUSTOMER,
    REL_PEER,
    REL_PROVIDER,
    ScrubInternalTags,
    TopologyParams,
    generate_topology,
)
from repro.workloads.practices import CommunityPractice
from repro.bgp.community import Community

CONTEXT = PolicyContext(
    local_asn=ASN(64500),
    prefix=Prefix("203.0.113.0/24"),
)


def attrs(communities=""):
    return PathAttributes(
        as_path=ASPath.from_string("64501 65099"),
        next_hop="10.0.0.1",
        communities=CommunitySet.parse(communities),
    )


class TestRegistry:
    def test_asn_allocation_with_date(self):
        registry = AllocationRegistry()
        registry.allocate_asn(65001, at=100.0)
        assert registry.asn_allocated(65001, 150.0)
        assert not registry.asn_allocated(65001, 50.0)
        assert not registry.asn_allocated(65002, 150.0)

    def test_earlier_allocation_wins(self):
        registry = AllocationRegistry()
        registry.allocate_asn(65001, at=100.0)
        registry.allocate_asn(65001, at=50.0)
        assert registry.asn_allocated(65001, 75.0)

    def test_prefix_covering_block(self):
        registry = AllocationRegistry()
        registry.allocate_prefix("84.205.64.0/19", at=10.0)
        assert registry.prefix_allocated(Prefix("84.205.64.0/24"), 20.0)
        assert not registry.prefix_allocated(Prefix("84.205.64.0/24"), 5.0)
        assert not registry.prefix_allocated(Prefix("10.0.0.0/8"), 20.0)

    def test_prefix_versions_are_separate(self):
        registry = AllocationRegistry()
        registry.allocate_prefix("2001:db8::/32")
        assert registry.prefix_allocated(Prefix("2001:db8::/48"), 1.0)
        assert not registry.prefix_allocated(Prefix("10.0.0.0/8"), 1.0)

    def test_bulk_and_introspection(self):
        registry = AllocationRegistry()
        registry.allocate_all([1, 2], [Prefix("10.0.0.0/8")], at=0.0)
        assert registry.asn_count() == 2
        assert registry.prefix_block_count() == 1
        assert len(registry.records()) == 3


class TestTopologyGeneration:
    def setup_method(self):
        self.params = TopologyParams(
            tier1_count=3, transit_count=6, stub_count=15, seed=42
        )
        self.topology = generate_topology(self.params)

    def test_as_counts(self):
        assert len(self.topology.ases_by_role(ASRole.TIER1)) == 3
        assert len(self.topology.ases_by_role(ASRole.TRANSIT)) == 6
        assert len(self.topology.ases_by_role(ASRole.STUB)) == 15

    def test_deterministic_from_seed(self):
        again = generate_topology(self.params)
        assert sorted(again.ases) == sorted(self.topology.ases)
        assert again.session_count() == self.topology.session_count()

    def test_different_seeds_differ(self):
        other = generate_topology(
            TopologyParams(
                tier1_count=3, transit_count=6, stub_count=15, seed=43
            )
        )
        assert (
            sorted(other.ases) != sorted(self.topology.ases)
            or other.session_count() != self.topology.session_count()
        )

    def test_tier1_clique(self):
        tier1_asns = {
            spec.asn for spec in self.topology.ases_by_role(ASRole.TIER1)
        }
        clique_adjacencies = [
            adj
            for adj in self.topology.adjacencies
            if adj.asn_a in tier1_asns and adj.asn_b in tier1_asns
        ]
        expected_pairs = len(tier1_asns) * (len(tier1_asns) - 1) // 2
        assert len(clique_adjacencies) == expected_pairs
        assert all(
            adj.relationship == Relationship.PEER
            for adj in clique_adjacencies
        )

    def test_every_as_is_connected(self):
        for asn in self.topology.ases:
            assert self.topology.degree(asn) >= 1

    def test_stubs_never_provide_transit(self):
        stub_asns = {
            spec.asn for spec in self.topology.ases_by_role(ASRole.STUB)
        }
        for adj in self.topology.adjacencies:
            if adj.asn_a in stub_asns:
                assert adj.relationship == Relationship.PROVIDER
            # Stubs are never the B side of topologies we generate.
            assert adj.asn_b not in stub_asns or adj.asn_a not in stub_asns

    def test_parallel_links_have_distinct_cities(self):
        for adj in self.topology.adjacencies:
            names = [city.city for city in adj.cities]
            assert len(names) == len(set(names))
            assert adj.link_count >= 1

    def test_prefixes_are_unique(self):
        prefixes = self.topology.all_prefixes()
        assert len(prefixes) == len(set(prefixes))
        assert prefixes  # at least some

    def test_session_count_includes_parallel(self):
        assert (
            self.topology.session_count()
            >= self.topology.adjacency_count()
        )

    def test_relationship_inverse(self):
        assert Relationship.CUSTOMER.inverse() == Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse() == Relationship.CUSTOMER
        assert Relationship.PEER.inverse() == Relationship.PEER


class TestGaoRexfordPolicies:
    def test_import_sets_local_pref_and_tag(self):
        step = RelationshipImportPolicy(64500, Relationship.CUSTOMER)
        result = step.apply(attrs(), CONTEXT)
        assert result.local_pref == 200
        assert Community.of(64500, REL_CUSTOMER) in result.communities

    def test_import_prefers_customer_over_peer_over_provider(self):
        prefs = {
            rel: RelationshipImportPolicy(64500, rel)
            .apply(attrs(), CONTEXT)
            .local_pref
            for rel in Relationship
        }
        assert (
            prefs[Relationship.CUSTOMER]
            > prefs[Relationship.PEER]
            > prefs[Relationship.PROVIDER]
        )

    def test_import_replaces_stale_own_tag(self):
        stale = attrs(f"64500:{REL_PROVIDER}")
        result = RelationshipImportPolicy(
            64500, Relationship.CUSTOMER
        ).apply(stale, CONTEXT)
        assert Community.of(64500, REL_PROVIDER) not in result.communities
        assert Community.of(64500, REL_CUSTOMER) in result.communities

    def test_export_to_customer_sends_everything(self):
        step = GaoRexfordExportFilter(64500, Relationship.CUSTOMER)
        tagged = attrs(f"64500:{REL_PROVIDER}")
        assert step.apply(tagged, CONTEXT) is tagged

    def test_export_to_peer_blocks_peer_and_provider_routes(self):
        step = GaoRexfordExportFilter(64500, Relationship.PEER)
        assert step.apply(attrs(f"64500:{REL_PEER}"), CONTEXT) is None
        assert step.apply(attrs(f"64500:{REL_PROVIDER}"), CONTEXT) is None

    def test_export_to_provider_allows_customer_routes(self):
        step = GaoRexfordExportFilter(64500, Relationship.PROVIDER)
        customer_route = attrs(f"64500:{REL_CUSTOMER}")
        assert step.apply(customer_route, CONTEXT) is customer_route

    def test_export_allows_own_originations(self):
        step = GaoRexfordExportFilter(64500, Relationship.PEER)
        own = attrs("")  # no relationship tag: locally originated
        assert step.apply(own, CONTEXT) is own

    def test_foreign_tags_do_not_trigger_filter(self):
        step = GaoRexfordExportFilter(64500, Relationship.PEER)
        foreign = attrs(f"64999:{REL_PROVIDER}")
        assert step.apply(foreign, CONTEXT) is foreign

    def test_scrub_removes_only_own_tags(self):
        scrub = ScrubInternalTags(64500)
        mixed = attrs(
            f"64500:{REL_CUSTOMER} 64999:{REL_PEER} 3356:300"
        )
        result = scrub.apply(mixed, CONTEXT)
        assert Community.of(64500, REL_CUSTOMER) not in result.communities
        assert Community.of(64999, REL_PEER) in result.communities
        assert Community.parse("3356:300") in result.communities

    def test_scrub_noop_when_clean(self):
        scrub = ScrubInternalTags(64500)
        clean = attrs("3356:300")
        assert scrub.apply(clean, CONTEXT) is clean

    def test_practice_enum_values(self):
        assert CommunityPractice.TAGGER.value == "tagger"
        assert len(CommunityPractice) == 4
