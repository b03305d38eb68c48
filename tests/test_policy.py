"""Unit tests for the policy engine, filters, geo-tagging, actions."""

import pytest

from repro.bgp import ASPath, CommunitySet, PathAttributes
from repro.bgp.community import BLACKHOLE, Community, NO_ADVERTISE, NO_EXPORT
from repro.netbase import ASN, Prefix
from repro.policy import (
    AcceptAll,
    AddCommunity,
    BlackholePolicy,
    GeoLocation,
    GeoTagger,
    KeepOnlyOwnCommunities,
    PolicyChain,
    PrependASN,
    RejectAll,
    RoutingPolicy,
    SetLocalPref,
    SetMED,
    StripAllCommunities,
    StripCommunitiesMatching,
    StripCommunitiesOfASN,
    honor_no_export,
    is_blackhole,
)
from repro.policy.engine import PolicyContext
from repro.policy.filters import RejectPrefixes
from repro.policy.geo import GeoCommunityScheme, build_locations

CONTEXT = PolicyContext(
    local_asn=ASN(64500),
    prefix=Prefix("203.0.113.0/24"),
    ingress_point="frankfurt-1",
    is_ebgp=True,
)


def attrs(communities="3356:300 64501:20"):
    return PathAttributes(
        as_path=ASPath.from_string("64501 65099"),
        next_hop="10.0.0.1",
        communities=CommunitySet.parse(communities),
    )


class TestChains:
    def test_empty_chain_accepts(self):
        assert PolicyChain().apply(attrs(), CONTEXT) == attrs()

    def test_accept_all(self):
        assert AcceptAll().apply(attrs(), CONTEXT) == attrs()

    def test_reject_all_short_circuits(self):
        chain = PolicyChain((RejectAll(), AddCommunity("1:1")))
        assert chain.apply(attrs(), CONTEXT) is None

    def test_then_composes(self):
        chain = PolicyChain((StripAllCommunities(),)).then(
            AddCommunity("64500:1")
        )
        result = chain.apply(attrs(), CONTEXT)
        assert result.communities == CommunitySet.parse("64500:1")

    def test_rejects_non_steps(self):
        with pytest.raises(TypeError):
            PolicyChain(("not a step",))  # type: ignore[arg-type]

    def test_describe(self):
        chain = PolicyChain((StripAllCommunities(), AddCommunity("1:1")))
        assert "strip-all-communities" in chain.describe()
        assert PolicyChain().describe() == "accept"

    def test_routing_policy_permissive(self):
        policy = RoutingPolicy.permissive()
        assert policy.import_chain.apply(attrs(), CONTEXT) == attrs()
        assert "import: accept" in policy.describe()


class TestFilters:
    def test_strip_all(self):
        result = StripAllCommunities().apply(attrs(), CONTEXT)
        assert result.communities.is_empty()

    def test_strip_all_is_noop_when_empty(self):
        bare = attrs("")
        assert StripAllCommunities().apply(bare, CONTEXT) is bare

    def test_strip_of_asn(self):
        result = StripCommunitiesOfASN(3356).apply(attrs(), CONTEXT)
        assert result.communities == CommunitySet.parse("64501:20")

    def test_strip_matching(self):
        step = StripCommunitiesMatching(
            lambda c: c.local_value >= 100, "value>=100"
        )
        result = step.apply(attrs(), CONTEXT)
        assert result.communities == CommunitySet.parse("64501:20")

    def test_keep_only_own(self):
        own = attrs("64500:5 3356:300")
        result = KeepOnlyOwnCommunities().apply(own, CONTEXT)
        assert result.communities == CommunitySet.parse("64500:5")

    def test_add_community_from_strings(self):
        step = AddCommunity("64500:1", "64500:2:3")
        result = step.apply(attrs(""), CONTEXT)
        assert len(result.communities) == 2

    def test_add_community_rejects_empty(self):
        with pytest.raises(ValueError):
            AddCommunity()

    def test_add_community_noop_when_present(self):
        present = attrs("64500:1")
        assert AddCommunity("64500:1").apply(present, CONTEXT) is present

    def test_set_med(self):
        assert SetMED(42).apply(attrs(), CONTEXT).med == 42
        assert SetMED(None).apply(attrs(), CONTEXT).med is None

    def test_set_local_pref(self):
        assert SetLocalPref(200).apply(attrs(), CONTEXT).local_pref == 200

    def test_prepend(self):
        result = PrependASN(2).apply(attrs(), CONTEXT)
        assert result.as_path.asns()[:2] == (ASN(64500), ASN(64500))

    def test_prepend_rejects_zero(self):
        with pytest.raises(ValueError):
            PrependASN(0)

    def test_reject_prefixes(self):
        step = RejectPrefixes([Prefix("203.0.113.0/24")])
        assert step.apply(attrs(), CONTEXT) is None
        other = PolicyContext(
            local_asn=ASN(64500),
            prefix=Prefix("10.0.0.0/8"),
        )
        assert step.apply(attrs(), other) is not None


class TestGeo:
    def test_scheme_bands(self):
        scheme = GeoCommunityScheme(3356)
        tags = scheme.communities_for(
            GeoLocation("europe", "DE", "Frankfurt")
        )
        granularities = sorted(
            scheme.granularity_of(tag) for tag in tags.classic
        )
        assert granularities == ["city", "continent", "country"]

    def test_scheme_ignores_foreign_communities(self):
        scheme = GeoCommunityScheme(3356)
        assert scheme.granularity_of(Community.parse("174:300")) is None

    def test_scheme_is_stable_per_city(self):
        scheme = GeoCommunityScheme(3356)
        first = scheme.communities_for(GeoLocation("europe", "DE", "Berlin"))
        second = scheme.communities_for(GeoLocation("europe", "DE", "Berlin"))
        assert first == second

    def test_different_cities_get_different_tags(self):
        scheme = GeoCommunityScheme(3356)
        berlin = scheme.communities_for(GeoLocation("europe", "DE", "Berlin"))
        dallas = scheme.communities_for(
            GeoLocation("north-america", "US", "Dallas")
        )
        assert berlin != dallas

    def test_location_validates_continent(self):
        with pytest.raises(ValueError):
            GeoLocation("atlantis", "XX", "Nowhere")

    def test_tagger_tags_known_ingress(self):
        tagger = GeoTagger(
            3356,
            build_locations([("frankfurt-1", "europe", "DE", "Frankfurt")]),
        )
        result = tagger.apply(attrs(""), CONTEXT)
        assert len(result.communities) == 3
        assert all(c.asn == 3356 for c in result.communities.classic)

    def test_tagger_passes_unknown_ingress(self):
        tagger = GeoTagger(
            3356,
            build_locations([("vienna-1", "europe", "AT", "Vienna")]),
        )
        bare = attrs("")
        assert tagger.apply(bare, CONTEXT) is bare  # frankfurt-1 unknown

    def test_tagger_replaces_own_stale_tags(self):
        tagger = GeoTagger(
            3356,
            build_locations(
                [
                    ("frankfurt-1", "europe", "DE", "Frankfurt"),
                    ("dallas-1", "north-america", "US", "Dallas"),
                ]
            ),
        )
        tagged_frankfurt = tagger.apply(attrs(""), CONTEXT)
        dallas_context = PolicyContext(
            local_asn=ASN(64500),
            prefix=Prefix("203.0.113.0/24"),
            ingress_point="dallas-1",
        )
        retagged = tagger.apply(tagged_frankfurt, dallas_context)
        # Still exactly 3 tags: the Frankfurt set was replaced.
        assert len(retagged.communities) == 3
        assert retagged.communities != tagged_frankfurt.communities

    def test_tagger_preserves_foreign_tags(self):
        tagger = GeoTagger(
            3356,
            build_locations([("frankfurt-1", "europe", "DE", "Frankfurt")]),
        )
        result = tagger.apply(attrs("174:9"), CONTEXT)
        assert Community.parse("174:9") in result.communities

    def test_tagger_introspection(self):
        tagger = GeoTagger(
            3356,
            build_locations([("frankfurt-1", "europe", "DE", "Frankfurt")]),
        )
        assert tagger.ingress_points == ["frankfurt-1"]
        assert tagger.location_of("frankfurt-1").city == "Frankfurt"


class TestActions:
    def test_no_export_blocks_ebgp_only(self):
        scoped = attrs("").replace(
            communities=CommunitySet((NO_EXPORT,))
        )
        assert not honor_no_export(scoped, is_ebgp=True)
        assert honor_no_export(scoped, is_ebgp=False)

    def test_no_advertise_blocks_everything(self):
        scoped = attrs("").replace(
            communities=CommunitySet((NO_ADVERTISE,))
        )
        assert not honor_no_export(scoped, is_ebgp=True)
        assert not honor_no_export(scoped, is_ebgp=False)

    def test_plain_routes_pass(self):
        assert honor_no_export(attrs(), is_ebgp=True)

    def test_is_blackhole(self):
        assert is_blackhole(
            attrs("").replace(communities=CommunitySet((BLACKHOLE,)))
        )
        assert not is_blackhole(attrs())

    def test_blackhole_policy_raises_pref_and_scopes(self):
        policy = BlackholePolicy()
        held = attrs("").replace(communities=CommunitySet((BLACKHOLE,)))
        result = policy.apply(held, CONTEXT)
        assert result.local_pref == 10_000
        assert NO_EXPORT in result.communities

    def test_blackhole_policy_ignores_normal_routes(self):
        normal = attrs()
        assert BlackholePolicy().apply(normal, CONTEXT) is normal
