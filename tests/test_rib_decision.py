"""Unit + property tests for the decision process and RIBs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp import ASPath, Origin, PathAttributes
from repro.netbase import Prefix
from repro.rib import (
    AdjRIBIn,
    AdjRIBOut,
    DecisionConfig,
    DecisionProcess,
    LocRIB,
    Route,
    RouteSource,
)

PREFIX = Prefix("203.0.113.0/24")


def route(
    path="65001 65099",
    *,
    source=RouteSource.EBGP,
    local_pref=None,
    med=None,
    origin=Origin.IGP,
    peer_id="192.0.2.1",
    peer_address="10.0.0.1",
    igp_cost=0,
    learned_at=0.0,
    prefix=PREFIX,
):
    attributes = PathAttributes(
        as_path=ASPath.from_string(path),
        origin=origin,
        local_pref=local_pref,
        med=med,
        next_hop="10.0.0.1",
    )
    return Route(
        prefix,
        attributes,
        source=source,
        peer_id=peer_id,
        peer_asn=65001,
        peer_address=peer_address,
        igp_cost=igp_cost,
        learned_at=learned_at,
    )


class TestDecisionSteps:
    def setup_method(self):
        self.decide = DecisionProcess().select

    def test_empty_pool_returns_none(self):
        assert self.decide([]) is None
        assert self.decide([None]) is None

    def test_single_candidate_wins(self):
        only = route()
        assert self.decide([only]) is only

    def test_local_pref_beats_path_length(self):
        longer = route("65001 65002 65099", local_pref=200)
        shorter = route("65001 65099", local_pref=100, peer_id="192.0.2.2")
        assert self.decide([longer, shorter]) is longer

    def test_default_local_pref_is_100(self):
        explicit = route(local_pref=99)
        implicit = route(peer_id="192.0.2.2")  # absent -> 100
        assert self.decide([explicit, implicit]) is implicit

    def test_shorter_path_wins(self):
        short = route("65001 65099")
        long = route("65001 65002 65099", peer_id="192.0.2.2")
        assert self.decide([short, long]) is short

    def test_as_set_counts_one_hop(self):
        with_set = route("65001 {65002,65003} 65099")  # length 3
        plain = route("65001 65002 65099", peer_id="192.0.2.2")  # length 3
        # Tie on length; router-id step decides (lower peer_id).
        winner = self.decide([with_set, plain])
        assert winner is with_set

    def test_origin_preference(self):
        igp = route(origin=Origin.IGP)
        incomplete = route(origin=Origin.INCOMPLETE, peer_id="192.0.2.0")
        assert self.decide([igp, incomplete]) is igp

    def test_med_compared_within_same_neighbor_as(self):
        low_med = route(med=10)
        high_med = route(med=50, peer_id="192.0.2.0")
        assert self.decide([low_med, high_med]) is low_med

    def test_med_ignored_across_neighbor_ases_by_default(self):
        from_as1 = route("65001 65099", med=50)
        from_as2 = route("65002 65099", med=10, peer_id="192.0.2.2")
        # Different neighbor AS: MED skipped, router-id decides.
        assert self.decide([from_as1, from_as2]) is from_as1

    def test_always_compare_med(self):
        decide = DecisionProcess(
            DecisionConfig(always_compare_med=True)
        ).select
        from_as1 = route("65001 65099", med=50)
        from_as2 = route("65002 65099", med=10, peer_id="192.0.2.2")
        assert decide([from_as1, from_as2]) is from_as2

    def test_missing_med_treated_as_zero(self):
        absent = route()
        present = route(med=5, peer_id="192.0.2.0")
        assert self.decide([absent, present]) is absent

    def test_ebgp_beats_ibgp(self):
        external = route(source=RouteSource.EBGP)
        internal = route(source=RouteSource.IBGP, peer_id="192.0.2.0")
        assert self.decide([external, internal]) is external

    def test_local_beats_ebgp(self):
        local = route(source=RouteSource.LOCAL, peer_id=None)
        external = route()
        assert self.decide([local, external]) is local

    def test_igp_cost_hot_potato(self):
        near = route(source=RouteSource.IBGP, igp_cost=5)
        far = route(
            source=RouteSource.IBGP, igp_cost=50, peer_id="192.0.2.0"
        )
        assert self.decide([near, far]) is near

    def test_local_beats_ebgp_beats_ibgp_on_a_four_step_tie(self):
        # Equal rank and MED: step 5 orders LOCAL < EBGP < IBGP, ahead
        # of the lower IGP cost, router ID and address of the others.
        internal = route(
            source=RouteSource.IBGP, peer_id="192.0.2.1",
            peer_address="10.0.0.1",
        )
        external = route(peer_id="192.0.2.2", peer_address="10.0.0.2")
        local = route(
            source=RouteSource.LOCAL, peer_id="192.0.2.3",
            peer_address="10.0.0.3", igp_cost=9,
        )
        for pool in (
            [internal, external, local],
            [local, external, internal],
            [external, internal, local],
        ):
            assert self.decide(pool) is local
        assert self.decide([internal, external]) is external

    def test_router_id_decides_an_igp_cost_tie_before_address(self):
        # Two eBGP routes tie through IGP cost; the lower router ID wins
        # even though the other route, listed first, has the lower
        # session address.
        low_address = route(
            peer_id="192.0.2.9", peer_address="10.0.0.1", igp_cost=4
        )
        low_router_id = route(
            peer_id="192.0.2.2", peer_address="10.0.0.8", igp_cost=4
        )
        assert self.decide([low_address, low_router_id]) is low_router_id

    def test_router_id_tiebreak(self):
        low = route(peer_id="192.0.2.1", peer_address="10.0.0.9")
        high = route(peer_id="192.0.2.2", peer_address="10.0.0.1")
        assert self.decide([low, high]) is low

    def test_peer_address_final_tiebreak(self):
        first = route(peer_address="10.0.0.1")
        second = route(peer_address="10.0.0.2")
        assert self.decide([first, second]) is first

    def test_prefer_oldest(self):
        decide = DecisionProcess(DecisionConfig(prefer_oldest=True)).select
        old = route(learned_at=1.0, peer_id="192.0.2.9")
        new = route(learned_at=2.0, peer_id="192.0.2.1")
        assert decide([old, new]) is old

    def test_rejects_mixed_prefixes(self):
        with pytest.raises(ValueError):
            self.decide(
                [route(), route(prefix=Prefix("10.0.0.0/8"))]
            )


class TestDeterminism:
    paths = st.lists(
        st.integers(min_value=1, max_value=65000), min_size=1, max_size=5
    )

    @given(
        st.lists(
            st.tuples(
                paths,
                st.integers(min_value=0, max_value=3),  # igp cost
                st.integers(min_value=1, max_value=250),  # router id suffix
                st.sampled_from([None, 50, 100, 200]),  # local pref
            ),
            min_size=1,
            max_size=6,
            # One route per peer: a router holds at most one route per
            # prefix per session, so peer addresses are unique.
            unique_by=lambda spec: spec[2],
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_selection_is_order_independent(self, specs):
        candidates = [
            route(
                " ".join(str(asn) for asn in path),
                igp_cost=cost,
                peer_id=f"192.0.2.{rid}",
                peer_address=f"10.0.1.{rid}",
                local_pref=pref,
            )
            for path, cost, rid, pref in specs
        ]
        decide = DecisionProcess().select
        forward = decide(list(candidates))
        backward = decide(list(reversed(candidates)))
        assert forward.peer_address == backward.peer_address
        assert forward.attributes == backward.attributes

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_winner_is_in_pool(self, data):
        pool = [
            route(peer_id=f"192.0.2.{i}", peer_address=f"10.0.1.{i}")
            for i in range(1, data.draw(st.integers(2, 6)))
        ]
        assert DecisionProcess().select(pool) in pool


class TestRIBs:
    def test_adj_rib_in_install_withdraw(self):
        rib = AdjRIBIn()
        first = route()
        assert rib.install(first) is None
        assert rib.get(PREFIX) is first
        replaced = rib.install(route("65001 65002 65099"))
        assert replaced is first
        assert rib.withdraw(PREFIX) is not None
        assert rib.withdraw(PREFIX) is None
        assert len(rib) == 0

    def test_adj_rib_in_clear(self):
        rib = AdjRIBIn()
        rib.install(route())
        rib.install(route(prefix=Prefix("10.0.0.0/8")))
        cleared = rib.clear()
        assert len(cleared) == 2
        assert len(rib) == 0

    def test_adj_rib_in_iteration(self):
        rib = AdjRIBIn()
        rib.install(route())
        assert [r.prefix for r in rib] == [PREFIX]
        assert PREFIX in rib
        assert rib.prefixes() == [PREFIX]

    def test_adj_rib_out_tracks_advertisements(self):
        rib = AdjRIBOut()
        attrs = route().attributes
        assert not rib.is_advertised(PREFIX)
        rib.record_advertisement(PREFIX, attrs)
        assert rib.is_advertised(PREFIX)
        assert rib.last_advertised(PREFIX) == attrs
        assert rib.record_withdrawal(PREFIX)
        assert not rib.record_withdrawal(PREFIX)
        assert rib.last_advertised(PREFIX) is None

    def test_adj_rib_out_clear(self):
        rib = AdjRIBOut()
        rib.record_advertisement(PREFIX, route().attributes)
        assert rib.clear() == [PREFIX]
        assert len(rib) == 0

    def test_loc_rib(self):
        loc = LocRIB()
        best = route()
        assert loc.update(best) == (True, None)
        assert loc.get(PREFIX) is best
        assert PREFIX in loc
        assert loc.remove(PREFIX) is best
        assert loc.get(PREFIX) is None
        assert len(loc) == 0
