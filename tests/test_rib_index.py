"""Unit tests for the cross-session adjacency index and LocRIB.update."""

from repro.bgp.attributes import PathAttributes
from repro.bgp.aspath import ASPath
from repro.netbase import ASN, Prefix
from repro.rib.adj_rib import AdjacencyIndex, AdjRIBIn
from repro.rib.loc_rib import LocRIB
from repro.rib.route import Route, RouteSource

PREFIX = Prefix("203.0.113.0/24")
OTHER = Prefix("198.51.100.0/24")


def route(prefix=PREFIX, *, peer_id="192.0.2.1", med=None):
    return Route(
        prefix,
        PathAttributes(as_path=ASPath.from_asns((65010,)), med=med),
        source=RouteSource.EBGP,
        peer_id=peer_id,
    )


class TestAdjacencyIndex:
    def setup_method(self):
        self.index = AdjacencyIndex()
        self.rib_a = AdjRIBIn(1, self.index)
        self.rib_b = AdjRIBIn(2, self.index)

    def test_install_is_mirrored(self):
        self.rib_a.install(route(peer_id="a"))
        self.rib_b.install(route(peer_id="b"))
        candidates = self.index.candidates(PREFIX)
        assert [key for key, _ in candidates] == [1, 2]
        assert [r.peer_id for _, r in candidates] == ["a", "b"]

    def test_candidates_sorted_by_key_regardless_of_install_order(self):
        self.rib_b.install(route(peer_id="b"))
        self.rib_a.install(route(peer_id="a"))
        assert [key for key, _ in self.index.candidates(PREFIX)] == [1, 2]

    def test_reinstall_replaces_entry(self):
        self.rib_a.install(route(med=None))
        self.rib_a.install(route(med=50))
        candidates = self.index.candidates(PREFIX)
        assert len(candidates) == 1
        assert candidates[0][1].attributes.med == 50

    def test_withdraw_is_mirrored(self):
        self.rib_a.install(route())
        self.rib_b.install(route())
        self.rib_a.withdraw(PREFIX)
        assert [key for key, _ in self.index.candidates(PREFIX)] == [2]
        self.rib_b.withdraw(PREFIX)
        assert self.index.candidates(PREFIX) == []
        assert len(self.index) == 0

    def test_withdraw_of_absent_prefix_is_noop(self):
        assert self.rib_a.withdraw(PREFIX) is None
        assert self.index.candidates(PREFIX) == []

    def test_clear_removes_only_that_session(self):
        self.rib_a.install(route())
        self.rib_a.install(route(OTHER))
        self.rib_b.install(route())
        assert self.rib_a.clear() == [PREFIX, OTHER]
        assert [key for key, _ in self.index.candidates(PREFIX)] == [2]
        assert self.index.candidates(OTHER) == []

    def test_prefixes_snapshot(self):
        self.rib_a.install(route())
        self.rib_b.install(route(OTHER))
        assert sorted(self.index.prefixes()) == sorted([PREFIX, OTHER])

    def test_unindexed_rib_still_works(self):
        plain = AdjRIBIn()
        plain.install(route())
        assert plain.get(PREFIX) is not None
        assert plain.withdraw(PREFIX) is not None


class TestLocRIBUpdate:
    def setup_method(self):
        self.rib = LocRIB()

    def test_first_install_reports_changed(self):
        changed, previous = self.rib.update(route())
        assert changed and previous is None
        assert self.rib.get(PREFIX) is not None

    def test_equal_route_is_not_reinstalled(self):
        first = route()
        self.rib.update(first)
        changed, previous = self.rib.update(route())
        assert not changed
        assert previous is first
        # The original instance stays installed.
        assert self.rib.get(PREFIX) is first

    def test_different_route_replaces(self):
        self.rib.update(route(med=None))
        changed, previous = self.rib.update(route(med=10))
        assert changed
        assert previous is not None
        assert self.rib.get(PREFIX).attributes.med == 10


class TestLearnedRoute:
    def test_learned_matches_the_constructor(self):
        attributes = PathAttributes(as_path=ASPath.from_asns((65010,)))
        fields = dict(
            source=RouteSource.EBGP,
            peer_id="192.0.2.1",
            peer_asn=ASN(65010),
            peer_address="10.0.0.1",
            igp_cost=5,
            learned_at=12.5,
        )
        learned = Route.learned(PREFIX, attributes, *fields.values())
        built = Route(PREFIX, attributes, **fields)
        assert learned == built and hash(learned) == hash(built)
        for name in ("prefix", "attributes", *fields, "rank", "neighbor_asn"):
            assert getattr(learned, name) == getattr(built, name)
