"""Reference oracles for best-path selection.

Two references, both kept here and only here:

* :func:`reference_select` is the decision process written straight
  from the eight steps in :mod:`repro.rib.decision`'s docstring, as
  plain elimination rounds.  ``DecisionProcess.select`` must pick the
  very same route on random candidate pools.
* :func:`full_scan_best` is the Loc-RIB a router must hold: ``select``
  over a scan of every established session's Adj-RIB-In plus the local
  route.  ``Router._reconsider`` decides incrementally (see its
  docstring); after every call its Loc-RIB must equal the full scan,
  and the collectors must record exactly what a run that runs the full
  decision every time records.
"""

import dataclasses
import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp import ASPath, Origin, PathAttributes
from repro.bgp.aspath import PathSegment, SegmentType
from repro.netbase import Prefix
from repro.rib import DecisionConfig, DecisionProcess, Route, RouteSource
from repro.scenarios.engine import internet_config_from_spec
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import LabSpec
from repro.simulator.experiments import LabTopology
from repro.simulator.router import Router
from repro.simulator.session import BGPSession
from repro.vendors.profiles import profile_by_name
from repro.workloads import InternetModel

PREFIX = Prefix("203.0.113.0/24")
#: The decision process as shipped, for the oracle's own decisions.
SELECT = DecisionProcess.select


# ----------------------------------------------------------------------
# the decision process, step by step
# ----------------------------------------------------------------------
def keep_lowest(pool, key):
    """One elimination round: keep the routes with the lowest *key*."""
    best = min(key(route) for route in pool)
    return [route for route in pool if key(route) == best]


def local_pref(route):
    value = route.attributes.local_pref
    return 100 if value is None else value


def path_length(route):
    return sum(
        1 if segment.kind == SegmentType.AS_SET else len(segment.asns)
        for segment in route.attributes.as_path.segments
    )


def med(route):
    value = route.attributes.med
    return 0 if value is None else value


def neighbor(route):
    for segment in route.attributes.as_path.segments:
        return segment.asns[0]
    return None


def med_round(pool, config):
    """Step 4: without ``always_compare_med``, a route falls only to a
    rival from the same neighbor AS with a strictly lower MED."""
    if config.always_compare_med:
        return keep_lowest(pool, med)
    return [
        route
        for route in pool
        if not any(
            neighbor(route) is not None
            and neighbor(rival) == neighbor(route)
            and med(rival) < med(route)
            for rival in pool
        )
    ]


SOURCE_ORDER = {RouteSource.LOCAL: 0, RouteSource.EBGP: 1, RouteSource.IBGP: 2}


def address_key(text):
    if text is None:
        return (0, 0)
    parsed = ipaddress.ip_address(text)
    return (parsed.version, int(parsed))


def reference_select(candidates, config):
    pool = [route for route in candidates if route is not None]
    if not pool:
        return None
    pool = keep_lowest(pool, lambda route: -local_pref(route))  # 1
    pool = keep_lowest(pool, path_length)  # 2
    pool = keep_lowest(pool, lambda route: route.attributes.origin)  # 3
    pool = med_round(pool, config)  # 4
    pool = keep_lowest(pool, lambda route: SOURCE_ORDER[route.source])  # 5
    pool = keep_lowest(pool, lambda route: route.igp_cost)  # 6
    if config.prefer_oldest:
        pool = keep_lowest(pool, lambda route: route.learned_at)  # 7
    pool = keep_lowest(pool, lambda route: address_key(route.peer_id))  # 7
    pool = keep_lowest(pool, lambda route: address_key(route.peer_address))
    return pool[0]  # 8: peer addresses are unique, one route is left


# A few neighbor ASes, so MEDs meet both same- and cross-neighbor rivals.
NEIGHBORS = st.sampled_from([65001, 65002, 65003])
SEGMENT = st.one_of(
    st.builds(
        PathSegment,
        st.just(SegmentType.AS_SEQUENCE),
        st.lists(NEIGHBORS, min_size=1, max_size=3),
    ),
    st.builds(
        PathSegment,
        st.just(SegmentType.AS_SET),
        st.lists(st.integers(64512, 64520), min_size=1, max_size=3),
    ),
)
ATTRIBUTES = st.builds(
    lambda segments, origin, local_pref, med: PathAttributes(
        as_path=ASPath(segments),
        origin=origin,
        local_pref=local_pref,
        med=med,
        next_hop="10.0.0.1",
    ),
    st.lists(SEGMENT, max_size=3),
    st.sampled_from(list(Origin)),
    st.sampled_from([None, 50, 100, 200]),
    st.sampled_from([None, 0, 5, 10]),
)
LEARNED = st.tuples(
    ATTRIBUTES,
    st.sampled_from([RouteSource.EBGP, RouteSource.IBGP]),
    st.integers(0, 2),  # IGP cost
    st.sampled_from(["192.0.2.1", "192.0.2.2", "198.51.100.7"]),  # router id
    st.integers(0, 3),  # learned at
)
#: One route per session, so peer addresses are unique in a pool.
PEER_ADDRESSES = st.sampled_from(
    ["10.0.0.1", "10.0.0.2", "10.0.1.1", "2001:db8::1", "2001:db8::2"]
)


@st.composite
def pools(draw):
    learned = draw(st.lists(LEARNED, max_size=5))
    addresses = draw(
        st.lists(
            PEER_ADDRESSES,
            min_size=len(learned),
            max_size=len(learned),
            unique=True,
        )
    )
    pool = [
        Route(
            PREFIX,
            attributes,
            source=source,
            peer_id=router_id,
            peer_asn=65001,
            peer_address=address,
            igp_cost=igp_cost,
            learned_at=learned_at,
        )
        for (attributes, source, igp_cost, router_id, learned_at), address
        in zip(learned, addresses)
    ]
    if draw(st.booleans()):
        # A locally originated route: no peer, drawn attributes.
        local = Route(
            PREFIX,
            draw(ATTRIBUTES),
            learned_at=draw(st.integers(0, 3)),
        )
        pool.insert(draw(st.integers(0, len(pool))), local)
    return pool


class TestReferenceSelect:
    @given(pools(), st.booleans(), st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_select_matches_the_eight_steps(
        self, pool, always_compare_med, prefer_oldest
    ):
        config = DecisionConfig(
            always_compare_med=always_compare_med,
            prefer_oldest=prefer_oldest,
        )
        assert DecisionProcess(config).select(pool) is reference_select(
            pool, config
        )

    @given(pools())
    @settings(max_examples=200, deadline=None)
    def test_rank_orders_steps_one_to_three(self, pool):
        for route in pool:
            assert route.rank == (
                -local_pref(route),
                path_length(route),
                route.attributes.origin,
            )


# ----------------------------------------------------------------------
# the router's Loc-RIB against a full scan
# ----------------------------------------------------------------------
def full_scan_best(router, prefix):
    """``select`` over every established session's Adj-RIB-In plus the
    local route, in session order."""
    candidates = [router._local_routes.get(prefix)]
    for session in sorted(router.sessions, key=lambda s: s.session_id):
        if session.established:
            candidates.append(router.adj_rib_in(session).get(prefix))
    return SELECT(router._decision, candidates)


def _record(monkeypatch, run, *, incremental):
    """Run *run*; return what went out and how many ``_reconsider``
    calls ran the full decision process.

    The incremental run checks the Loc-RIB against the full scan after
    every ``_reconsider`` call; the other run drops the changed-route
    hint, so every call runs the full decision process.
    """
    wire = []
    calls = {"reconsider": 0, "select": 0}
    send = BGPSession.send
    reconsider = Router._reconsider
    select = DecisionProcess.select

    def recording_send(self, sender, message):
        delivered = send(self, sender, message)
        wire.append((sender.name, self.session_id, delivered, message))
        return delivered

    def checked_reconsider(self, prefix, change=None):
        calls["reconsider"] += 1
        reconsider(self, prefix, change)
        assert self.loc_rib.get(prefix) == full_scan_best(self, prefix)

    def full_reconsider(self, prefix, change=None):
        calls["reconsider"] += 1
        reconsider(self, prefix)

    def counting_select(self, candidates):
        calls["select"] += 1
        return select(self, candidates)

    with monkeypatch.context() as patch:
        patch.setattr(BGPSession, "send", recording_send)
        patch.setattr(
            Router,
            "_reconsider",
            checked_reconsider if incremental else full_reconsider,
        )
        patch.setattr(DecisionProcess, "select", counting_select)
        network = run()
    collected = [
        (
            record.timestamp,
            record.collector,
            int(record.peer_asn),
            record.peer_address,
            record.message,
        )
        for collector in network.collectors.values()
        for record in collector.records
    ]
    return wire, collected, calls


def _assert_incremental_is_exact(monkeypatch, run):
    """Incremental and full-every-time decisions agree message for
    message; return the incremental run's call counts."""
    wire, collected, calls = _record(monkeypatch, run, incremental=True)
    ref_wire, ref_collected, ref_calls = _record(
        monkeypatch, run, incremental=False
    )
    assert collected, "the run reached no collector"
    assert collected == ref_collected
    assert wire == ref_wire
    assert calls["reconsider"] == ref_calls["reconsider"]
    assert ref_calls["select"] == ref_calls["reconsider"]
    assert calls["select"] <= ref_calls["select"]
    return calls


def _internet(spec):
    def run():
        model = InternetModel(internet_config_from_spec(spec))
        model.run()
        return model.network

    return run


class TestIncrementalReconsider:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_topology_tiny_seeds(self, monkeypatch, seed):
        spec = dataclasses.replace(get_scenario("topology-tiny"), seed=seed)
        calls = _assert_incremental_is_exact(monkeypatch, _internet(spec))
        assert calls["select"] < calls["reconsider"]

    def test_mrai_paced(self, monkeypatch):
        spec = get_scenario("topology-tiny")
        spec = dataclasses.replace(
            spec, internet=dataclasses.replace(spec.internet, mrai=30.0)
        )
        calls = _assert_incremental_is_exact(monkeypatch, _internet(spec))
        assert calls["select"] < calls["reconsider"]

    def test_session_flap(self, monkeypatch):
        """Bring one router-router session down and up after the day:
        ``session_down`` re-decides every prefix the session carried."""

        def run():
            model = InternetModel(
                internet_config_from_spec(get_scenario("topology-tiny"))
            )
            model.run()
            network = model.network
            session = next(
                s
                for s in network.sessions
                if isinstance(s.node_a, Router) and isinstance(s.node_b, Router)
            )
            session.bring_down()
            network.converge()
            session.bring_up()
            network.converge()
            return network

        _assert_incremental_is_exact(monkeypatch, run)

    @pytest.mark.parametrize("experiment", LabSpec().experiments)
    @pytest.mark.parametrize("vendor", LabSpec().vendors)
    def test_lab_baseline_matrix(self, monkeypatch, experiment, vendor):
        def run():
            lab = LabTopology(experiment, profile_by_name(vendor))
            lab.run()
            return lab.network

        _assert_incremental_is_exact(monkeypatch, run)
