"""Update groups: a best route is exported once per group of sessions.

``Router._propagate_route`` computes the egress attributes once per
(session kind, export chain) group and replicates them to the other
members, fixing up NEXT_HOP per eBGP session.  These tests hold it to
the per-session export loop it replaced, kept here (and only here) as
the reference, and pin the deterministic operation counts of the CI
scenario.
"""

import dataclasses

import pytest

from repro.bgp.attributes import PathAttributes
from repro.netbase.prefix import Prefix
from repro.policy.actions import honor_no_export
from repro.rib.route import RouteSource
from repro.rib.decision import DecisionProcess
from repro.scenarios.engine import internet_config_from_spec
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import LabSpec
from repro.simulator.experiments import LabTopology
from repro.simulator.network import Network
from repro.simulator.router import Router
from repro.simulator.session import BGPSession
from repro.vendors.profiles import profile_by_name
from repro.workloads import InternetModel


def per_session_propagate(self, prefix, route):
    """Reference: the export loop before update groups — every session
    runs the scoping rules and its export chain on its own."""
    for session in self._sessions:
        if not session.established:
            continue
        egress = self._egress_for(route, session)
        if egress is None:
            self._withdraw_from_peer(session, prefix)
        else:
            self._advertise(session, prefix, egress)


def may_reach(router, route, session):
    """The scoping rules that precede export policy: never back to the
    sender, no iBGP-learned route to an iBGP peer, NO_EXPORT and
    NO_ADVERTISE honored."""
    peer = session.other(router)
    if route.peer_id == getattr(peer, "router_id", peer.name):
        return False
    if route.source == RouteSource.IBGP and not session.is_ebgp:
        return False
    return honor_no_export(route.attributes, is_ebgp=session.is_ebgp)


def _record(monkeypatch, run, *, reference):
    """Run *run* on a fresh session numbering; return what went out.

    The result holds every message any router put on any session (in
    send order), the archived records of every collector (with their
    timestamps and session envelopes) and the number of export
    computations.
    """
    wire = []
    exports = [0]
    send = BGPSession.send
    export = Router._export_attributes

    def recording_send(self, sender, message):
        delivered = send(self, sender, message)
        wire.append((sender.name, self.session_id, delivered, message))
        return delivered

    def counting_export(self, route, session):
        exports[0] += 1
        return export(self, route, session)

    with monkeypatch.context() as patch:
        # Session addresses come from a process-wide counter; restart
        # it so both runs address (and tie-break) identically.
        patch.setattr(BGPSession, "_counter", 0)
        patch.setattr(BGPSession, "send", recording_send)
        patch.setattr(Router, "_export_attributes", counting_export)
        if reference:
            patch.setattr(Router, "_propagate_route", per_session_propagate)
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
    return wire, collected, exports[0]


def _assert_same_output(monkeypatch, run):
    """Grouped and per-session export agree message for message."""
    wire, collected, exports = _record(monkeypatch, run, reference=False)
    ref_wire, ref_collected, ref_exports = _record(
        monkeypatch, run, reference=True
    )
    assert collected, "the run reached no collector"
    assert len(collected) == len(ref_collected)
    for ours, theirs in zip(collected, ref_collected):
        assert ours == theirs
        message = ours[-1]
        if message.attributes is not None:
            # Spelled out: the fields update groups rewrite or share.
            assert message.attributes.next_hop == theirs[-1].attributes.next_hop
            assert message.attributes.med == theirs[-1].attributes.med
    assert wire == ref_wire
    assert exports <= ref_exports
    return exports, ref_exports


def _internet(spec):
    def run():
        model = InternetModel(internet_config_from_spec(spec))
        model.run()
        return model.network

    return run


def _tiny(**internet):
    spec = get_scenario("topology-tiny")
    return dataclasses.replace(
        spec, internet=dataclasses.replace(spec.internet, **internet)
    )


class TestDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_topology_tiny_seeds(self, monkeypatch, seed):
        spec = dataclasses.replace(get_scenario("topology-tiny"), seed=seed)
        exports, ref_exports = _assert_same_output(
            monkeypatch, _internet(spec)
        )
        assert exports < ref_exports

    def test_mrai_paced(self, monkeypatch):
        exports, ref_exports = _assert_same_output(
            monkeypatch, _internet(_tiny(mrai=30.0))
        )
        assert exports < ref_exports

    def test_junos_only_suppresses_duplicates(self, monkeypatch):
        exports, ref_exports = _assert_same_output(
            monkeypatch, _internet(_tiny(vendor_mix=(("junos", 1.0),)))
        )
        assert exports < ref_exports

    def test_session_flap(self, monkeypatch):
        """Bring one router-router session down and up after the day:
        re-establishment re-sends the table through ``session_up``."""

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

        _assert_same_output(monkeypatch, run)

    def test_session_kind_splits_a_shared_chain(self, monkeypatch):
        """R1's eBGP and iBGP sessions all export through the shared
        accept chain, yet need different attributes: the kind keeps
        them in separate groups, and the two eBGP sessions differ only
        in NEXT_HOP."""

        def run():
            network = Network()
            r1 = network.add_router("R1", 64500, router_id="192.0.2.1")
            r2 = network.add_router("R2", 64500, router_id="192.0.2.2")
            r3 = network.add_router("R3", 64500, router_id="192.0.2.3")
            for name, asn in (("C1", 65001), ("C2", 65002)):
                network.connect(network.add_collector(name, asn), r1)
            network.connect(r1, r2)
            network.connect(r1, r3)
            network.connect(network.add_collector("C3", 65003), r2)
            r1.originate(Prefix("203.0.113.0/24"), med=5)
            network.converge()
            return network

        exports, ref_exports = _assert_same_output(monkeypatch, run)
        assert exports < ref_exports

    @pytest.mark.parametrize("experiment", LabSpec().experiments)
    @pytest.mark.parametrize("vendor", LabSpec().vendors)
    def test_lab_baseline_matrix(self, monkeypatch, experiment, vendor):
        def run():
            lab = LabTopology(experiment, profile_by_name(vendor))
            lab.run()
            return lab.network

        _assert_same_output(monkeypatch, run)


class TestOperationCounts:
    """Deterministic counts on topology-tiny, the CI scenario."""

    #: ``Router._export_attributes`` calls with update groups; the
    #: per-session loop made ``PER_SESSION_EXPORTS``.
    EXPORTS = 2626
    PER_SESSION_EXPORTS = 4197
    EVENTS = 2604
    #: ``Router._reconsider`` calls: one per changed prefix.
    RECONSIDERS = 2361
    #: Calls that ran ``DecisionProcess.select`` (all of them before
    #: incremental reconsideration) and calls the rank shortcut settled.
    DECISION_RUNS = 1716
    SHORTCUTS = 645
    #: ``PathAttributes.replace`` calls (11,193 per session).
    REWRITES = 9822

    @pytest.fixture(scope="class")
    def counts(self):
        patch = pytest.MonkeyPatch()
        counts = dict.fromkeys(
            ("exports", "in_propagate", "pairs", "eligible", "reconsiders",
             "decisions", "shortcuts", "rewrites"),
            0,
        )
        inside = [False]
        propagate = Router._propagate_route
        export = Router._export_attributes
        reconsider = Router._reconsider
        select = DecisionProcess.select
        replace = PathAttributes.replace

        def counting_propagate(self, prefix, route):
            # The test's own count of (best-route change, update group)
            # pairs: distinct (kind, export chain) among the sessions
            # the scoping rules let the route reach.
            eligible = [
                session
                for session in self._sessions
                if session.established and may_reach(self, route, session)
            ]
            counts["eligible"] += len(eligible)
            counts["pairs"] += len(
                {
                    (session.is_ebgp, id(self.policy_for(session).export_chain))
                    for session in eligible
                }
            )
            inside[0] = True
            try:
                propagate(self, prefix, route)
            finally:
                inside[0] = False

        def counting_export(self, route, session):
            counts["exports"] += 1
            counts["in_propagate"] += inside[0]
            return export(self, route, session)

        def counting_reconsider(self, prefix, change=None):
            counts["reconsiders"] += 1
            decisions = counts["decisions"]
            reconsider(self, prefix, change)
            counts["shortcuts"] += counts["decisions"] == decisions

        def counting_select(self, candidates):
            counts["decisions"] += 1
            return select(self, candidates)

        def counting_replace(self, **changes):
            counts["rewrites"] += 1
            return replace(self, **changes)

        try:
            patch.setattr(BGPSession, "_counter", 0)
            patch.setattr(Router, "_propagate_route", counting_propagate)
            patch.setattr(Router, "_export_attributes", counting_export)
            patch.setattr(Router, "_reconsider", counting_reconsider)
            patch.setattr(DecisionProcess, "select", counting_select)
            patch.setattr(PathAttributes, "replace", counting_replace)
            model = InternetModel(
                internet_config_from_spec(get_scenario("topology-tiny"))
            )
            model.run()
        finally:
            patch.undo()
        counts["events"] = model.network.queue.processed
        return counts

    def test_one_export_per_update_group(self, counts):
        assert counts["in_propagate"] == counts["pairs"]
        assert counts["pairs"] < counts["eligible"]

    def test_pinned_counts(self, counts):
        assert counts["exports"] == self.EXPORTS
        assert (
            counts["exports"] - counts["pairs"] + counts["eligible"]
            == self.PER_SESSION_EXPORTS
        )
        assert counts["events"] == self.EVENTS
        assert counts["reconsiders"] == self.RECONSIDERS
        assert counts["decisions"] == self.DECISION_RUNS
        assert counts["shortcuts"] == self.SHORTCUTS
        assert counts["rewrites"] == self.REWRITES
