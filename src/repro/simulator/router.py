"""The simulated BGP router.

Implements the full RFC 4271 route-processing pipeline:

    session → Adj-RIB-In (post import policy) → decision process
            → Loc-RIB → per-peer export policy → Adj-RIB-Out → session

The paper's central mechanism lives in :meth:`Router._advertise`:
when the Loc-RIB entry for a prefix changes *in any way* (including
purely internal detail such as the next hop after an iBGP failover),
the router recomputes the egress attributes for every peer.  If the
egress attributes are identical to what was previously sent, the vendor
profile decides: Junos suppresses (Adj-RIB-Out comparison), Cisco and
BIRD emit an exact duplicate — the `nn` updates measured in §5-§6.

As in FRR's and Cisco IOS's update groups, a best-route change is
exported once per group of sessions of one kind (eBGP/iBGP) sharing an
export chain object, and copied to each member with its own eBGP
NEXT_HOP; every session still does its own Adj-RIB-Out check and MRAI.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.bgp.attributes import PathAttributes
from repro.bgp.constants import OriginCode
from repro.bgp.message import UpdateMessage
from repro.netbase.asn import ASN
from repro.netbase.prefix import Prefix
from repro.policy.actions import honor_no_export
from repro.policy.engine import PolicyContext, RoutingPolicy
from repro.rib.adj_rib import AdjacencyIndex, AdjRIBIn, AdjRIBOut
from repro.rib.decision import DecisionConfig, DecisionProcess
from repro.rib.loc_rib import LocRIB
from repro.rib.route import Route, RouteSource
from repro.simulator.session import BGPSession, SessionKind
from repro.vendors.profiles import CISCO_IOS, VendorProfile

#: An update group whose export is not computed yet (None is a result).
_UNSEEN = object()

#: IGP distance to an iBGP next hop (eBGP next hops are at 0): the
#: hot-potato step of the decision process prefers eBGP exits.
DEFAULT_IBGP_COST = 5


class Router:
    """One BGP speaker inside one AS."""

    def __init__(
        self,
        network,
        name: str,
        asn: int,
        router_id: str,
        *,
        vendor: VendorProfile = CISCO_IOS,
        decision_config: "DecisionConfig | None" = None,
        transparent: bool = False,
    ):
        self._network = network
        self.name = name
        self.asn = ASN(asn)
        self.router_id = router_id
        self.vendor = vendor
        #: Transparent speakers (IXP route servers) do not prepend
        #: their own ASN on eBGP export — the collector-side ambiguity
        #: the paper's cleaning step repairs (§4).
        self.transparent = bool(transparent)
        self._decision = DecisionProcess(decision_config)
        self._sessions: List[BGPSession] = []
        self._session_by_id: Dict[int, BGPSession] = {}
        #: Cross-session candidate index shared by every Adj-RIB-In:
        #: reconsidering a prefix touches only that prefix's candidates
        #: instead of scanning one RIB per session.
        self._rib_index = AdjacencyIndex()
        self._adj_rib_in: Dict[int, AdjRIBIn] = {}
        self._adj_rib_out: Dict[int, AdjRIBOut] = {}
        self._policies: Dict[int, RoutingPolicy] = {}
        self._ingress_points: Dict[int, str] = {}
        #: Per-session constants, resolved once at attach time instead
        #: of through session.other() on every message.
        self._peer_ids: Dict[int, str] = {}
        self._peer_asns: Dict[int, ASN] = {}
        self._peer_addresses: Dict[int, str] = {}
        self._local_addresses: Dict[int, str] = {}
        self._loc_rib = LocRIB()
        self._local_routes: Dict[Prefix, Route] = {}
        self._mrai_pending: Dict[int, Set[Prefix]] = {}
        self._mrai_timer_armed: Set[int] = set()
        #: Counters for the analysis layer.
        self.sent_updates = 0
        self.sent_withdrawals = 0
        self.received_updates = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_session(
        self,
        session: BGPSession,
        *,
        policy: "RoutingPolicy | None" = None,
        ingress_point: Optional[str] = None,
    ) -> None:
        """Register a session endpoint on this router."""
        self._sessions.append(session)
        key = session.session_id
        self._session_by_id[key] = session
        self._adj_rib_in[key] = AdjRIBIn(key, self._rib_index)
        self._adj_rib_out[key] = AdjRIBOut()
        self._policies[key] = policy or RoutingPolicy.permissive()
        if ingress_point is not None:
            self._ingress_points[key] = ingress_point
        self._mrai_pending[key] = set()
        peer = session.other(self)
        self._peer_ids[key] = getattr(peer, "router_id", peer.name)
        self._peer_asns[key] = ASN(peer.asn)
        self._peer_addresses[key] = session.peer_address(self)
        self._local_addresses[key] = session.local_address(self)

    def set_policy(self, session: BGPSession, policy: RoutingPolicy) -> None:
        """Replace the routing policy for *session*."""
        self._policies[session.session_id] = policy

    def policy_for(self, session: BGPSession) -> RoutingPolicy:
        """The routing policy applied on *session*."""
        return self._policies[session.session_id]

    @property
    def sessions(self) -> "list[BGPSession]":
        """All attached sessions."""
        return list(self._sessions)

    @property
    def loc_rib(self) -> LocRIB:
        """The router's selected best routes."""
        return self._loc_rib

    def adj_rib_in(self, session: BGPSession) -> AdjRIBIn:
        """Inbound RIB for *session*."""
        return self._adj_rib_in[session.session_id]

    # ------------------------------------------------------------------
    # route origination
    # ------------------------------------------------------------------
    def originate(
        self,
        prefix: Prefix,
        *,
        med: Optional[int] = None,
        communities=None,
    ) -> None:
        """Originate *prefix* from this router (network statement)."""
        attributes = PathAttributes(
            origin=OriginCode.IGP,
            med=med,
            communities=communities,
            next_hop=self.router_id,
        )
        route = Route(
            prefix,
            attributes,
            source=RouteSource.LOCAL,
            peer_id=None,
            learned_at=self._network.queue.now,
        )
        self._local_routes[prefix] = route
        self._reconsider(prefix)

    def withdraw_origination(self, prefix: Prefix) -> None:
        """Stop originating *prefix* (beacon withdraw phase)."""
        if self._local_routes.pop(prefix, None) is not None:
            self._reconsider(prefix)

    def originated_prefixes(self) -> "list[Prefix]":
        """Prefixes this router currently originates."""
        return list(self._local_routes)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def receive(self, session: BGPSession, message: UpdateMessage) -> None:
        """Process one inbound UPDATE from *session*."""
        self._process_update(
            session, self._adj_rib_in[session.session_id], message
        )

    def receive_batch(
        self, session: BGPSession, messages: "list[UpdateMessage]"
    ) -> None:
        """Process a coalesced burst of inbound messages from *session*.

        Each message is processed fully (import, decision, propagation)
        before the next, so the outcome is identical to receiving them
        as individual events in order — the batch only saves the
        per-message event-queue round trip.
        """
        rib_in = self._adj_rib_in[session.session_id]
        for message in messages:
            self._process_update(session, rib_in, message)

    def _process_update(
        self,
        session: BGPSession,
        rib_in: AdjRIBIn,
        message: UpdateMessage,
    ) -> None:
        """Run one UPDATE through import, decision and propagation."""
        self.received_updates += 1
        # (prefix, its Adj-RIB-In entry before this message) per change.
        changes: "list[tuple[Prefix, Route | None]]" = []
        for prefix in message.withdrawn:
            previous = rib_in.withdraw(prefix)
            if previous is not None:
                changes.append((prefix, previous))
        attributes = message.attributes
        for prefix in message.announced:
            previous = rib_in.get(prefix)
            route = self._import_route(session, prefix, attributes)
            if route is None:
                # Rejected: withdraws what the peer sent before.
                if previous is None:
                    continue
                rib_in.withdraw(prefix)
            elif route == previous:
                continue
            else:
                rib_in.install(route)
            changes.append((prefix, previous))
        if len(changes) > 1:
            # Several prefixes: decide each once, in prefix order, from
            # its entry before the whole message.
            before: "Dict[Prefix, Optional[Route]]" = {}
            for prefix, previous in changes:
                before.setdefault(prefix, previous)
            changes = sorted(before.items())
        # A down session's routes are no candidates: decide in full.
        established = session.established
        for prefix, previous in changes:
            if established:
                self._reconsider(prefix, (previous, rib_in.get(prefix)))
            else:
                self._reconsider(prefix)

    def _import_route(
        self,
        session: BGPSession,
        prefix: Prefix,
        attributes: PathAttributes,
    ) -> "Route | None":
        """Run import processing; None when the route is rejected."""
        key = session.session_id
        is_ebgp = session.is_ebgp
        if is_ebgp and attributes.as_path.contains(self.asn):
            # AS-path loop: RFC 4271 mandates rejection.
            return None
        import_chain = self._policies[key].import_chain
        if import_chain.steps:
            ingress = self._ingress_points.get(key)
            context = PolicyContext(self.asn, prefix, ingress, is_ebgp)
            imported = import_chain.apply(attributes, context)
            if imported is None:
                return None
        else:
            # Permissive chain: identity transform, no context needed.
            imported = attributes
        peer_address = self._peer_addresses[key]
        if is_ebgp:
            # eBGP ingress: next hop becomes the peer's session address;
            # LOCAL_PREF is never accepted from an external neighbor.
            # (Usually already true on the wire — skip the copy then.)
            if (
                imported.next_hop != peer_address
                or imported.local_pref is not None
            ):
                imported = imported.replace(
                    next_hop=peer_address, local_pref=None
                )
        return Route.learned(
            prefix,
            imported,
            RouteSource.EBGP if is_ebgp else RouteSource.IBGP,
            self._peer_ids[key],
            self._peer_asns[key],
            peer_address,
            0 if is_ebgp else DEFAULT_IBGP_COST,
            self._network.queue.now,
        )

    # ------------------------------------------------------------------
    # decision + propagation
    # ------------------------------------------------------------------
    def _reconsider(
        self,
        prefix: Prefix,
        change: "tuple[Route | None, Route | None] | None" = None,
    ) -> None:
        """Re-run the decision process for *prefix* and propagate.

        *change* is ``(old, new)`` when exactly one candidate changed,
        from *old* to *new* (None: absent).  Against the current best's
        :attr:`Route.rank` (decision steps 1-3), two outcomes are then
        known without a decision run: a strictly better *new* wins, and
        when neither *old* nor *new* ties or beats the best the step-3
        tie set is untouched, so the best stays (MED and every later
        step only compare inside that set).  Anything else runs the
        full decision process.
        """
        current = self._loc_rib.get(prefix)
        if change is not None and current is not None:
            old, new = change
            rank = current.rank
            if new is not None and new.rank < rank:
                self._loc_rib.update(new)
                self._propagate_route(prefix, new)
                return
            if (old is None or old.rank > rank) and (
                new is None or new.rank > rank
            ):
                return
        candidates: List[Route] = []
        local = self._local_routes.get(prefix)
        if local is not None:
            candidates.append(local)
        session_by_id = self._session_by_id
        for key, route in self._rib_index.candidates(prefix):
            if session_by_id[key].established:
                candidates.append(route)
        best = self._decision.select(candidates)
        if best is None:
            if self._loc_rib.remove(prefix) is not None:
                self._propagate_withdrawal(prefix)
            return
        changed, _previous = self._loc_rib.update(best)
        if changed:
            self._propagate_route(prefix, best)

    def _propagate_route(self, prefix: Prefix, route: Route) -> None:
        """Advertise the new best route; one export per update group."""
        # _egress_for's scoping rules, decided once per session kind.
        attributes = route.attributes
        ebgp_exportable = honor_no_export(attributes, is_ebgp=True)
        ibgp_exportable = route.source is not RouteSource.IBGP and (
            honor_no_export(attributes, is_ebgp=False)
        )
        peer_id = route.peer_id
        peer_ids = self._peer_ids
        groups: "Dict[tuple, PathAttributes | None]" = {}
        for session in self._sessions:
            if not session.established:
                continue
            key = session.session_id
            is_ebgp = session.is_ebgp
            if peer_id == peer_ids[key] or not (
                ebgp_exportable if is_ebgp else ibgp_exportable
            ):
                self._withdraw_from_peer(session, prefix)
                continue
            group = (is_ebgp, self._policies[key].export_chain)
            egress = groups.get(group, _UNSEEN)
            if egress is _UNSEEN:
                egress = groups[group] = self._export_attributes(
                    route, session
                )
            elif egress is not None and is_ebgp:
                egress = egress.replace(next_hop=self._local_addresses[key])
            if egress is None:
                self._withdraw_from_peer(session, prefix)
                continue
            self._advertise(session, prefix, egress)

    def _propagate_withdrawal(self, prefix: Prefix) -> None:
        """Withdraw *prefix* from every peer that had it."""
        for session in self._sessions:
            if not session.established:
                continue
            self._withdraw_from_peer(session, prefix)

    def _egress_for(
        self, route: "Route | None", session: BGPSession
    ) -> "PathAttributes | None":
        """Export *route* on one session; None: advertise nothing."""
        if route is None:
            return None
        # Never advertise back to the router the route came from.
        if route.peer_id == self._peer_ids[session.session_id]:
            return None
        # Full-mesh iBGP: iBGP-learned routes stay put.
        if route.source == RouteSource.IBGP and not session.is_ebgp:
            return None
        if not honor_no_export(route.attributes, is_ebgp=session.is_ebgp):
            return None
        return self._export_attributes(route, session)

    def _export_attributes(
        self, route: Route, session: BGPSession
    ) -> "PathAttributes | None":
        """Compute the attributes as they would appear on the wire."""
        key = session.session_id
        attributes = route.attributes
        is_ebgp = session.is_ebgp
        if is_ebgp:
            as_path = attributes.as_path
            med = attributes.med
            if (
                med is not None
                and self.vendor.reset_med_on_ebgp_export
                and route.source is not RouteSource.LOCAL
            ):
                # MED is non-transitive: it crosses exactly one AS
                # border.  A locally-originated MED is sent to the
                # neighbor; a received MED is never re-exported.
                med = None
            attributes = attributes.replace(
                next_hop=self._local_addresses[key],
                local_pref=None,
                as_path=(
                    as_path if self.transparent else as_path.prepend(self.asn)
                ),
                med=med,
            )
        else:
            # iBGP: preserve next hop (no next-hop-self by default) and
            # make LOCAL_PREF explicit for the internal peer.
            local_pref = attributes.local_pref
            next_hop = attributes.next_hop
            if local_pref is None or next_hop is None:
                attributes = attributes.replace(
                    local_pref=100 if local_pref is None else local_pref,
                    next_hop=self.router_id if next_hop is None else next_hop,
                )
        export_chain = self._policies[key].export_chain
        if not export_chain.steps:
            return attributes
        context = PolicyContext(self.asn, route.prefix, is_ebgp=is_ebgp)
        return export_chain.apply(attributes, context)

    def _advertise(
        self, session: BGPSession, prefix: Prefix, egress: PathAttributes
    ) -> None:
        """Send (or suppress) one advertisement, honoring MRAI."""
        rib_out = self._adj_rib_out[session.session_id]
        previous = rib_out.last_advertised(prefix)
        if previous is not None and previous == egress:
            if self.vendor.suppress_duplicate_advertisements:
                return
            # Duplicate advertisement: identical to the previous one.
            # RFC 4271 says SHOULD NOT; Cisco/BIRD send it anyway.
        if session.mrai_wait(self) > 0:
            self._stage_mrai(session, prefix)
            return
        rib_out.record_advertisement(prefix, egress)
        if session.send(self, UpdateMessage.announce(prefix, egress)):
            self.sent_updates += 1
            session.mark_advertisement(self)

    def _withdraw_from_peer(self, session: BGPSession, prefix: Prefix) -> None:
        rib_out = self._adj_rib_out[session.session_id]
        if not rib_out.record_withdrawal(prefix):
            return
        self._mrai_pending[session.session_id].discard(prefix)
        if session.send(self, UpdateMessage.withdraw(prefix)):
            self.sent_withdrawals += 1

    # ------------------------------------------------------------------
    # MRAI pacing
    # ------------------------------------------------------------------
    def _stage_mrai(self, session: BGPSession, prefix: Prefix) -> None:
        key = session.session_id
        self._mrai_pending[key].add(prefix)
        if key in self._mrai_timer_armed:
            return
        self._mrai_timer_armed.add(key)
        self._network.queue.schedule(
            session.mrai_wait(self), lambda: self._flush_mrai(session)
        )

    def _flush_mrai(self, session: BGPSession) -> None:
        key = session.session_id
        self._mrai_timer_armed.discard(key)
        pending = sorted(self._mrai_pending[key])
        self._mrai_pending[key].clear()
        if not session.established:
            return
        for prefix in pending:
            egress = self._egress_for(self._loc_rib.get(prefix), session)
            if egress is None:
                self._withdraw_from_peer(session, prefix)
            else:
                self._advertise(session, prefix, egress)

    def refresh_exports(self, session: BGPSession) -> int:
        """Re-evaluate all exports on *session* after a policy change.

        Models outbound soft reconfiguration / route refresh: only
        routes whose egress attributes actually differ from the
        Adj-RIB-Out entry are re-advertised, so an unchanged policy
        refresh is silent on the wire.  Returns the number of messages
        put on the wire now: advertisements that MRAI holds back leave
        with its timer and are not counted here.
        """
        if not session.established:
            return 0
        sent_before = self.sent_updates + self.sent_withdrawals
        rib_out = self._adj_rib_out[session.session_id]
        for prefix in sorted(self._loc_rib.prefixes()):
            egress = self._egress_for(self._loc_rib.get(prefix), session)
            if egress is None:
                if rib_out.is_advertised(prefix):
                    self._withdraw_from_peer(session, prefix)
                continue
            if rib_out.last_advertised(prefix) == egress:
                continue
            self._advertise(session, prefix, egress)
        return self.sent_updates + self.sent_withdrawals - sent_before

    # ------------------------------------------------------------------
    # session state callbacks
    # ------------------------------------------------------------------
    def session_down(self, session: BGPSession) -> None:
        """Handle session teardown: flush RIBs and re-decide."""
        key = session.session_id
        affected = self._adj_rib_in[key].clear()
        self._adj_rib_out[key].clear()
        self._mrai_pending[key].clear()
        for prefix in sorted(affected):
            self._reconsider(prefix)

    def session_up(self, session: BGPSession) -> None:
        """Handle session (re-)establishment: send the full table."""
        for prefix in sorted(self._loc_rib.prefixes()):
            egress = self._egress_for(self._loc_rib.get(prefix), session)
            if egress is not None:
                self._advertise(session, prefix, egress)

    def __repr__(self) -> str:
        return (
            f"Router({self.name}, AS{int(self.asn)},"
            f" vendor='{self.vendor.name}')"
        )
