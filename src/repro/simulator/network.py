"""Network: the container wiring routers, collectors, sessions, links.

A :class:`Network` owns the clock and event queue and provides the
builder API the lab topology and the synthetic internet both use.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.netbase.timebase import SimClock
from repro.rib.decision import DecisionConfig
from repro.simulator.collector import RouteCollector
from repro.simulator.events import EventQueue
from repro.simulator.link import Link
from repro.simulator.router import Router
from repro.simulator.session import BGPSession, SessionKind
from repro.vendors.profiles import CISCO_IOS, VendorProfile

#: Default IGP distance for internal (iBGP) next hops.
DEFAULT_IBGP_COST = 5


class Network:
    """A simulated BGP internetwork."""

    def __init__(
        self,
        *,
        start_time: float = 0.0,
        batch_delivery: bool = True,
        archive_policy: str = "full",
        spill_dir: "Optional[str]" = None,
    ):
        self.clock = SimClock(start_time)
        self.queue = EventQueue(self.clock)
        #: Coalesce same-fire-time messages per session direction into
        #: one queue event (see :meth:`BGPSession.send` for the exact
        #: ordering guarantee).  Turning this off gives the classic
        #: one-event-per-message granularity.
        self.batch_delivery = bool(batch_delivery)
        #: Default collector archive policy: ``full`` | ``mrt-spill``
        #: (see :mod:`repro.pipeline.sinks`).
        self.archive_policy = archive_policy
        #: Directory for ``mrt-spill`` archives (None: system temp).
        self.spill_dir = spill_dir
        self.routers: Dict[str, Router] = {}
        self.collectors: Dict[str, RouteCollector] = {}
        self.links: Dict[str, Link] = {}
        self._sessions: "list[BGPSession]" = []
        self._igp_costs: Dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_router(
        self,
        name: str,
        asn: int,
        *,
        router_id: Optional[str] = None,
        vendor: VendorProfile = CISCO_IOS,
        decision_config: "DecisionConfig | None" = None,
        transparent: bool = False,
    ) -> Router:
        """Create and register a router."""
        if name in self.routers or name in self.collectors:
            raise ValueError(f"duplicate node name: {name}")
        if router_id is None:
            router_id = f"192.0.2.{len(self.routers) + 1}"
        router = Router(
            self,
            name,
            asn,
            router_id,
            vendor=vendor,
            decision_config=decision_config,
            transparent=transparent,
        )
        self.routers[name] = router
        return router

    def add_collector(
        self,
        name: str,
        asn: int = 12_456,
        *,
        archive_policy: "Optional[str]" = None,
        spill_dir: "Optional[str]" = None,
    ) -> RouteCollector:
        """Create and register a route collector.

        ``archive_policy``/``spill_dir`` default to the network-wide
        settings passed to :class:`Network`.
        """
        if name in self.routers or name in self.collectors:
            raise ValueError(f"duplicate node name: {name}")
        collector = RouteCollector(
            self,
            name,
            asn,
            archive_policy=(
                archive_policy
                if archive_policy is not None
                else self.archive_policy
            ),
            spill_dir=spill_dir if spill_dir is not None else self.spill_dir,
        )
        self.collectors[name] = collector
        return collector

    def connect(
        self,
        node_a,
        node_b,
        *,
        delay: float = 0.01,
        mrai: float = 0.0,
        policy_a=None,
        policy_b=None,
        ingress_point_a: Optional[str] = None,
        ingress_point_b: Optional[str] = None,
        link: Optional[Link] = None,
    ) -> BGPSession:
        """Create a session between two nodes and attach endpoints.

        The session kind is inferred: same ASN → iBGP, else eBGP.
        """
        kind = (
            SessionKind.IBGP
            if int(node_a.asn) == int(node_b.asn)
            else SessionKind.EBGP
        )
        session = BGPSession(
            self,
            node_a,
            node_b,
            session_id=len(self._sessions) + 1,
            kind=kind,
            delay=delay,
            mrai=mrai,
        )
        node_a.attach_session(
            session, policy=policy_a, ingress_point=ingress_point_a
        )
        node_b.attach_session(
            session, policy=policy_b, ingress_point=ingress_point_b
        )
        self._sessions.append(session)
        if link is not None:
            link.attach(session)
        return session

    def add_link(self, name: str) -> Link:
        """Create a named physical link for failure experiments."""
        if name in self.links:
            raise ValueError(f"duplicate link name: {name}")
        link = Link(name)
        self.links[name] = link
        return link

    # ------------------------------------------------------------------
    # IGP model
    # ------------------------------------------------------------------
    def set_igp_cost(self, router: Router, session: BGPSession, cost: int) -> None:
        """Set the IGP distance from *router* to next hops via *session*."""
        self._igp_costs[(router.name, session.session_id)] = int(cost)

    def igp_cost(self, router: Router, session: BGPSession) -> int:
        """IGP distance used by the decision process (hot potato)."""
        explicit = self._igp_costs.get((router.name, session.session_id))
        if explicit is not None:
            return explicit
        return 0 if session.is_ebgp else DEFAULT_IBGP_COST

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def sessions(self) -> "list[BGPSession]":
        """Every session in the network."""
        return list(self._sessions)

    def run(self, **kwargs) -> int:
        """Run queued events (see :meth:`EventQueue.run`)."""
        return self.queue.run(**kwargs)

    def run_until_idle(self, **kwargs) -> int:
        """Run until the network quiesces."""
        return self.queue.run_until_idle(**kwargs)

    def converge(self, *, max_events: int = 1_000_000) -> int:
        """Alias for :meth:`run_until_idle` that reads better in setup."""
        return self.run_until_idle(max_events=max_events)

    def total_messages_sent(self) -> "tuple[int, int]":
        """(updates, withdrawals) summed over all routers."""
        updates = sum(r.sent_updates for r in self.routers.values())
        withdrawals = sum(
            r.sent_withdrawals for r in self.routers.values()
        )
        return updates, withdrawals

    def __repr__(self) -> str:
        return (
            f"Network(routers={len(self.routers)},"
            f" collectors={len(self.collectors)},"
            f" sessions={len(self._sessions)}, t={self.clock.now})"
        )
