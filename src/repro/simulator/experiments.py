"""The paper's controlled laboratory experiments (§3, Figure 1).

Topology::

    C1 --- X1 --- Y1 --- (iBGP) --- Y2 --- Z1
                   \\--- (iBGP) --- Y3 ---/
                        Y2 -(iBGP)- Y3

* AS C (collector), AS X, AS Y (three routers, full iBGP mesh), AS Z.
* Z1 originates prefix ``p``; both Y2 and Y3 peer with Z1.
* Y1 prefers the route via Y2 (lower router ID tie-breaker), exactly as
  the paper's "BGP tie breaker selects Y2".

Each experiment converges the network, clears the capture state, then
disables the Y1–Y2 link and records what crosses the X1–Y1 wire and
what reaches the collector.  Four configurations reproduce Exp1–Exp4:

===== ==========================================================
Exp1  no communities anywhere
Exp2  Y2/Y3 geo-tag at ingress (Y:300 / Y:400), nobody filters
Exp3  Exp2 + X1 strips all communities on *egress* toward C1
Exp4  Exp2 + X1 strips all communities on *ingress* from Y1
===== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.bgp.community import Community, CommunitySet
from repro.bgp.message import UpdateMessage
from repro.netbase.prefix import Prefix
from repro.policy.engine import PolicyChain, RoutingPolicy
from repro.policy.filters import AddCommunity, StripAllCommunities
from repro.simulator.network import Network
from repro.vendors.profiles import ALL_PROFILES, VendorProfile

#: The beacon-like prefix originated by Z1 in every lab run.
LAB_PREFIX = Prefix("203.0.113.0/24")

#: ASNs of the four lab autonomous systems.
AS_X, AS_Y, AS_Z, AS_C = 64500, 64510, 64520, 12456

#: The ingress geo-tags used from Exp2 onward (paper: Y:300 and Y:400).
TAG_Y2 = Community.of(AS_Y, 300)
TAG_Y3 = Community.of(AS_Y, 400)

EXPERIMENTS = ("exp1", "exp2", "exp3", "exp4")


@dataclass
class CapturedMessage:
    """One message seen on a tapped link."""

    timestamp: float
    sender: str
    kind: str  # "announce" | "withdraw"
    as_path: str
    communities: str

    @classmethod
    def from_update(
        cls, timestamp: float, sender_name: str, message: UpdateMessage
    ) -> "CapturedMessage":
        if message.is_announcement:
            attributes = message.attributes
            return cls(
                timestamp=timestamp,
                sender=sender_name,
                kind="announce",
                as_path=str(attributes.as_path),
                communities=str(attributes.communities),
            )
        return cls(
            timestamp=timestamp,
            sender=sender_name,
            kind="withdraw",
            as_path="",
            communities="",
        )


@dataclass
class ExperimentResult:
    """Observations from one lab run."""

    experiment: str
    vendor: str
    #: Messages captured on the X1–Y1 wire after the link event.
    x1_y1_messages: List[CapturedMessage] = field(default_factory=list)
    #: Messages that reached the collector after the link event.
    collector_messages: List[CapturedMessage] = field(default_factory=list)
    #: (AS path, communities) the collector held before the link event.
    pre_event_state: "tuple[str, str] | None" = None

    @property
    def update_sent_y1_to_x1(self) -> bool:
        """Did Y1 send any update toward X1?"""
        return any(m.sender == "Y1" for m in self.x1_y1_messages)

    @property
    def update_reached_collector(self) -> bool:
        """Did anything arrive at C1?"""
        return bool(self.collector_messages)

    @property
    def collector_saw_community_change(self) -> bool:
        """Did the collector-visible update carry communities?"""
        return any(
            m.kind == "announce" and m.communities
            for m in self.collector_messages
        )

    @property
    def collector_saw_duplicate(self) -> bool:
        """Did the collector receive an `nn`-style duplicate?

        True when an announcement arrived whose AS path and communities
        match what the collector already had — possible only in Exp3.
        """
        previous = self.pre_event_state
        for message in self.collector_messages:
            if message.kind != "announce":
                continue
            key = (message.as_path, message.communities)
            if previous == key:
                return True
            previous = key
        return False

    def summary_row(self) -> "tuple[str, str, str, str, str]":
        """(experiment, vendor, Y1→X1?, collector?, note) for tables."""
        if not self.update_sent_y1_to_x1:
            note = "suppressed at Y1"
        elif not self.update_reached_collector:
            note = "absorbed at X1"
        elif self.collector_saw_community_change:
            note = "community-only update at collector"
        else:
            note = "duplicate (no change) at collector"
        return (
            self.experiment,
            self.vendor,
            "yes" if self.update_sent_y1_to_x1 else "no",
            "yes" if self.update_reached_collector else "no",
            note,
        )


class LabTopology:
    """Builds and runs the Figure 1 network for one experiment."""

    def __init__(
        self,
        experiment: str,
        vendor: VendorProfile,
        *,
        mrai: float = 0.0,
    ):
        if experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment: {experiment!r}")
        self.experiment = experiment
        self.vendor = vendor
        self.network = Network()
        self._mrai = mrai
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        net = self.network
        self.c1 = net.add_collector("C1", AS_C)
        self.x1 = net.add_router(
            "X1", AS_X, router_id="192.0.2.10", vendor=self.vendor
        )
        self.y1 = net.add_router(
            "Y1", AS_Y, router_id="192.0.2.21", vendor=self.vendor
        )
        self.y2 = net.add_router(
            "Y2", AS_Y, router_id="192.0.2.22", vendor=self.vendor
        )
        self.y3 = net.add_router(
            "Y3", AS_Y, router_id="192.0.2.23", vendor=self.vendor
        )
        self.z1 = net.add_router(
            "Z1", AS_Z, router_id="192.0.2.30", vendor=self.vendor
        )

        tag_y2 = self._ingress_policy(TAG_Y2)
        tag_y3 = self._ingress_policy(TAG_Y3)
        x1_from_y1 = None
        x1_to_c1 = None
        if self.experiment == "exp3":
            x1_to_c1 = RoutingPolicy(
                export_chain=PolicyChain((StripAllCommunities(),))
            )
        if self.experiment == "exp4":
            x1_from_y1 = RoutingPolicy(
                import_chain=PolicyChain((StripAllCommunities(),))
            )

        # Collector side: C1 <-> X1.
        net.connect(self.c1, self.x1, policy_b=x1_to_c1, mrai=self._mrai)
        # Inter-AS: X1 <-> Y1.
        self.session_x1_y1 = net.connect(
            self.x1, self.y1, policy_a=x1_from_y1, mrai=self._mrai
        )
        # iBGP full mesh inside AS Y, with the Y1-Y2 session on a
        # failable physical link.
        self.link_y1_y2 = net.add_link("Y1-Y2")
        net.connect(self.y1, self.y2, link=self.link_y1_y2, mrai=self._mrai)
        net.connect(self.y1, self.y3, mrai=self._mrai)
        net.connect(self.y2, self.y3, mrai=self._mrai)
        # AS Y border: both Y2 and Y3 peer with Z1.
        net.connect(self.y2, self.z1, policy_a=tag_y2, mrai=self._mrai)
        net.connect(self.y3, self.z1, policy_a=tag_y3, mrai=self._mrai)

        self.z1.originate(LAB_PREFIX)
        net.converge()

    def _ingress_policy(self, tag: Community) -> "RoutingPolicy | None":
        if self.experiment == "exp1":
            return None
        return RoutingPolicy(import_chain=PolicyChain((AddCommunity(tag),)))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Fail the Y1–Y2 link and capture the fallout."""
        result = ExperimentResult(
            experiment=self.experiment, vendor=self.vendor.name
        )
        pre_path = self.best_path_at_collector()
        pre_communities = self.communities_at_collector()
        if pre_path is not None:
            result.pre_event_state = (
                pre_path,
                str(pre_communities) if pre_communities else "",
            )
        pre_collector = self.c1.message_count()

        def wire_tap(timestamp: float, sender, message) -> None:
            result.x1_y1_messages.append(
                CapturedMessage.from_update(timestamp, sender.name, message)
            )

        self.session_x1_y1.taps.append(wire_tap)
        self.link_y1_y2.fail()
        self.network.converge()
        for record in self.c1.records[pre_collector:]:
            result.collector_messages.append(
                CapturedMessage.from_update(
                    record.timestamp, "X1", record.message
                )
            )
        return result

    def best_path_at_collector(self) -> Optional[str]:
        """The AS path of the last announcement C1 received."""
        last = None
        for record in self.c1.records:
            if record.message.is_announcement:
                last = str(record.message.attributes.as_path)
        return last

    def communities_at_collector(self) -> Optional[CommunitySet]:
        """Communities on the last announcement C1 received."""
        last = None
        for record in self.c1.records:
            if record.message.is_announcement:
                last = record.message.attributes.communities
        return last


def run_experiment(
    experiment: str, vendor: VendorProfile, *, mrai: float = 0.0
) -> ExperimentResult:
    """Build the lab, run one experiment with one vendor."""
    return LabTopology(experiment, vendor, mrai=mrai).run()


def run_all_experiments(
    vendors: "tuple[VendorProfile, ...]" = ALL_PROFILES,
) -> "list[ExperimentResult]":
    """The full §3 behavior matrix: every experiment × every vendor."""
    results = []
    for experiment in EXPERIMENTS:
        for vendor in vendors:
            results.append(run_experiment(experiment, vendor))
    return results
