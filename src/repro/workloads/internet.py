"""The synthetic internet: topology + practices + events + collectors.

:class:`InternetModel` assembles everything into a runnable simulation
of one measurement day:

1. generate the AS topology (:mod:`repro.workloads.topology_gen`);
2. instantiate one router per AS with a vendor drawn from the
   configured mix, Gao-Rexford policies on every session, and the AS's
   community practice (geo-tagger / egress cleaner / ingress cleaner /
   ignorer);
3. peer route collectors with a sample of ASes (including one
   transparent IXP route server to exercise the §4 path repair);
4. originate all prefixes and converge ("warm-up", before the day);
5. schedule RIPE-style beacons plus a day of background events (link
   flaps, prefix flaps, MED churn, prepend changes);
6. run the day and hand the collector archives to the analysis layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.beacons.origin import BeaconOrigin
from repro.beacons.schedule import BeaconSchedule, ripe_beacon_prefixes
from repro.netbase.prefix import Prefix
from repro.netbase.timebase import SECONDS_PER_DAY, parse_utc
from repro.policy.engine import PolicyChain, RoutingPolicy
from repro.policy.filters import (
    PrependASN,
    SetMED,
    StripAllCommunities,
)
from repro.policy.geo import GeoTagger
from repro.simulator.network import Network
from repro.simulator.router import Router
from repro.simulator.session import BGPSession
from repro.vendors.profiles import (
    BIRD,
    BIRD2,
    CISCO_IOS,
    CISCO_IOS_XR,
    JUNOS,
    VendorProfile,
)
from repro.workloads.practices import (
    CommunityPractice,
    GaoRexfordExportFilter,
    RelationshipImportPolicy,
    ScrubInternalTags,
)
from repro.workloads.registry import AllocationRegistry
from repro.workloads.topology_gen import (
    ASRole,
    ASSpec,
    AdjacencySpec,
    Relationship,
    TopologyParams,
    TopologySpec,
    generate_topology,
)

#: Default vendor mix, roughly matching deployment folklore: Cisco
#: variants dominate, Juniper holds the high end, BIRD runs the route
#: servers and hobby edges.
DEFAULT_VENDOR_MIX: "Tuple[Tuple[VendorProfile, float], ...]" = (
    (CISCO_IOS, 0.45),
    (CISCO_IOS_XR, 0.10),
    (JUNOS, 0.25),
    (BIRD, 0.12),
    (BIRD2, 0.08),
)


@dataclass
class InternetConfig:
    """All dials for one simulated measurement day."""

    topology: "TopologyParams" = field(default_factory=TopologyParams)
    #: UTC midnight of the simulated day.
    day_start: float = field(
        default_factory=lambda: parse_utc("2020-03-15")
    )
    #: Community practice fractions among transit/tier-1 ASes; they
    #: form cumulative bands over a uniform [0, 1) roll, so they must
    #: sum to <= 1 (the remainder are ignorers).
    tagger_fraction: float = 0.85
    cleaner_egress_fraction: float = 0.10
    cleaner_ingress_fraction: float = 0.05
    #: Fraction of ASes that scrub their internal relationship tags.
    scrub_internal_fraction: float = 0.5
    vendor_mix: "Tuple[Tuple[VendorProfile, float], ...]" = (
        DEFAULT_VENDOR_MIX
    )
    #: Collector names; each peers with ``collector_peer_fraction`` of
    #: the ASes.
    collector_names: "Tuple[str, ...]" = ("rrc00", "route-views2")
    collector_peer_fraction: float = 0.35
    #: Probability that a collector peer applies egress community
    #: hygiene on its collector-facing session (the paper's AS20811
    #: pattern: >99% of its announcements arrive community-free,
    #: turning upstream community exploration into `nn` duplicates).
    collector_peer_clean_fraction: float = 0.12
    #: One collector peer acts as a transparent IXP route server.
    include_route_server: bool = True
    #: Inject unallocated-resource noise for the cleaning pipeline.
    include_bogons: bool = True
    beacon_count: int = 4
    #: Background event counts over the day.
    link_flaps: int = 28
    prefix_flaps: int = 24
    med_churn_events: int = 90
    #: Bias link-flap selection toward sessions that are part of a
    #: parallel-link group: failing one of several parallel links is
    #: the paper's Exp1/Exp2 stimulus (internal next-hop change) and
    #: produces `nn`/`nc` instead of genuine path changes.
    parallel_flap_bias: float = 0.65
    #: Collector peering-session resets per day: the peer re-sends its
    #: full table on re-establishment, a classic duplicate (`nn`)
    #: source in real archives.
    collector_session_resets: int = 60
    #: Origin-side community toggles (config/TE changes): the dominant
    #: real-world source of `nc` announcements — the path is untouched
    #: while the community attribute changes everywhere downstream.
    community_churn_events: int = 150
    prepend_change_events: int = 40
    #: Session propagation delay range (seconds).
    delay_range: "Tuple[float, float]" = (0.005, 0.05)
    mrai: float = 0.0
    #: Collector archive policy: ``full`` keeps every message in
    #: memory, ``mrt-spill`` streams the archive to an MRT file on
    #: disk (bounded memory at any run length; replayable through the
    #: mrt-replay scenarios).
    archive_policy: str = "full"
    #: Directory for ``mrt-spill`` archives (None: system temp).
    spill_dir: "Optional[str]" = None
    seed: int = 424242
    #: Simulated duration of the "day" in seconds; shorter values give
    #: proportionally faster runs (background events squeeze into the
    #: window, beacons still follow their absolute schedule).
    day_seconds: float = SECONDS_PER_DAY

    @classmethod
    def small(cls, **overrides) -> "InternetConfig":
        """A fast test-sized internet (tens of ASes)."""
        params = TopologyParams(
            tier1_count=2,
            transit_count=5,
            stub_count=12,
            seed=7,
        )
        config = cls(
            topology=params,
            beacon_count=2,
            link_flaps=6,
            prefix_flaps=5,
            med_churn_events=6,
            community_churn_events=10,
            prepend_change_events=2,
            collector_session_resets=3,
            collector_peer_fraction=0.4,
            seed=7,
        )
        for key, value in overrides.items():
            setattr(config, key, value)
        return config

    @classmethod
    def mar20(cls, **overrides) -> "InternetConfig":
        """The *d_mar20*-like default day (medium scale)."""
        config = cls()
        for key, value in overrides.items():
            setattr(config, key, value)
        return config


@dataclass
class SimulatedDay:
    """Everything produced by one :meth:`InternetModel.run` call."""

    config: InternetConfig
    topology: TopologySpec
    network: Network
    registry: AllocationRegistry
    beacon_prefixes: "List[Prefix]"
    practices: "Dict[int, CommunityPractice]"
    day_start: float

    @property
    def day_end(self) -> float:
        """End of the simulated window (midnight for full days)."""
        return self.day_start + self.config.day_seconds

    def collector(self, name: str):
        """Access one collector by name."""
        return self.network.collectors[name]

    def collectors(self) -> "List":
        """All collectors."""
        return list(self.network.collectors.values())

    def total_collected_messages(self) -> int:
        """Messages archived across all collectors."""
        return sum(
            collector.message_count() for collector in self.collectors()
        )


class InternetModel:
    """Builder/runner for one simulated measurement day."""

    def __init__(self, config: "InternetConfig | None" = None):
        self.config = config or InternetConfig()
        # One generator seeded here drives every day-schedule draw;
        # the topology layout draws only from its own seed inside
        # generate_topology.  Nothing uses the global random module,
        # so identical configs are bit-reproducible and seed sweeps
        # rerun the same internet under different event randomness.
        self._rng = random.Random(self.config.seed)
        self.topology = generate_topology(self.config.topology)
        self.registry = AllocationRegistry()
        self.network = Network(
            start_time=self.config.day_start - 7200.0,
            archive_policy=self.config.archive_policy,
            spill_dir=self.config.spill_dir,
        )
        #: Live sinks attached to every collector at creation time, so
        #: they see the warm-up convergence traffic exactly like the
        #: archive does (see :meth:`attach_collector_sink`).
        self._collector_sinks: "List" = []
        self.practices: Dict[int, CommunityPractice] = {}
        self._routers: Dict[int, Router] = {}
        self._taggers: Dict[int, GeoTagger] = {}
        self._scrubs: Dict[int, bool] = {}
        #: Session policies by what determines them, shared so that
        #: equal-policy sessions form one update group on the router.
        self._policies: Dict[tuple, RoutingPolicy] = {}
        self._adjacency_sessions: List[BGPSession] = []
        self._parallel_sessions: List[BGPSession] = []
        self._collector_sessions: List[BGPSession] = []
        self.beacon_prefixes: List[Prefix] = []
        self._beacon_origins: List[BeaconOrigin] = []
        self._bogon_prefixes: List[Prefix] = []

    # ------------------------------------------------------------------
    # pipeline attachment
    # ------------------------------------------------------------------
    def attach_collector_sink(self, sink) -> "InternetModel":
        """Stream every collected message to *sink*, live.

        Must be called before :meth:`build` (collectors are wired at
        creation so sinks observe warm-up convergence exactly like the
        archives do).  Returns self for chaining.
        """
        if self._routers:
            raise RuntimeError(
                "attach_collector_sink must be called before build()"
            )
        self._collector_sinks.append(sink)
        return self

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self) -> "InternetModel":
        """Construct the network (idempotence is not supported)."""
        self._assign_practices()
        self._create_routers()
        self._create_sessions()
        self._create_collectors()
        self._register_allocations()
        self._originate_prefixes()
        self.network.converge(max_events=5_000_000)
        return self

    def _assign_practices(self) -> None:
        config = self.config
        rng = self._rng
        transit_like = self.topology.ases_by_role(
            ASRole.TIER1
        ) + self.topology.ases_by_role(ASRole.TRANSIT)
        for spec in transit_like:
            roll = rng.random()
            if roll < config.tagger_fraction:
                practice = CommunityPractice.TAGGER
            elif roll < config.tagger_fraction + config.cleaner_egress_fraction:
                practice = CommunityPractice.CLEANER_EGRESS
            elif roll < (
                config.tagger_fraction
                + config.cleaner_egress_fraction
                + config.cleaner_ingress_fraction
            ):
                practice = CommunityPractice.CLEANER_INGRESS
            else:
                practice = CommunityPractice.IGNORER
            self.practices[spec.asn] = practice
        for spec in self.topology.ases_by_role(ASRole.STUB):
            # Stubs occasionally clean; mostly they ignore.
            roll = rng.random()
            if roll < config.cleaner_egress_fraction:
                self.practices[spec.asn] = CommunityPractice.CLEANER_EGRESS
            else:
                self.practices[spec.asn] = CommunityPractice.IGNORER
        for asn in self.practices:
            self._scrubs[asn] = (
                rng.random() < config.scrub_internal_fraction
            )

    def _vendor_for(self, asn: int) -> VendorProfile:
        roll = self._rng.random()
        cumulative = 0.0
        for vendor, weight in self.config.vendor_mix:
            cumulative += weight
            if roll < cumulative:
                return vendor
        return self.config.vendor_mix[-1][0]

    def _create_routers(self) -> None:
        for spec in sorted(
            self.topology.ases.values(), key=lambda item: item.asn
        ):
            router = self.network.add_router(
                f"as{spec.asn}",
                spec.asn,
                router_id=_router_id_for(spec.asn),
                vendor=self._vendor_for(spec.asn),
            )
            self._routers[spec.asn] = router
        # Build one GeoTagger per tagging AS covering every ingress
        # point it will have; locations are attached per session later.
        for spec in sorted(
            self.topology.ases.values(), key=lambda item: item.asn
        ):
            if self.practices.get(spec.asn) != CommunityPractice.TAGGER:
                continue
            locations = {}
            for adjacency in self.topology.adjacencies:
                if spec.asn not in (adjacency.asn_a, adjacency.asn_b):
                    continue
                other = (
                    adjacency.asn_b
                    if adjacency.asn_a == spec.asn
                    else adjacency.asn_a
                )
                for index, city in enumerate(adjacency.cities):
                    locations[_ingress_name(other, index, city)] = city
            self._taggers[spec.asn] = GeoTagger(
                spec.asn & 0xFFFF, locations
            )

    def _create_sessions(self) -> None:
        for adjacency in self.topology.adjacencies:
            for index, city in enumerate(adjacency.cities):
                self._create_one_session(adjacency, index, city)

    def _create_one_session(
        self, adjacency: AdjacencySpec, index: int, city
    ) -> None:
        config = self.config
        router_a = self._routers[adjacency.asn_a]
        router_b = self._routers[adjacency.asn_b]
        rel_ab = adjacency.relationship  # A's view of B
        rel_ba = rel_ab.inverse()
        delay = self._rng.uniform(*config.delay_range)
        ingress_a = _ingress_name(adjacency.asn_b, index, city)
        ingress_b = _ingress_name(adjacency.asn_a, index, city)
        session = self.network.connect(
            router_a,
            router_b,
            delay=delay,
            mrai=config.mrai,
            policy_a=self._policy_for(
                adjacency.asn_a, rel_ab, adjacency, index
            ),
            policy_b=self._policy_for(
                adjacency.asn_b, rel_ba, adjacency, index
            ),
            ingress_point_a=ingress_a,
            ingress_point_b=ingress_b,
        )
        self._adjacency_sessions.append(session)
        if adjacency.link_count > 1:
            self._parallel_sessions.append(session)

    def _policy_for(
        self,
        local_asn: int,
        relationship_to_neighbor: Relationship,
        adjacency: AdjacencySpec,
        link_index: int,
    ) -> RoutingPolicy:
        """Build import/export chains for one session endpoint."""
        med = None
        if (
            relationship_to_neighbor == Relationship.PROVIDER
            and adjacency.link_count > 1
        ):
            # Multi-link customer: steer inbound traffic with MED.
            med = 10 * (link_index + 1)
        practice = self.practices.get(local_asn, CommunityPractice.IGNORER)
        import_steps = []
        if practice == CommunityPractice.CLEANER_INGRESS:
            import_steps.append(StripAllCommunities())
        tagger = self._taggers.get(local_asn)
        if tagger is not None:
            import_steps.append(tagger)
        import_steps.append(
            RelationshipImportPolicy(local_asn, relationship_to_neighbor)
        )
        export_steps = [
            GaoRexfordExportFilter(local_asn, relationship_to_neighbor)
        ]
        if self._scrubs.get(local_asn, False):
            export_steps.append(ScrubInternalTags(local_asn))
        if practice == CommunityPractice.CLEANER_EGRESS:
            export_steps.append(StripAllCommunities())
        if med is not None:
            export_steps.append(SetMED(med))
        return self._policies.setdefault(
            (local_asn, relationship_to_neighbor, med),
            RoutingPolicy(
                import_chain=PolicyChain(import_steps),
                export_chain=PolicyChain(export_steps),
            ),
        )

    def _create_collectors(self) -> None:
        config = self.config
        rng = self._rng
        all_specs = sorted(
            self.topology.ases.values(), key=lambda item: item.asn
        )
        route_server_assigned = not config.include_route_server
        for collector_name in config.collector_names:
            collector = self.network.add_collector(collector_name)
            for sink in self._collector_sinks:
                collector.attach_sink(sink)
            count = max(3, int(len(all_specs) * config.collector_peer_fraction))
            peers = rng.sample(all_specs, min(count, len(all_specs)))
            for spec in peers:
                router = self._routers[spec.asn]
                if not route_server_assigned:
                    router.transparent = True
                    route_server_assigned = True
                export_steps = [
                    GaoRexfordExportFilter(
                        spec.asn, Relationship.CUSTOMER
                    )
                ]
                if self._scrubs.get(spec.asn, False):
                    export_steps.append(ScrubInternalTags(spec.asn))
                cleans = (
                    self.practices.get(spec.asn)
                    == CommunityPractice.CLEANER_EGRESS
                    or rng.random() < config.collector_peer_clean_fraction
                )
                if cleans:
                    export_steps.append(StripAllCommunities())
                session = self.network.connect(
                    collector,
                    router,
                    delay=self._rng.uniform(*config.delay_range),
                    policy_b=self._policies.setdefault(
                        (spec.asn, cleans),
                        RoutingPolicy(export_chain=PolicyChain(export_steps)),
                    ),
                )
                self._collector_sessions.append(session)

    def _register_allocations(self) -> None:
        """Register every legitimate resource; leave bogons out."""
        allocation_time = self.config.day_start - 10 * 365 * 86400.0
        for spec in self.topology.ases.values():
            self.registry.allocate_asn(spec.asn, at=allocation_time)
            for prefix in spec.prefixes:
                self.registry.allocate_prefix(prefix, at=allocation_time)
        self.registry.allocate_prefix(
            Prefix("84.205.64.0/19"), at=allocation_time
        )
        for collector in self.config.collector_names:
            self.registry.allocate_asn(12_456, at=allocation_time)

    def _originate_prefixes(self) -> None:
        for spec in sorted(
            self.topology.ases.values(), key=lambda item: item.asn
        ):
            router = self._routers[spec.asn]
            for prefix in spec.prefixes:
                router.originate(prefix)
        if self.config.include_bogons:
            self._originate_bogons()

    def _originate_bogons(self) -> None:
        """Unregistered resources that the cleaning pipeline must drop."""
        stubs = self.topology.ases_by_role(ASRole.STUB)
        if not stubs:
            return
        # A legitimate AS leaking a prefix from unallocated space.
        leaky = self._routers[stubs[0].asn]
        bogon_prefix = Prefix("102.66.0.0/24")
        leaky.originate(bogon_prefix)
        self._bogon_prefixes.append(bogon_prefix)

    # ------------------------------------------------------------------
    # day schedule
    # ------------------------------------------------------------------
    def schedule_day(self) -> None:
        """Queue beacons and background events for the day."""
        self._schedule_beacons()
        self._schedule_link_flaps()
        self._schedule_prefix_flaps()
        self._schedule_med_churn()
        self._schedule_community_churn()
        self._schedule_prepend_changes()
        self._schedule_collector_resets()

    def _beacon_hosts(self) -> "List[ASSpec]":
        """Multihomed stubs make the best beacon hosts."""
        stubs = self.topology.ases_by_role(ASRole.STUB)
        multihomed = [
            spec for spec in stubs if self.topology.degree(spec.asn) >= 2
        ]
        pool = multihomed or stubs
        hosts = []
        for index in range(self.config.beacon_count):
            hosts.append(pool[index % len(pool)])
        return hosts

    def _schedule_beacons(self) -> None:
        schedule = BeaconSchedule()
        prefixes = ripe_beacon_prefixes(max(self.config.beacon_count, 1))
        allocation_time = self.config.day_start - 10 * 365 * 86400.0
        window_end = self.config.day_start + self.config.day_seconds
        for spec, prefix in zip(self._beacon_hosts(), prefixes):
            origin = BeaconOrigin(
                self._routers[spec.asn], prefix, schedule=schedule
            )
            origin.schedule_day(self.config.day_start, until=window_end)
            self._beacon_origins.append(origin)
            self.beacon_prefixes.append(prefix)
            self.registry.allocate_prefix(prefix, at=allocation_time)

    def _day_times(self, count: int, *, margin: float = 600.0) -> "List[float]":
        start = self.config.day_start + margin
        end = self.config.day_start + self.config.day_seconds - margin
        end = max(end, start)
        return sorted(
            self._rng.uniform(start, end) for _ in range(count)
        )

    def _schedule_link_flaps(self) -> None:
        for when in self._day_times(self.config.link_flaps):
            if (
                self._parallel_sessions
                and self._rng.random() < self.config.parallel_flap_bias
            ):
                session = self._rng.choice(self._parallel_sessions)
            else:
                session = self._rng.choice(self._adjacency_sessions)
            duration = self._rng.uniform(30.0, 300.0)
            self.network.queue.schedule_at(
                when, _make_flap(self.network, session, duration)
            )

    def _schedule_collector_resets(self) -> None:
        if not self._collector_sessions:
            return
        for when in self._day_times(self.config.collector_session_resets):
            session = self._rng.choice(self._collector_sessions)
            duration = self._rng.uniform(5.0, 30.0)
            self.network.queue.schedule_at(
                when, _make_flap(self.network, session, duration)
            )

    def _schedule_prefix_flaps(self) -> None:
        candidates = [
            (spec.asn, prefix)
            for spec in self.topology.ases.values()
            for prefix in spec.prefixes
        ]
        if not candidates:
            return
        for when in self._day_times(self.config.prefix_flaps):
            asn, prefix = self._rng.choice(candidates)
            router = self._routers[asn]
            downtime = self._rng.uniform(60.0, 600.0)
            self.network.queue.schedule_at(
                when, _make_prefix_flap(self.network, router, prefix, downtime)
            )

    def _schedule_med_churn(self) -> None:
        stubs = [
            spec
            for spec in self.topology.ases_by_role(ASRole.STUB)
            if spec.prefixes
        ]
        if not stubs:
            return
        for when in self._day_times(self.config.med_churn_events):
            spec = self._rng.choice(stubs)
            router = self._routers[spec.asn]
            prefix = self._rng.choice(spec.prefixes)
            med = self._rng.choice((0, 50, 100, 200))
            self.network.queue.schedule_at(
                when, _make_med_change(router, prefix, med)
            )

    def _schedule_community_churn(self) -> None:
        """Origin-side community toggles: the path never changes, the
        community attribute does — pure `nc` generators (cleaned to
        `nn` by egress-cleaning ASes on the way)."""
        origins = [
            spec
            for spec in sorted(
                self.topology.ases.values(), key=lambda item: item.asn
            )
            if spec.prefixes
        ]
        if not origins:
            return
        for when in self._day_times(self.config.community_churn_events):
            spec = self._rng.choice(origins)
            router = self._routers[spec.asn]
            prefix = self._rng.choice(spec.prefixes)
            variant = self._rng.randint(0, 5)
            self.network.queue.schedule_at(
                when, _make_community_change(router, prefix, variant)
            )

    def _schedule_prepend_changes(self) -> None:
        """Traffic-engineering events producing xc/xn announcements."""
        stub_sessions: "List[Tuple[Router, BGPSession]]" = []
        single_homed: "List[Tuple[Router, BGPSession]]" = []
        for session in self._adjacency_sessions:
            for node in (session.node_a, session.node_b):
                if not isinstance(node, Router):
                    continue
                spec = self.topology.ases.get(int(node.asn))
                if spec is not None and spec.role == ASRole.STUB:
                    stub_sessions.append((node, session))
                    if self.topology.degree(spec.asn) == 1:
                        single_homed.append((node, session))
        if not stub_sessions:
            return
        # Single-homed stubs keep their (now longer) path as best
        # everywhere, so their prepend changes surface as xc/xn rather
        # than being masked by a path switch.
        preferred = single_homed or stub_sessions
        for when in self._day_times(self.config.prepend_change_events):
            pool = preferred if self._rng.random() < 0.8 else stub_sessions
            router, session = self._rng.choice(pool)
            count = self._rng.choice((1, 2, 3))
            self.network.queue.schedule_at(
                when, _make_prepend_change(router, session, count)
            )

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> SimulatedDay:
        """Build (if needed), schedule the day, run it, return results."""
        if not self._routers:
            self.build()
        self.schedule_day()
        self.run_day()
        return self.simulated_day()

    def run_day(self) -> None:
        """Execute the scheduled day (build/schedule must be done).

        Split out of :meth:`run` so the scenario engine can time the
        build and the day as separate phases.
        """
        day_end = self.config.day_start + self.config.day_seconds
        self.network.run(until=day_end, max_events=20_000_000)
        # Let in-flight churn settle so archives end cleanly.
        self.network.run(max_events=2_000_000)

    def simulated_day(self) -> SimulatedDay:
        """The results container for the current network state."""
        return SimulatedDay(
            config=self.config,
            topology=self.topology,
            network=self.network,
            registry=self.registry,
            beacon_prefixes=list(self.beacon_prefixes),
            practices=dict(self.practices),
            day_start=self.config.day_start,
        )


# ----------------------------------------------------------------------
# event closures (module-level for picklability and clarity)
# ----------------------------------------------------------------------
def _make_flap(network: Network, session: BGPSession, duration: float):
    def flap() -> None:
        if not session.established:
            return
        session.bring_down()
        network.queue.schedule(duration, session.bring_up)

    return flap


def _make_prefix_flap(
    network: Network, router: Router, prefix: Prefix, downtime: float
):
    def start() -> None:
        if prefix not in router.originated_prefixes():
            return
        router.withdraw_origination(prefix)
        network.queue.schedule(
            downtime, lambda: router.originate(prefix)
        )

    return start


def _make_community_change(router: Router, prefix: Prefix, variant: int):
    from repro.bgp.community import Community, CommunitySet

    def change() -> None:
        if prefix not in router.originated_prefixes():
            return
        tag = Community.of(int(router.asn) & 0xFFFF, 700 + variant)
        router.originate(prefix, communities=CommunitySet((tag,)))

    return change


def _make_med_change(router: Router, prefix: Prefix, med: int):
    def change() -> None:
        if prefix in router.originated_prefixes():
            router.originate(prefix, med=med)

    return change


def _make_prepend_change(
    router: Router, session: BGPSession, count: int
):
    def change() -> None:
        if not session.established:
            return
        policy = router.policy_for(session)
        steps = [
            step
            for step in policy.export_chain.steps
            if not isinstance(step, PrependASN)
        ]
        steps.append(PrependASN(count))
        router.set_policy(
            session,
            RoutingPolicy(
                import_chain=policy.import_chain,
                export_chain=PolicyChain(steps),
            ),
        )
        router.refresh_exports(session)

    return change


def _router_id_for(asn: int) -> str:
    return f"10.{(asn >> 8) & 0xFF}.{asn & 0xFF}.1"


def _ingress_name(neighbor_asn: int, link_index: int, city) -> str:
    return f"as{neighbor_asn}-link{link_index}-{city.city}"
