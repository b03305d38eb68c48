"""Pluggable metric collectors for the scenario engine.

Mirrors the ``CollectorProxy`` shape of simulation frameworks like
Icarus: the engine owns one :class:`CollectorProxy` that fans every
event out to the collectors the spec named, and each collector distils
its own slice of the run into a plain JSON-friendly ``dict``.  Keeping
results as plain data is what makes the sweep runner's caching and
cross-process determinism checks trivial.

Two event streams exist:

* internet and mrt scenarios feed per-prefix :class:`Observation`
  objects (the same stream the analysis layer consumes);
* lab scenarios feed one :class:`ExperimentResult` per
  experiment × vendor cell.

The proxy is the run's one §5 classification point: it types each
observation once and hands that type to every collector with the
observation, and each collector counts it into its own state.

A collector implements whichever hooks it cares about; unused hooks
are no-ops, so a `"table2"` collector silently collects nothing on a
lab run instead of crashing it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type

from repro.analysis.classify import (
    TYPE_ORDER,
    AnnouncementType,
    TypeCounts,
    UpdateClassifier,
)
from repro.analysis.observations import Observation


class ScenarioContext:
    """Run-scoped facts collectors may need (spec, beacons).

    With live-sink streaming the context is created *before* the
    simulation is built, so ``beacon_prefixes`` starts empty.  It is
    filled in place right after the day is scheduled, before the day
    runs and so before any beacon prefix is announced: a collector may
    keep a reference to the set and test membership online.
    """

    def __init__(self, spec, *, beacon_prefixes=None):
        self.spec = spec
        self.beacon_prefixes = set(beacon_prefixes or ())


class MetricCollector:
    """Base collector: subclass and override the hooks you need."""

    #: Registry key; subclasses must set it.
    name: str = ""

    def start(self, context: ScenarioContext) -> None:
        """Called once before any event is delivered."""

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        """One per-prefix observation (internet and mrt runs).

        *kind* is its §5 type, classified once by the proxy for every
        collector: ``None`` for withdrawals and for the first
        announcement on a (session, prefix) stream.
        """

    def observe_lab(self, result) -> None:
        """One lab :class:`ExperimentResult` (lab runs)."""

    def finish(self) -> dict:
        """Return this collector's metrics as a JSON-friendly dict."""
        return {}


class CollectorProxy:
    """Fans events out to every attached collector.

    Usable directly as a pipeline sink: :meth:`push` is
    :meth:`observe`, so the engine can terminate a live observation
    stream with the proxy itself.
    """

    def __init__(self, collectors: "Iterable[MetricCollector]"):
        self.collectors: "List[MetricCollector]" = list(collectors)
        # The run's single §5 classifier; its types feed every collector.
        self._classifier = UpdateClassifier()
        #: Observations delivered so far (mid-run progress indicator).
        self.observed = 0

    def start(self, context: ScenarioContext) -> None:
        for collector in self.collectors:
            collector.start(context)

    def observe(self, observation: Observation) -> None:
        self.observed += 1
        kind = self._classifier.observe(observation)
        for collector in self.collectors:
            collector.observe(observation, kind)

    def observe_lab(self, result) -> None:
        for collector in self.collectors:
            collector.observe_lab(result)

    def finish(self) -> "Dict[str, dict]":
        return {
            collector.name: collector.finish()
            for collector in self.collectors
        }

    # pipeline sink protocol -------------------------------------------
    def push(self, observation: Observation) -> None:
        self.observe(observation)

    def close(self) -> None:
        """Sink hook; the engine calls finish() explicitly."""


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_COLLECTORS: "Dict[str, Type[MetricCollector]]" = {}


def collector(cls: "Type[MetricCollector]") -> "Type[MetricCollector]":
    """Class decorator registering a collector under its ``name``."""
    if not cls.name:
        raise ValueError(f"collector {cls.__name__} must set a name")
    if cls.name in _COLLECTORS:
        raise ValueError(f"duplicate collector name: {cls.name!r}")
    _COLLECTORS[cls.name] = cls
    return cls


def known_collector_names() -> "List[str]":
    """All registered collector names, sorted."""
    return sorted(_COLLECTORS)


def make_collectors(names: "Iterable[str]") -> CollectorProxy:
    """Instantiate a proxy for the named collectors (spec order)."""
    instances = []
    for name in names:
        try:
            instances.append(_COLLECTORS[name]())
        except KeyError:
            raise KeyError(
                f"unknown collector {name!r}; known:"
                f" {', '.join(known_collector_names())}"
            ) from None
    return CollectorProxy(instances)


# ----------------------------------------------------------------------
# built-in collectors
# ----------------------------------------------------------------------
class _TypeCountsCollector(MetricCollector):
    """Base for collectors that tally the proxy's §5 types."""

    def __init__(self):
        self._counts = TypeCounts()

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        self._counts.tally(observation, kind)


@collector
class UpdateCountsCollector(_TypeCountsCollector):
    """Announcement/withdrawal volume plus the §5 type break-down."""

    name = "update_counts"

    def finish(self) -> dict:
        counts = self._counts
        return {
            "observations": counts.announcements_total + counts.withdrawals,
            "announcements": counts.announcements_total,
            "withdrawals": counts.withdrawals,
            "types": {
                kind.value: counts.counts[kind] for kind in TYPE_ORDER
            },
        }


@collector
class DuplicatesCollector(_TypeCountsCollector):
    """Duplicate (`nn`) and community-only (`nc`) announcement rates —
    the paper's headline spurious-update metric."""

    name = "duplicates"

    def finish(self) -> dict:
        counts = self._counts
        total = counts.classified_total
        nn = counts.counts[AnnouncementType.NN]
        nc = counts.counts[AnnouncementType.NC]
        return {
            "classified": total,
            "nn": nn,
            "nc": nc,
            "nn_share": nn / total if total else 0.0,
            "nc_share": nc / total if total else 0.0,
            "spurious_share": (nn + nc) / total if total else 0.0,
        }


@collector
class CommunityPrevalenceCollector(MetricCollector):
    """How widespread communities are in the collected feed."""

    name = "community_prevalence"

    def __init__(self):
        self._announcements = 0
        self._with_communities = 0
        # Distinct classic-community frozensets, folded into 16-bit
        # values only when read: decode interning repeats the same
        # frozensets, and a frozenset caches its hash.
        self._classic_sets: set = set()

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        if not observation.is_withdrawal:
            self._count_announcement(observation)

    def _count_announcement(self, observation: Observation) -> None:
        self._announcements += 1
        communities = observation.communities
        if not communities.is_empty():
            self._with_communities += 1
            self._classic_sets.add(communities.classic)

    def _unique_16bit(self) -> frozenset:
        # Community is an int subclass: the union counts raw values.
        return frozenset().union(*self._classic_sets)

    def finish(self) -> dict:
        share = (
            self._with_communities / self._announcements
            if self._announcements
            else 0.0
        )
        return {
            "announcements": self._announcements,
            "with_communities": self._with_communities,
            "community_share": share,
            "unique_16bit_communities": len(self._unique_16bit()),
        }


@collector
class Table1Collector(CommunityPrevalenceCollector):
    """The paper's Table 1 dataset overview.

    Keeps only the distinct prefixes, sessions and AS paths — the
    interned objects the decoder hands out — so memory tracks distinct
    entities rather than feed length.  Peers, ASes and the IPv4/IPv6
    split are derived from them when read.  The community columns are
    the inherited prevalence counts.
    """

    name = "table1"

    def __init__(self):
        super().__init__()
        self._prefixes: set = set()
        self._sessions: set = set()
        self._paths: set = set()
        self._withdrawals = 0

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        self._sessions.add(observation.session)
        self._prefixes.add(observation.prefix)
        if observation.is_withdrawal:
            self._withdrawals += 1
            return
        self._count_announcement(observation)
        if observation.as_path is not None:
            self._paths.add(observation.as_path)

    def finish(self) -> dict:
        ipv4 = sum(1 for prefix in self._prefixes if prefix.version == 4)
        ases = {int(asn) for path in self._paths for asn in path.asns()}
        return {
            "ipv4_prefixes": ipv4,
            "ipv6_prefixes": len(self._prefixes) - ipv4,
            "ases": len(ases),
            "sessions": len(self._sessions),
            "peers": len({session.peer_asn for session in self._sessions}),
            "announcements": self._announcements,
            "with_communities": self._with_communities,
            "unique_16bit_communities": len(self._unique_16bit()),
            "unique_as_paths": len(self._paths),
            "withdrawals": self._withdrawals,
            "community_share": super().finish()["community_share"],
        }


def _shares(counts: TypeCounts) -> dict:
    return {kind.value: counts.share(kind) for kind in TYPE_ORDER}


@collector
class Table2Collector(MetricCollector):
    """The paper's Table 2 announcement-type shares (full + beacons).

    Counts the full feed and the beacon-prefix subset online.  The
    subset needs no classifier of its own: beacon membership is by
    prefix, so a beacon announcement's (session, prefix) stream — and
    hence its shared type — is the same in both columns.
    """

    name = "table2"

    def __init__(self):
        self._full = TypeCounts()
        self._beacon = TypeCounts()
        self._beacon_prefixes: set = set()

    def start(self, context: ScenarioContext) -> None:
        # Keep the engine's set itself, not a copy: it is filled in
        # place once the day is scheduled, after start().
        self._beacon_prefixes = context.beacon_prefixes

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        self._full.tally(observation, kind)
        if observation.prefix in self._beacon_prefixes:
            self._beacon.tally(observation, kind)

    def finish(self) -> dict:
        # No beacon schedule (MRT replays) leaves the subset column None.
        return {
            "full_shares": _shares(self._full),
            "beacon_shares": (
                _shares(self._beacon) if self._beacon_prefixes else None
            ),
            "classified": self._full.classified_total,
        }


@collector
class DampingReplayCollector(MetricCollector):
    """What an RFC 2439 damper at the collector edge would withhold.

    Replays the feed through a per-session :class:`RouteDamper` exactly
    like the A5 ablation: type changes accrue penalty, and every
    announcement landing inside a suppression window counts as damped.
    """

    name = "damping"

    def __init__(self):
        from repro.simulator.damping import RouteDamper

        self._damper = RouteDamper()
        self._passed = {kind: 0 for kind in AnnouncementType}
        self._suppressed = {kind: 0 for kind in AnnouncementType}

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        # The damper only hashes its peer key, so the interned
        # SessionKey serves as well as its string form.
        session = observation.session
        if observation.is_withdrawal:
            self._damper.penalize(
                session,
                observation.prefix,
                observation.timestamp,
                is_withdrawal=True,
            )
            return
        if kind is None:
            return
        if kind != AnnouncementType.NN:
            self._damper.penalize(
                session,
                observation.prefix,
                observation.timestamp,
                is_withdrawal=False,
            )
        if self._damper.is_suppressed(
            session, observation.prefix, observation.timestamp
        ):
            self._suppressed[kind] += 1
        else:
            self._passed[kind] += 1

    def finish(self) -> dict:
        total = sum(self._passed.values()) + sum(
            self._suppressed.values()
        )
        damped = sum(self._suppressed.values())
        return {
            "announcements": total,
            "damped": damped,
            "damped_share": damped / total if total else 0.0,
            "damped_by_type": {
                kind.value: self._suppressed[kind] for kind in TYPE_ORDER
            },
            "suppress_events": self._damper.suppressions,
            "releases": self._damper.releases,
        }


@collector
class LabMatrixCollector(MetricCollector):
    """The §3 behavior matrix: one row per experiment × vendor."""

    name = "lab_matrix"

    def __init__(self):
        self._rows: "List[List[str]]" = []
        self._cells: "List[dict]" = []

    def observe_lab(self, result) -> None:
        self._rows.append(list(result.summary_row()))
        self._cells.append(
            {
                "experiment": result.experiment,
                "vendor": result.vendor,
                "update_sent_y1_to_x1": result.update_sent_y1_to_x1,
                "update_reached_collector": result.update_reached_collector,
                "collector_saw_community_change": (
                    result.collector_saw_community_change
                ),
                "collector_saw_duplicate": result.collector_saw_duplicate,
                "collector_messages": len(result.collector_messages),
            }
        )

    def finish(self) -> dict:
        return {
            "headers": ["exp", "vendor", "Y1->X1", "collector", "behavior"],
            "rows": self._rows,
            "cells": self._cells,
            "duplicates_at_collector": sum(
                1 for cell in self._cells if cell["collector_saw_duplicate"]
            ),
        }
