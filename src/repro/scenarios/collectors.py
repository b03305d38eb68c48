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
observation once and hands that type, with the observation, to every
collector that observes.  The classifier's own tally is the one set of
type counts: the collectors that report it share that object instead
of counting a copy.  Community prevalence is counted the same way:
once per run, in one :class:`CommunityPrevalence` shared by every
collector that reports it.

A collector implements whichever hooks it cares about; unused hooks
are no-ops, so a `"table2"` collector silently collects nothing on a
lab run instead of crashing it.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Type

from repro.analysis.classify import (
    TYPE_ORDER,
    AnnouncementType,
    TypeCounts,
    UpdateClassifier,
)
from repro.analysis.exploration import (
    CommunityExplorationDetector,
    stream_phase_activity,
)
from repro.analysis.observations import Observation, StreamGrouper
from repro.analysis.revealed import RevealedInfoAnalysis
from repro.analysis.tomography import (
    CommunityBehaviorClassifier,
    InferredBehavior,
    score_against_ground_truth,
)
from repro.beacons.schedule import BeaconSchedule, ripe_beacon_prefixes


class ScenarioContext:
    """Run-scoped facts collectors may need (spec, beacons, practices).

    With live-sink streaming the context is created *before* the
    simulation is built, so ``beacon_prefixes`` and ``practices`` (ASN
    -> :class:`CommunityPractice`, the day's ground truth) start empty.
    Both are filled in place right after the day is scheduled, before
    the day runs and so before any beacon prefix is announced: a
    collector may keep a reference to them and read them online.
    """

    def __init__(self, spec, *, beacon_prefixes=None, practices=None):
        self.spec = spec
        self.beacon_prefixes = set(beacon_prefixes or ())
        self.practices = dict(practices or {})


class CommunityPrevalence:
    """How many announcements a run saw and how many carried communities.

    One tally per run: the proxy feeds it every observation once and
    shares it with each collector that reports it.
    """

    __slots__ = ("announcements", "with_communities", "_classic_sets")

    def __init__(self):
        self.announcements = 0
        self.with_communities = 0
        # Distinct classic-community frozensets, folded into 16-bit
        # values only when read: decode interning repeats the same
        # frozensets, and a frozenset caches its hash.
        self._classic_sets: set = set()

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        """Count one observation (withdrawals are not counted)."""
        if observation.is_withdrawal:
            return
        self.announcements += 1
        communities = observation.communities
        if not communities.is_empty():
            self.with_communities += 1
            self._classic_sets.add(communities.classic)

    @property
    def community_share(self) -> float:
        """Share of announcements that carry communities."""
        if not self.announcements:
            return 0.0
        return self.with_communities / self.announcements

    def unique_16bit_communities(self) -> int:
        """Distinct classic community values seen."""
        # Community is an int subclass: the union counts raw values.
        return len(frozenset().union(*self._classic_sets))


class MetricCollector:
    """Base collector: subclass and override the hooks you need."""

    #: Registry key; subclasses must set it.
    name: str = ""

    def start(self, context: ScenarioContext) -> None:
        """Called once before any event is delivered."""

    def share_type_counts(self, counts: TypeCounts) -> None:
        """Receive the run's one :class:`TypeCounts`.

        The proxy calls this once, before any event, with the tally its
        single classifier keeps.  A collector that reports those counts
        keeps the object instead of tallying a copy in :meth:`observe`.
        """

    def share_prevalence(self, prevalence: CommunityPrevalence) -> None:
        """Receive the run's one :class:`CommunityPrevalence`.

        The proxy counts that tally once per observation, and only when
        an attached collector overrides this hook.
        """

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        """One per-prefix observation (internet and mrt runs).

        *kind* is its §5 type, classified once by the proxy for every
        collector: ``None`` for withdrawals and for the first
        announcement on a (session, prefix) stream.  The proxy calls
        only collectors that override this hook.
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
        # The run's single §5 classifier; its types feed every collector
        # and its counts are the ones the type-count collectors report.
        self._classifier = UpdateClassifier()
        for collector in self.collectors:
            collector.share_type_counts(self._classifier.counts)
        self._observers = []
        sharing = [
            collector
            for collector in self.collectors
            if _overrides(collector, "share_prevalence")
        ]
        if sharing:
            prevalence = CommunityPrevalence()
            for collector in sharing:
                collector.share_prevalence(prevalence)
            self._observers.append(prevalence.observe)
        self._observers.extend(
            collector.observe
            for collector in self.collectors
            if _overrides(collector, "observe")
        )
        #: Observations delivered so far (mid-run progress indicator).
        self.observed = 0

    def start(self, context: ScenarioContext) -> None:
        for collector in self.collectors:
            collector.start(context)

    def observe(self, observation: Observation) -> None:
        self.observed += 1
        kind = self._classifier.observe(observation)
        for observe in self._observers:
            observe(observation, kind)

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


def _overrides(collector: MetricCollector, hook: str) -> bool:
    return getattr(type(collector), hook) is not getattr(MetricCollector, hook)


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
    """Base for collectors that report the proxy's §5 type counts."""

    def __init__(self):
        self._counts = TypeCounts()

    def share_type_counts(self, counts: TypeCounts) -> None:
        self._counts = counts


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
        self._prevalence = CommunityPrevalence()

    def share_prevalence(self, prevalence: CommunityPrevalence) -> None:
        self._prevalence = prevalence

    def finish(self) -> dict:
        prevalence = self._prevalence
        return {
            "announcements": prevalence.announcements,
            "with_communities": prevalence.with_communities,
            "community_share": prevalence.community_share,
            "unique_16bit_communities": (
                prevalence.unique_16bit_communities()
            ),
        }


@collector
class Table1Collector(CommunityPrevalenceCollector):
    """The paper's Table 1 dataset overview.

    Keeps only the distinct prefixes, sessions and AS paths — the
    interned objects the decoder hands out — so memory tracks distinct
    entities rather than feed length.  Peers, ASes and the IPv4/IPv6
    split are derived from them when read.  The community columns are
    the run's shared prevalence counts.
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
        elif observation.as_path is not None:
            self._paths.add(observation.as_path)

    def finish(self) -> dict:
        ipv4 = sum(1 for prefix in self._prefixes if prefix.version == 4)
        ases = {int(asn) for path in self._paths for asn in path.asns()}
        prevalence = self._prevalence
        return {
            "ipv4_prefixes": ipv4,
            "ipv6_prefixes": len(self._prefixes) - ipv4,
            "ases": len(ases),
            "sessions": len(self._sessions),
            "peers": len({session.peer_asn for session in self._sessions}),
            "announcements": prevalence.announcements,
            "with_communities": prevalence.with_communities,
            "unique_16bit_communities": (
                prevalence.unique_16bit_communities()
            ),
            "unique_as_paths": len(self._paths),
            "withdrawals": self._withdrawals,
            "community_share": prevalence.community_share,
        }


def _shares(counts: TypeCounts) -> dict:
    return {kind.value: counts.share(kind) for kind in TYPE_ORDER}


class _BeaconCollector(MetricCollector):
    """Base for collectors that look at beacon prefixes."""

    def __init__(self):
        self._beacon_prefixes: set = set()

    def start(self, context: ScenarioContext) -> None:
        # Keep the engine's set itself, not a copy: it is filled in
        # place once the day is scheduled, after start().
        self._beacon_prefixes = context.beacon_prefixes


@collector
class Table2Collector(_BeaconCollector):
    """The paper's Table 2 announcement-type shares (full + beacons).

    The full column is the proxy's own type counts; the beacon-prefix
    subset is tallied online.  The subset needs no classifier of its
    own: beacon membership is by prefix, so a beacon announcement's
    (session, prefix) stream — and hence its shared type — is the same
    in both columns.
    """

    name = "table2"

    def __init__(self):
        super().__init__()
        self._full = TypeCounts()
        self._beacon = TypeCounts()

    def share_type_counts(self, counts: TypeCounts) -> None:
        self._full = counts

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
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


# ----------------------------------------------------------------------
# paper artifacts beyond Tables 1-2 (the `paper` scenario)
# ----------------------------------------------------------------------
def _types(counts: "Dict[AnnouncementType, int]") -> dict:
    return {kind.value: counts[kind] for kind in TYPE_ORDER}


@collector
class BeaconSessionsCollector(MetricCollector):
    """Figure 3: announcement types per session for one beacon.

    The beacon is 84.205.64.0/24 at collector ``rrc00``: the paper's
    Figure 3 prefix, and the first beacon every simulated day
    schedules.  Sessions are listed by announcement count, largest
    first (the figure's x-axis).
    """

    name = "beacon_sessions"
    collector_name = "rrc00"
    prefix = ripe_beacon_prefixes(1)[0]

    def __init__(self):
        self._sessions: "Dict[object, TypeCounts]" = {}

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        if (
            observation.prefix == self.prefix
            and observation.session.collector == self.collector_name
        ):
            counts = self._sessions.get(observation.session)
            if counts is None:
                counts = self._sessions[observation.session] = TypeCounts()
            counts.tally(observation, kind)

    def finish(self) -> dict:
        ordered = sorted(
            self._sessions.items(),
            key=lambda item: item[1].announcements_total,
            reverse=True,
        )
        return {
            "collector": self.collector_name,
            "prefix": str(self.prefix),
            "sessions": [
                {
                    "session": str(session),
                    "peer_asn": int(session.peer_asn),
                    "announcements": counts.announcements_total,
                    "types": _types(counts.counts),
                }
                for session, counts in ordered
            ],
        }


@collector
class BeaconPhasesCollector(_BeaconCollector):
    """Figures 4 and 5: one beacon stream's types over the phases.

    Keeps every beacon (session, prefix) stream.  Figure 4 is the
    stream with the most ``nc`` announcements, with its community
    exploration bursts; Figure 5 is the stream with the most ``nn``
    among those that never carry a community (a cleaning peer).  Ties
    go to the stream seen first.
    """

    name = "beacon_phases"

    def __init__(self):
        super().__init__()
        self._grouper = StreamGrouper()

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        if observation.prefix in self._beacon_prefixes:
            self._grouper.push(observation)

    def finish(self) -> dict:
        streams = self._grouper.streams
        fig4 = self._busiest(streams, AnnouncementType.NC)
        cleaned = {
            key: stream
            for key, stream in streams.items()
            if all(
                obs.is_withdrawal or obs.communities.is_empty()
                for obs in stream
            )
        }
        payload = {
            "fig4": self._series(fig4),
            "fig5": self._series(
                self._busiest(cleaned, AnnouncementType.NN)
            ),
        }
        if fig4 is not None:
            payload["fig4"]["bursts"] = [
                {
                    "start": event.start,
                    "end": event.end,
                    "opener": event.opener.value,
                    "spurious": event.spurious_count,
                    "distinct_communities": event.distinct_communities,
                }
                for event in CommunityExplorationDetector().detect(
                    {fig4[0]: streams[fig4[0]]}
                )
            ]
        return payload

    @staticmethod
    def _busiest(streams: dict, kind: AnnouncementType):
        """(key, activity) of the stream with the most *kind*."""
        best, best_count = None, -1
        for key, stream in streams.items():
            activity = stream_phase_activity(stream)
            count = activity.type_counts()[kind]
            if count > best_count:
                best, best_count = (key, activity), count
        return best

    @staticmethod
    def _series(picked) -> "Optional[dict]":
        if picked is None:
            return None
        (session, prefix), activity = picked
        schedule = BeaconSchedule()
        return {
            "session": str(session),
            "peer_asn": int(session.peer_asn),
            "prefix": str(prefix),
            "types": _types(activity.type_counts()),
            "events": [
                [when, kind.value, schedule.classify(when).value]
                for when, kind in activity.events
            ],
        }


@collector
class RevealedCollector(_BeaconCollector):
    """Figure 6: unique community attributes by the beacon phases they
    were revealed in (§6 "Revealed Information")."""

    name = "revealed"

    def __init__(self):
        super().__init__()
        self._analysis = RevealedInfoAnalysis()

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        if observation.prefix in self._beacon_prefixes:
            self._analysis.observe(observation)

    def finish(self) -> dict:
        result = self._analysis.result()
        return dict(asdict(result), withdrawal_ratio=result.withdrawal_ratio)


@collector
class TomographyCollector(MetricCollector):
    """Ablation A4 (§7 future work): per-AS tag/clean/ignore inference,
    scored against the day's ground-truth community practices."""

    name = "tomography"

    def __init__(self):
        self._classifier = CommunityBehaviorClassifier(min_samples=40)
        self._practices: dict = {}

    def start(self, context: ScenarioContext) -> None:
        self._practices = context.practices

    def observe(
        self, observation: Observation, kind: "Optional[AnnouncementType]"
    ) -> None:
        self._classifier.observe(observation)

    def finish(self) -> dict:
        inferences = self._classifier.infer_all()
        truth = {
            asn: practice.value for asn, practice in self._practices.items()
        }
        return {
            "scores": score_against_ground_truth(inferences, truth),
            # The 25 best-evidenced ASes, those with a verdict.
            "top": [
                [
                    inference.asn,
                    inference.behavior.value,
                    truth.get(inference.asn, "?"),
                    inference.own_tag_ratio,
                    inference.upstream_survival_ratio,
                    inference.sample_size,
                ]
                for inference in inferences[:25]
                if inference.behavior != InferredBehavior.UNKNOWN
            ],
        }
