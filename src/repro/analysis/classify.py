"""The §5 announcement-type taxonomy: ``pc pn nc nn xc xn``.

Each announcement is compared with the previous announcement for the
same (session, prefix) stream.  Two letters encode the result:

* first letter — the AS path: ``p`` changed, ``x`` changed only by
  prepending (same distinct-AS sequence), ``n`` unchanged;
* second letter — the community attribute: ``c`` changed, ``n``
  unchanged.

The paper folds the (rare) prepend+no-community-change and
prepend+community-change cases into ``xn``/``xc`` and does not split
``x`` further.  Withdrawals reset nothing: the paper compares each
announcement to the previous *announcement* on the stream (an
announcement following a withdrawal is an implicit re-announcement and
still compares against the pre-withdrawal state); the first
announcement ever seen on a stream has no predecessor and is excluded
from the statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.observations import Observation
from repro.bgp.aspath import ASPath
from repro.bgp.community import CommunitySet


class AnnouncementType(enum.Enum):
    """The six announcement types of Table 2."""

    PC = "pc"  # path + community change
    PN = "pn"  # path change only
    NC = "nc"  # community change only
    NN = "nn"  # no change (duplicate at the message level)
    XC = "xc"  # prepend-only path change + community change
    XN = "xn"  # prepend-only path change

    @property
    def path_changed(self) -> bool:
        """True when the AS path changed beyond prepending."""
        return self in (AnnouncementType.PC, AnnouncementType.PN)

    @property
    def prepend_only(self) -> bool:
        """True when the path changed only by prepending."""
        return self in (AnnouncementType.XC, AnnouncementType.XN)

    @property
    def community_changed(self) -> bool:
        """True when the community attribute changed."""
        return self in (
            AnnouncementType.PC,
            AnnouncementType.NC,
            AnnouncementType.XC,
        )

    @property
    def is_spurious(self) -> bool:
        """The types that carry no routing-relevant change (§6)."""
        return self in (AnnouncementType.NC, AnnouncementType.NN)


#: Display order used by Table 2 and the figures.
TYPE_ORDER = (
    AnnouncementType.PC,
    AnnouncementType.PN,
    AnnouncementType.NC,
    AnnouncementType.NN,
    AnnouncementType.XC,
    AnnouncementType.XN,
)


def compare_announcements(
    previous_path: Optional[ASPath],
    previous_communities: CommunitySet,
    path: Optional[ASPath],
    communities: CommunitySet,
) -> AnnouncementType:
    """Classify one announcement against its predecessor's state.

    Identity is checked before equality throughout: the decode memo
    interns repeated AS_PATH/COMMUNITIES byte strings to the same
    objects, so on real feeds the dominant duplicate case resolves with
    pointer comparisons (``a is b`` implies ``a == b`` for these
    immutable values).
    """
    current_path = path if path is not None else ASPath.empty()
    prior_path = (
        previous_path if previous_path is not None else ASPath.empty()
    )
    community_changed = (
        communities is not previous_communities
        and communities != previous_communities
    )
    if current_path is prior_path or current_path == prior_path:
        return (
            AnnouncementType.NC if community_changed else AnnouncementType.NN
        )
    if current_path.is_prepend_variant_of(prior_path):
        return (
            AnnouncementType.XC if community_changed else AnnouncementType.XN
        )
    return AnnouncementType.PC if community_changed else AnnouncementType.PN


@dataclass
class ClassifiedAnnouncement:
    """One announcement with its assigned type."""

    observation: Observation
    announcement_type: AnnouncementType


@dataclass
class TypeCounts:
    """Counts per announcement type plus bookkeeping totals."""

    counts: Dict[AnnouncementType, int] = field(
        default_factory=lambda: {kind: 0 for kind in AnnouncementType}
    )
    #: First-on-stream announcements (no predecessor, not classified).
    unclassified_first: int = 0
    withdrawals: int = 0

    def add(self, announcement_type: AnnouncementType) -> None:
        """Count one classified announcement."""
        self.counts[announcement_type] += 1

    def tally(
        self,
        observation: Observation,
        announcement_type: Optional[AnnouncementType],
    ) -> None:
        """Count one observation by the type the classifier returned."""
        if announcement_type is not None:
            self.counts[announcement_type] += 1
        elif observation.is_withdrawal:
            self.withdrawals += 1
        else:
            self.unclassified_first += 1

    def merge(self, other: "TypeCounts") -> "TypeCounts":
        """Accumulate *other* into self (returns self for chaining)."""
        for kind, value in other.counts.items():
            self.counts[kind] += value
        self.unclassified_first += other.unclassified_first
        self.withdrawals += other.withdrawals
        return self

    @property
    def classified_total(self) -> int:
        """Announcements that received a type."""
        return sum(self.counts.values())

    @property
    def announcements_total(self) -> int:
        """All announcements including first-on-stream ones."""
        return self.classified_total + self.unclassified_first

    def share(self, announcement_type: AnnouncementType) -> float:
        """Fraction of classified announcements with this type."""
        total = self.classified_total
        if total == 0:
            return 0.0
        return self.counts[announcement_type] / total

    def shares(self) -> "Dict[AnnouncementType, float]":
        """All six shares, in one dict."""
        return {kind: self.share(kind) for kind in TYPE_ORDER}

    def no_path_change_share(self) -> float:
        """Combined nc+nn share — the paper's headline ~50%."""
        return self.share(AnnouncementType.NC) + self.share(
            AnnouncementType.NN
        )

    def as_rows(self) -> "List[Tuple[str, int, float]]":
        """(type, count, share) rows in display order."""
        return [
            (kind.value, self.counts[kind], self.share(kind))
            for kind in TYPE_ORDER
        ]

    def to_dict(self) -> dict:
        """JSON-serializable form for the sharded-decode protocol."""
        return {
            "counts": {kind.value: self.counts[kind] for kind in TYPE_ORDER},
            "unclassified_first": self.unclassified_first,
            "withdrawals": self.withdrawals,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TypeCounts":
        counts = cls()
        for kind in TYPE_ORDER:
            counts.counts[kind] = int(data["counts"].get(kind.value, 0))
        counts.unclassified_first = int(data["unclassified_first"])
        counts.withdrawals = int(data["withdrawals"])
        return counts


class UpdateClassifier:
    """Stateful per-stream classifier.

    Feed observations in arrival order via :meth:`observe`; the
    classifier keeps the last-seen announcement state per
    (session, prefix) stream and emits a type per announcement.
    """

    #: Sharded-decode job protocol tag; the parallel replay layer
    #: rebuilds a fresh classifier per shard from this name.
    shard_sink_kind = "classifier"

    def __init__(self):
        self._last_state: Dict[tuple, "tuple[Optional[ASPath], CommunitySet]"] = {}
        self.counts = TypeCounts()

    def seed_from_snapshot(self, snapshot, collector: str) -> int:
        """Pre-load stream state from a TABLE_DUMP_V2 RIB snapshot.

        Real measurement pipelines classify a day's update file against
        the RIB snapshot taken at the start of the day, so the first
        announcement on each stream has a predecessor instead of being
        unclassifiable.  *snapshot* is a
        :class:`repro.mrt.table_dump.RibSnapshot`.  Returns the number
        of streams seeded.
        """
        from repro.analysis.observations import SessionKey

        seeded = 0
        for prefix in snapshot.prefixes():
            for entry in snapshot.entries(prefix):
                peer_asn, peer_address = snapshot.peers[entry.peer_index]
                session = SessionKey(collector, peer_asn, peer_address)
                key = (session, prefix)
                if key in self._last_state:
                    continue
                self._last_state[key] = (
                    entry.attributes.as_path,
                    entry.attributes.communities,
                )
                seeded += 1
        return seeded

    def observe(
        self, observation: Observation, key: "Optional[tuple]" = None
    ) -> Optional[AnnouncementType]:
        """Process one observation; returns the type for announcements.

        Withdrawals return None (they are counted but not typed —
        the paper's taxonomy covers announcements only).  Callers that
        already computed the (session, prefix) stream key may pass it
        to avoid recomputing it (the duplicate attributor does).
        """
        if observation.is_withdrawal:
            self.counts.withdrawals += 1
            return None
        if key is None:
            key = observation.stream_key()
        path = observation.as_path
        communities = observation.communities
        previous = self._last_state.get(key)
        self._last_state[key] = (path, communities)
        if previous is None:
            self.counts.unclassified_first += 1
            return None
        if previous[0] is path and previous[1] is communities:
            # O(1) fast path: the interned decode objects are the very
            # ones stored last time, so this is an exact duplicate.
            announcement_type = AnnouncementType.NN
        else:
            announcement_type = compare_announcements(
                previous[0], previous[1], path, communities
            )
        self.counts.counts[announcement_type] += 1
        return announcement_type

    def observe_all(
        self, observations: Iterable[Observation]
    ) -> Iterator[ClassifiedAnnouncement]:
        """Classify a whole feed, yielding classified announcements."""
        for observation in observations:
            announcement_type = self.observe(observation)
            if announcement_type is not None:
                yield ClassifiedAnnouncement(observation, announcement_type)

    # ------------------------------------------------------------------
    # pipeline sink protocol
    # ------------------------------------------------------------------
    def push(self, observation: Observation) -> None:
        """Sink hook: classify one pushed observation.

        :meth:`observe` was always online; exposing it under the
        pipeline's ``push``/``close`` names lets a classifier terminate
        a live sink chain directly (collector → exploder → classifier)
        with no adapter object.
        """
        self.observe(observation)

    def close(self) -> None:
        """Sink hook; classification state needs no finalization."""

    # ------------------------------------------------------------------
    # sharded-decode merge protocol
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Serialize the mergeable classification state as JSON data.

        Only the counts travel: the per-stream ``_last_state`` never
        needs to cross shards because the shard planner keeps every
        (session, prefix) stream whole within one shard.
        """
        return {"counts": self.counts.to_dict()}

    def merge_state(self, state: dict) -> None:
        """Accumulate one shard's exported state, in shard order."""
        self.counts.merge(TypeCounts.from_dict(state["counts"]))


def classify_observations(
    observations: Iterable[Observation],
) -> TypeCounts:
    """One-shot classification of an ordered observation feed."""
    classifier = UpdateClassifier()
    for _ in classifier.observe_all(observations):
        pass
    return classifier.counts


def classify_stream(
    stream: "List[Observation]",
) -> "List[ClassifiedAnnouncement]":
    """Classify a single (session, prefix) stream, returning labels."""
    classifier = UpdateClassifier()
    return list(classifier.observe_all(stream))
