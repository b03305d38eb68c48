"""Root-cause attribution for `nn` (duplicate) announcements.

The paper can only *speculate* about nn causes from collector data
(§6: "we do not exclude the possibility for other reasons we observe
nn announcements, e.g., streams of updates due to intra-AS changes,
misconfiguration, or rate limiting").  This module encodes the
heuristics that discussion implies, classifying each nn announcement
on a stream into:

* ``session_reset``  — the nn directly follows a withdrawal of the
  same route and re-announces the identical state (table transfer
  after a session reset, or beacon re-announcement);
* ``cleaned_exploration`` — the nn sits inside a withdrawal-phase
  burst on a community-free stream (Figure 5's egress-cleaned
  community exploration);
* ``med_or_internal`` — the nn appears on an otherwise quiet stream
  outside beacon phases (the lab Exp1 pattern: internal next-hop or
  MED churn surfacing as an exact duplicate);
* ``unknown`` — anything else.

The attribution is heuristic by construction — exactly as the paper
frames it — but the synthetic internet lets the tests check that each
generator (collector resets, egress cleaners, MED churn) lands
dominantly in its intended bucket.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.analysis.classify import AnnouncementType, UpdateClassifier
from repro.analysis.observations import Observation
from repro.beacons.schedule import BeaconSchedule, PhaseKind


class DuplicateCause(enum.Enum):
    """Attributed root cause of one nn announcement."""

    SESSION_RESET = "session_reset"
    CLEANED_EXPLORATION = "cleaned_exploration"
    MED_OR_INTERNAL = "med_or_internal"
    UNKNOWN = "unknown"


@dataclass
class AttributedDuplicate:
    """One nn announcement with its attributed cause."""

    observation: Observation
    cause: DuplicateCause


@dataclass
class DuplicateReport:
    """Aggregate attribution counts."""

    counts: Dict[DuplicateCause, int] = field(
        default_factory=lambda: {cause: 0 for cause in DuplicateCause}
    )

    @property
    def total(self) -> int:
        """All attributed duplicates."""
        return sum(self.counts.values())

    def share(self, cause: DuplicateCause) -> float:
        """Fraction of duplicates attributed to *cause*."""
        total = self.total
        return self.counts[cause] / total if total else 0.0

    def as_rows(self) -> "List[tuple]":
        """(cause, count, share) rows for rendering."""
        return [
            (cause.value, self.counts[cause], self.share(cause))
            for cause in DuplicateCause
        ]


class DuplicateAttributor:
    """Stateful per-stream nn attribution."""

    #: An nn this close (seconds) after a withdrawal of the same route
    #: is treated as a post-reset re-announcement.
    RESET_WINDOW = 120.0

    def __init__(self, schedule: "BeaconSchedule | None" = None):
        self._schedule = schedule or BeaconSchedule()
        self._classifier = UpdateClassifier()
        self._last_withdrawal: Dict[tuple, float] = {}
        self._stream_has_communities: Dict[tuple, bool] = {}
        self.report = DuplicateReport()
        self.attributed: List[AttributedDuplicate] = []

    def observe(self, observation: Observation) -> "DuplicateCause | None":
        """Process one observation; returns a cause for nn events."""
        key = observation.stream_key()
        if observation.is_announcement and observation.communities:
            self._stream_has_communities[key] = True
        announcement_type = self._classifier.observe(observation, key)
        if observation.is_withdrawal:
            self._last_withdrawal[key] = observation.timestamp
            return None
        if announcement_type != AnnouncementType.NN:
            return None
        cause = self._attribute(key, observation)
        self.report.counts[cause] += 1
        self.attributed.append(AttributedDuplicate(observation, cause))
        return cause

    def observe_all(
        self, observations: Iterable[Observation]
    ) -> DuplicateReport:
        """Process a whole feed; returns the aggregate report."""
        for observation in observations:
            self.observe(observation)
        return self.report

    # ------------------------------------------------------------------
    # pipeline sink protocol
    # ------------------------------------------------------------------
    def push(self, observation: Observation) -> None:
        """Sink hook: attribute one pushed observation (online)."""
        self.observe(observation)

    def close(self) -> None:
        """Sink hook; attribution state needs no finalization."""

    def _attribute(
        self, key: tuple, observation: Observation
    ) -> DuplicateCause:
        last_withdrawal = self._last_withdrawal.get(key)
        if (
            last_withdrawal is not None
            and observation.timestamp - last_withdrawal
            <= self.RESET_WINDOW
        ):
            return DuplicateCause.SESSION_RESET
        phase = self._schedule.classify(observation.timestamp)
        community_free = not self._stream_has_communities.get(key, False)
        if phase == PhaseKind.WITHDRAW and community_free:
            return DuplicateCause.CLEANED_EXPLORATION
        if phase == PhaseKind.OUTSIDE:
            return DuplicateCause.MED_OR_INTERNAL
        return DuplicateCause.UNKNOWN


def attribute_duplicates(
    observations: Iterable[Observation],
    schedule: "BeaconSchedule | None" = None,
) -> DuplicateReport:
    """One-shot attribution over an ordered feed."""
    return DuplicateAttributor(schedule).observe_all(observations)
