"""§6 "Revealed Information": which communities only surface during
withdrawal-driven path exploration.

The paper labels every beacon announcement by the phase window it falls
into (announce / withdraw / outside, with a 15-minute tolerance) and
asks, for each *unique community attribute*, in which phases it was
ever observed.  On 2020-03-15, 62% of unique community attributes were
revealed **exclusively during withdrawal phases**, 17% exclusively
during announcement phases, <1% exclusively outside, and the rest
ambiguously — and Figure 6 shows the ≈60% ratio is stable over the
decade while absolute counts grow multifold.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Optional, Set

from repro.analysis.observations import Observation
from repro.beacons.schedule import BeaconSchedule, PhaseKind
from repro.bgp.community import CommunitySet


@dataclass
class RevealedInfoResult:
    """Exposure classification of unique community attributes."""

    total_unique: int = 0
    exclusively_withdrawal: int = 0
    exclusively_announcement: int = 0
    exclusively_outside: int = 0
    ambiguous: int = 0

    @classmethod
    def from_metrics(cls, metrics: dict) -> "RevealedInfoResult":
        """The result a ``revealed`` collector payload describes."""
        return cls(**{item.name: metrics[item.name] for item in fields(cls)})

    @property
    def withdrawal_ratio(self) -> float:
        """Share revealed only during withdrawal phases (Fig 6 ratio)."""
        if self.total_unique == 0:
            return 0.0
        return self.exclusively_withdrawal / self.total_unique

    def as_rows(self) -> "list[tuple[str, int, float]]":
        """(label, count, share) rows for rendering."""
        total = max(self.total_unique, 1)
        return [
            ("total unique", self.total_unique, 1.0),
            (
                "exclusively withdrawal",
                self.exclusively_withdrawal,
                self.exclusively_withdrawal / total,
            ),
            (
                "exclusively announcement",
                self.exclusively_announcement,
                self.exclusively_announcement / total,
            ),
            (
                "exclusively outside",
                self.exclusively_outside,
                self.exclusively_outside / total,
            ),
            ("ambiguous", self.ambiguous, self.ambiguous / total),
        ]


class RevealedInfoAnalysis:
    """Accumulates phase exposure per unique community attribute.

    The unit is the full community attribute — the :class:`CommunitySet`
    exactly as announced — matching the paper's "unique community
    attributes".  Empty attributes are ignored (an empty set reveals
    nothing).
    """

    def __init__(self, schedule: "BeaconSchedule | None" = None):
        self._schedule = schedule or BeaconSchedule()
        self._exposure: Dict[CommunitySet, Set[PhaseKind]] = {}

    def observe(self, observation: Observation) -> None:
        """Record one announcement's community attribute."""
        if not observation.is_announcement:
            return
        communities = observation.communities
        if communities.is_empty():
            return
        phase = self._schedule.classify(observation.timestamp)
        self._exposure.setdefault(communities, set()).add(phase)

    def observe_all(self, observations: Iterable[Observation]) -> None:
        """Record a whole feed."""
        for observation in observations:
            self.observe(observation)

    def phases_of(
        self, communities: CommunitySet
    ) -> "Optional[Set[PhaseKind]]":
        """The phases a given attribute was seen in (None = never)."""
        return self._exposure.get(communities)

    def result(self) -> RevealedInfoResult:
        """Summarize exposure into the Figure 6 categories."""
        result = RevealedInfoResult(total_unique=len(self._exposure))
        for phases in self._exposure.values():
            if phases == {PhaseKind.WITHDRAW}:
                result.exclusively_withdrawal += 1
            elif phases == {PhaseKind.ANNOUNCE}:
                result.exclusively_announcement += 1
            elif phases == {PhaseKind.OUTSIDE}:
                result.exclusively_outside += 1
            else:
                result.ambiguous += 1
        return result


def revealed_communities(
    observations: Iterable[Observation],
    schedule: "BeaconSchedule | None" = None,
) -> RevealedInfoResult:
    """One-shot §6 analysis over an observation feed."""
    analysis = RevealedInfoAnalysis(schedule)
    analysis.observe_all(observations)
    return analysis.result()
