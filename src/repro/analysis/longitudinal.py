"""Longitudinal aggregation across measurement days (Figures 2 and 6).

The paper samples one full day every three months from 2010 to 2020
(*d_hist*).  Figure 2 plots the per-day announcement counts per type;
Figure 6 plots the per-day number of unique community attributes
revealed during withdrawal phases, the per-day total, and their ratio.

This module only aggregates: each sampled day is one scenario run
(:meth:`repro.workloads.longitudinal.GrowthModel.spec_for`), and
:meth:`LongitudinalSeries.from_metrics` reads the runs' collector
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.classify import AnnouncementType, TYPE_ORDER, TypeCounts
from repro.analysis.revealed import RevealedInfoResult
from repro.netbase.timebase import format_utc


@dataclass
class DailySnapshot:
    """Aggregated results for one sampled measurement day."""

    day: float  # UTC midnight of the sampled day
    type_counts: TypeCounts
    revealed: Optional[RevealedInfoResult] = None

    @property
    def label(self) -> str:
        """The day as ``YYYY-MM-DD``."""
        return format_utc(self.day, with_time=False)

    @classmethod
    def from_metrics(cls, day: float, metrics: dict) -> "DailySnapshot":
        """One day from a run's ``update_counts`` and ``revealed``."""
        updates = metrics["update_counts"]
        counts = TypeCounts(
            counts={
                AnnouncementType(code): count
                for code, count in updates["types"].items()
            },
            withdrawals=updates["withdrawals"],
        )
        counts.unclassified_first = (
            updates["announcements"] - counts.classified_total
        )
        revealed = metrics.get("revealed")
        return cls(
            day=day,
            type_counts=counts,
            revealed=(
                None
                if revealed is None
                else RevealedInfoResult.from_metrics(revealed)
            ),
        )


@dataclass
class LongitudinalSeries:
    """An ordered collection of daily snapshots."""

    snapshots: "List[DailySnapshot]" = field(default_factory=list)

    @classmethod
    def from_metrics(
        cls, days: "Iterable[float]", metrics: "Iterable[dict]"
    ) -> "LongitudinalSeries":
        """The series of runs whose metrics pair up with *days*."""
        series = cls()
        for day, day_metrics in zip(days, metrics):
            series.add(DailySnapshot.from_metrics(day, day_metrics))
        return series

    def add(self, snapshot: DailySnapshot) -> None:
        """Append one day (kept sorted by day)."""
        self.snapshots.append(snapshot)
        self.snapshots.sort(key=lambda snap: snap.day)

    # ------------------------------------------------------------------
    # Figure 2: announcements per type over time
    # ------------------------------------------------------------------
    def type_series(
        self,
    ) -> "Dict[AnnouncementType, List[Tuple[str, int]]]":
        """Per-type (day label, count) series."""
        series: Dict[AnnouncementType, List[Tuple[str, int]]] = {
            kind: [] for kind in TYPE_ORDER
        }
        for snapshot in self.snapshots:
            for kind in TYPE_ORDER:
                series[kind].append(
                    (snapshot.label, snapshot.type_counts.counts[kind])
                )
        return series

    def share_series(
        self,
    ) -> "Dict[AnnouncementType, List[Tuple[str, float]]]":
        """Per-type (day label, share) series — scale-free comparison."""
        series: Dict[AnnouncementType, List[Tuple[str, float]]] = {
            kind: [] for kind in TYPE_ORDER
        }
        for snapshot in self.snapshots:
            for kind in TYPE_ORDER:
                series[kind].append(
                    (snapshot.label, snapshot.type_counts.share(kind))
                )
        return series

    # ------------------------------------------------------------------
    # Figure 6: revealed community attributes over time
    # ------------------------------------------------------------------
    def revealed_series(
        self,
    ) -> "List[Tuple[str, int, int, float]]":
        """(day, total unique, withdrawal-exclusive, ratio) rows."""
        rows = []
        for snapshot in self.snapshots:
            if snapshot.revealed is None:
                continue
            revealed = snapshot.revealed
            rows.append(
                (
                    snapshot.label,
                    revealed.total_unique,
                    revealed.exclusively_withdrawal,
                    revealed.withdrawal_ratio,
                )
            )
        return rows

    def ratio_stability(self, *, min_total: int = 1) -> "Tuple[float, float]":
        """(mean, max deviation) of the withdrawal ratio across days.

        The paper's claim is a "stable ratio of about 60%"; the Figure 6
        test asserts the deviation stays small.  Days with fewer than
        *min_total* unique attributes are excluded — a ratio computed
        over a handful of attributes is dominated by sampling noise.
        """
        ratios = [
            snap.revealed.withdrawal_ratio
            for snap in self.snapshots
            if snap.revealed is not None
            and snap.revealed.total_unique >= max(min_total, 1)
        ]
        if not ratios:
            return (0.0, 0.0)
        mean = sum(ratios) / len(ratios)
        deviation = max(abs(ratio - mean) for ratio in ratios)
        return (mean, deviation)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)
