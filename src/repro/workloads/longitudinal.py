"""The 10-year longitudinal model behind Figures 2 and 6 (*d_hist*).

The paper samples one full day every three months from 2010 to 2020 and
observes (a) growing absolute update counts with stable type shares and
(b) a stable ≈60% withdrawal-phase revelation ratio while unique
community counts grow multifold.

:class:`GrowthModel` produces one ordinary ``internet``
:class:`~repro.scenarios.spec.ScenarioSpec` per sampled day whose
parameters grow with time: topology size, collector peering breadth,
community (geo-tagging) adoption and event volume all increase
2010 → 2020, following the growth trends the paper cites (Streibelt et
al.'s 250% community growth, doubling of collector sessions).  The
days run like any other scenario (``run_sweep``), and
:meth:`repro.analysis.longitudinal.LongitudinalSeries.from_metrics`
aggregates their results into the figures' series.

Running all 41 quarterly days at full size is slow, so the default is
one day per year with small per-day topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.netbase.timebase import format_utc, parse_utc
from repro.workloads.internet import InternetConfig

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

#: The paper's sampled quarters: March/June/September/December 15.
QUARTER_DAYS = ("03-15", "06-15", "09-15", "12-15")

#: What each sampled day collects: Figure 2's types, Figure 6's
#: revealed community attributes.
DECADE_COLLECTORS = ("update_counts", "revealed")


def sampled_days(
    first_year: int = 2010,
    last_year: int = 2020,
    *,
    per_year: int = 1,
) -> "List[float]":
    """UTC midnights of the sampled measurement days.

    ``per_year=4`` reproduces the paper's full quarterly cadence;
    ``per_year=1`` (default) keeps laptop runtimes sane.
    """
    if not 1 <= per_year <= 4:
        raise ValueError("per_year must be between 1 and 4")
    days: List[float] = []
    for year in range(first_year, last_year + 1):
        for quarter in QUARTER_DAYS[:per_year]:
            days.append(parse_utc(f"{year}-{quarter}"))
    return sorted(days)


@dataclass
class GrowthModel:
    """Interpolates internet parameters across the decade."""

    #: Topology size at the 2010 and 2020 endpoints.
    tier1_2010: int = 2
    tier1_2020: int = 3
    transit_2010: int = 4
    transit_2020: int = 9
    stub_2010: int = 8
    stub_2020: int = 24
    #: Geo-tagging adoption (fraction of transit-like ASes).
    tagger_2010: float = 0.2
    tagger_2020: float = 0.55
    #: Collector peering breadth.
    peer_fraction_2010: float = 0.25
    peer_fraction_2020: float = 0.45
    #: Background event volume.
    flaps_2010: int = 6
    flaps_2020: int = 14
    base_seed: int = 20100101

    def _lerp(self, start: float, end: float, fraction: float) -> float:
        return start + (end - start) * fraction

    def spec_for(self, day_start: float) -> "ScenarioSpec":
        """The sampled day as an ``internet`` scenario.

        It overrides the ``mar20`` base with the growth curve's dials
        only.  The date names the spec but is not one of its fields:
        beacon phases follow the time of day, so the sampled date
        moves no count.
        """
        from repro.scenarios.spec import InternetSpec, ScenarioSpec

        fraction = min(
            max((day_start - parse_utc("2010-01-01"))
                / (parse_utc("2020-12-31") - parse_utc("2010-01-01")), 0.0),
            1.0,
        )

        def grown(start: float, end: float) -> int:
            return round(self._lerp(start, end, fraction))

        seed = self.base_seed + int(day_start // 86400)
        flaps = grown(self.flaps_2010, self.flaps_2020)
        # Event volumes scale with the growth curve so that the type
        # mix stays comparable across the decade (the paper: "despite
        # increased community usage, the share of all types is
        # relatively stable") while absolute counts grow.
        return ScenarioSpec(
            name=f"decade-{format_utc(day_start, with_time=False)}",
            kind="internet",
            description="one sampled day of the 2010-2020 series",
            seed=seed,
            internet=InternetSpec(
                scale="mar20",
                topology_seed=seed,
                tier1_count=grown(self.tier1_2010, self.tier1_2020),
                transit_count=grown(self.transit_2010, self.transit_2020),
                stub_count=grown(self.stub_2010, self.stub_2020),
                tagger_fraction=self._lerp(
                    self.tagger_2010, self.tagger_2020, fraction
                ),
                collector_peer_fraction=self._lerp(
                    self.peer_fraction_2010, self.peer_fraction_2020, fraction
                ),
                beacon_count=3,
                link_flaps=flaps,
                prefix_flaps=max(3, flaps // 2),
                med_churn_events=grown(6, 30),
                community_churn_events=grown(15, 70),
                collector_session_resets=grown(3, 14),
                prepend_change_events=grown(1, 4),
                collector_names=("rrc00",),
            ),
            collectors=DECADE_COLLECTORS,
        )

    def config_for(self, day_start: float) -> InternetConfig:
        """The day's :class:`InternetConfig`, dated *day_start*."""
        from repro.scenarios.engine import internet_config_from_spec

        config = internet_config_from_spec(self.spec_for(day_start))
        config.day_start = day_start
        return config
