"""Unit tests for the longitudinal growth model (no simulation)."""

import pytest

from repro.analysis.classify import TypeCounts, AnnouncementType
from repro.analysis.longitudinal import DailySnapshot, LongitudinalSeries
from repro.analysis.revealed import RevealedInfoResult
from repro.netbase import parse_utc
from repro.workloads import GrowthModel, sampled_days


class TestSampledDays:
    def test_one_per_year_default(self):
        days = sampled_days(2010, 2020)
        assert len(days) == 11
        assert days[0] == parse_utc("2010-03-15")
        assert days[-1] == parse_utc("2020-03-15")

    def test_quarterly_cadence(self):
        days = sampled_days(2019, 2020, per_year=4)
        assert len(days) == 8
        assert parse_utc("2019-06-15") in days
        assert parse_utc("2020-12-15") in days

    def test_days_are_sorted(self):
        days = sampled_days(2010, 2020, per_year=4)
        assert days == sorted(days)

    def test_per_year_validation(self):
        with pytest.raises(ValueError):
            sampled_days(per_year=0)
        with pytest.raises(ValueError):
            sampled_days(per_year=5)


class TestGrowthModel:
    def setup_method(self):
        self.growth = GrowthModel()

    def test_2010_is_smaller_than_2020(self):
        early = self.growth.config_for(parse_utc("2010-03-15"))
        late = self.growth.config_for(parse_utc("2020-03-15"))
        assert early.topology.stub_count < late.topology.stub_count
        assert early.topology.transit_count < late.topology.transit_count
        assert early.tagger_fraction < late.tagger_fraction
        assert early.collector_peer_fraction < late.collector_peer_fraction
        assert early.link_flaps < late.link_flaps
        assert early.community_churn_events < late.community_churn_events

    def test_growth_is_monotone(self):
        sizes = [
            self.growth.config_for(day).topology.stub_count
            for day in sampled_days(2010, 2020)
        ]
        assert sizes == sorted(sizes)

    def test_configs_are_clamped_outside_range(self):
        before = self.growth.config_for(parse_utc("2005-01-01"))
        after = self.growth.config_for(parse_utc("2025-01-01"))
        assert before.topology.stub_count == self.growth.stub_2010
        assert after.topology.stub_count == self.growth.stub_2020

    def test_days_are_ordinary_mar20_specs(self):
        from repro.scenarios import (
            internet_config_from_spec,
            spec_from_json,
            spec_to_json,
        )

        day = parse_utc("2013-03-15")
        spec = self.growth.spec_for(day).validate()
        assert spec.name == "decade-2013-03-15"
        assert spec.internet.scale == "mar20"
        assert spec_from_json(spec_to_json(spec)) == spec
        # The spec carries every dial but the date.
        config = internet_config_from_spec(spec)
        assert config.day_start != day
        config.day_start = day
        assert config == self.growth.config_for(day)

    def test_seeds_differ_per_day(self):
        first = self.growth.config_for(parse_utc("2015-03-15"))
        second = self.growth.config_for(parse_utc("2015-06-15"))
        assert first.seed != second.seed


class TestSeriesAggregation:
    def _snapshot(self, day_text, pc=10, nn=5, revealed=None):
        counts = TypeCounts()
        counts.counts[AnnouncementType.PC] = pc
        counts.counts[AnnouncementType.NN] = nn
        return DailySnapshot(
            day=parse_utc(day_text),
            type_counts=counts,
            revealed=revealed,
        )

    def test_snapshots_kept_sorted(self):
        series = LongitudinalSeries()
        series.add(self._snapshot("2020-03-15"))
        series.add(self._snapshot("2010-03-15"))
        assert [snap.label for snap in series] == [
            "2010-03-15", "2020-03-15",
        ]

    def test_type_series_alignment(self):
        series = LongitudinalSeries()
        series.add(self._snapshot("2010-03-15", pc=1))
        series.add(self._snapshot("2020-03-15", pc=9))
        per_type = series.type_series()
        assert per_type[AnnouncementType.PC] == [
            ("2010-03-15", 1), ("2020-03-15", 9),
        ]

    def test_share_series_sums(self):
        series = LongitudinalSeries()
        series.add(self._snapshot("2010-03-15", pc=3, nn=1))
        shares = series.share_series()
        assert shares[AnnouncementType.PC][0][1] == pytest.approx(0.75)

    def test_revealed_series_skips_missing(self):
        series = LongitudinalSeries()
        series.add(self._snapshot("2010-03-15"))
        series.add(
            self._snapshot(
                "2020-03-15",
                revealed=RevealedInfoResult(
                    total_unique=10, exclusively_withdrawal=6
                ),
            )
        )
        rows = series.revealed_series()
        assert len(rows) == 1
        assert rows[0][3] == pytest.approx(0.6)

    def test_ratio_stability_min_total(self):
        series = LongitudinalSeries()
        series.add(
            self._snapshot(
                "2010-03-15",
                revealed=RevealedInfoResult(
                    total_unique=4, exclusively_withdrawal=0
                ),
            )
        )
        series.add(
            self._snapshot(
                "2020-03-15",
                revealed=RevealedInfoResult(
                    total_unique=100, exclusively_withdrawal=60
                ),
            )
        )
        mean_all, _ = series.ratio_stability()
        mean_filtered, deviation = series.ratio_stability(min_total=25)
        assert mean_all < mean_filtered
        assert mean_filtered == pytest.approx(0.6)
        assert deviation == 0.0

    def test_empty_series(self):
        series = LongitudinalSeries()
        assert series.ratio_stability() == (0.0, 0.0)
        assert len(series) == 0
