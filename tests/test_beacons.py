"""Unit tests for beacon schedules and origin agents."""

import pytest

from repro.beacons import (
    BeaconOrigin,
    BeaconSchedule,
    PhaseKind,
    ripe_beacon_prefixes,
)
from repro.netbase import Prefix, parse_utc
from repro.simulator import Network

DAY = parse_utc("2020-03-15")


class TestSchedule:
    def setup_method(self):
        self.schedule = BeaconSchedule()

    def test_phases_per_day(self):
        phases = self.schedule.phases_for_day(DAY)
        assert len(phases) == 12  # 6 announce + 6 withdraw
        kinds = [phase.kind for phase in phases]
        assert kinds[0] == PhaseKind.ANNOUNCE
        assert kinds[1] == PhaseKind.WITHDRAW

    def test_phase_times_match_ripe(self):
        phases = self.schedule.phases_for_day(DAY)
        announces = [
            p.start - DAY for p in phases if p.kind == PhaseKind.ANNOUNCE
        ]
        withdraws = [
            p.start - DAY for p in phases if p.kind == PhaseKind.WITHDRAW
        ]
        assert announces == [h * 3600 for h in (0, 4, 8, 12, 16, 20)]
        assert withdraws == [h * 3600 for h in (2, 6, 10, 14, 18, 22)]

    def test_classify_announce_window(self):
        assert self.schedule.classify(DAY) == PhaseKind.ANNOUNCE
        assert (
            self.schedule.classify(DAY + 14 * 60) == PhaseKind.ANNOUNCE
        )

    def test_classify_withdraw_window(self):
        assert (
            self.schedule.classify(DAY + 2 * 3600) == PhaseKind.WITHDRAW
        )
        assert (
            self.schedule.classify(DAY + 2 * 3600 + 899)
            == PhaseKind.WITHDRAW
        )

    def test_classify_outside(self):
        assert self.schedule.classify(DAY + 3600) == PhaseKind.OUTSIDE
        assert (
            self.schedule.classify(DAY + 2 * 3600 + 901) == PhaseKind.OUTSIDE
        )

    def test_classification_is_periodic(self):
        for cycle in range(6):
            base = DAY + cycle * 4 * 3600
            assert self.schedule.classify(base + 60) == PhaseKind.ANNOUNCE
            assert (
                self.schedule.classify(base + 2 * 3600 + 60)
                == PhaseKind.WITHDRAW
            )

    def test_phase_index(self):
        assert self.schedule.phase_index(DAY + 1) == 0
        assert self.schedule.phase_index(DAY + 5 * 3600) == 1
        assert self.schedule.phase_index(DAY + 23 * 3600) == 5

    def test_phase_window(self):
        phase = self.schedule.phases_for_day(DAY)[0]
        start, end = phase.window()
        assert end - start == 15 * 60

    def test_validation(self):
        with pytest.raises(ValueError):
            BeaconSchedule(announce_start=5 * 3600, period=4 * 3600)
        with pytest.raises(ValueError):
            BeaconSchedule(announce_start=0, withdraw_start=0)


class TestRipePrefixes:
    def test_default_count(self):
        prefixes = ripe_beacon_prefixes()
        assert len(prefixes) == 15
        assert prefixes[0] == Prefix("84.205.64.0/24")
        assert len(set(prefixes)) == 15

    def test_range_check(self):
        with pytest.raises(ValueError):
            ripe_beacon_prefixes(0)
        with pytest.raises(ValueError):
            ripe_beacon_prefixes(33)


class TestBeaconOrigin:
    def test_day_cycle_against_simulator(self):
        network = Network(start_time=DAY - 3600)
        origin = network.add_router("origin", 65001)
        middle = network.add_router("middle", 65002)
        collector = network.add_collector("rrc", 12456)
        network.connect(origin, middle)
        network.connect(middle, collector)
        network.converge()

        beacon = BeaconOrigin(origin, Prefix("84.205.64.0/24"))
        scheduled = beacon.schedule_day(DAY)
        assert scheduled == 12
        network.run(until=DAY + 86_400)
        network.converge()

        announcements = sum(
            1 for r in collector.records if r.message.is_announcement
        )
        withdrawals = sum(
            1 for r in collector.records if r.message.is_withdrawal
        )
        assert announcements == 6
        assert withdrawals == 6

    def test_skips_past_phases(self):
        network = Network(start_time=DAY + 3 * 3600)
        origin = network.add_router("origin", 65001)
        beacon = BeaconOrigin(origin, Prefix("84.205.64.0/24"))
        scheduled = beacon.schedule_day(DAY)
        # 00:00 and 02:00 are already in the past.
        assert scheduled == 10

    def test_cancel(self):
        network = Network(start_time=DAY)
        origin = network.add_router("origin", 65001)
        beacon = BeaconOrigin(origin, Prefix("84.205.64.0/24"))
        beacon.schedule_day(DAY)
        beacon.cancel()
        network.converge()
        assert origin.originated_prefixes() == []
