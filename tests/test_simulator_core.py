"""Unit tests for the simulator core: events, sessions, links."""

import pytest

from repro.netbase import SimClock
from repro.simulator import EventQueue, Network
from repro.simulator.session import SessionKind


class TestEventQueue:
    def setup_method(self):
        self.queue = EventQueue(SimClock(0.0))

    def test_runs_in_time_order(self):
        seen = []
        self.queue.schedule(2.0, lambda: seen.append("late"))
        self.queue.schedule(1.0, lambda: seen.append("early"))
        self.queue.run_until_idle()
        assert seen == ["early", "late"]

    def test_ties_break_in_insertion_order(self):
        seen = []
        self.queue.schedule(1.0, lambda: seen.append("first"))
        self.queue.schedule(1.0, lambda: seen.append("second"))
        self.queue.run_until_idle()
        assert seen == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        self.queue.schedule(5.0, lambda: None)
        self.queue.run_until_idle()
        assert self.queue.now == 5.0

    def test_until_boundary(self):
        seen = []
        self.queue.schedule(1.0, lambda: seen.append(1))
        self.queue.schedule(3.0, lambda: seen.append(3))
        executed = self.queue.run(until=2.0)
        assert executed == 1
        assert seen == [1]
        assert self.queue.now == 2.0  # clock advanced to boundary
        assert self.queue.pending == 1

    def test_max_events_stop_keeps_clock_before_queued_events(self):
        seen = []
        for when in (1.0, 2.0, 3.0):
            self.queue.schedule(when, lambda when=when: seen.append(when))
        assert self.queue.run(until=10.0, max_events=1) == 1
        assert self.queue.now == 1.0  # 2.0 and 3.0 are still due
        assert self.queue.run() == 2  # no ClockError
        assert seen == [1.0, 2.0, 3.0]
        assert self.queue.now == 3.0

    def test_max_events_stop_skips_cancelled_events_to_until(self):
        self.queue.schedule(1.0, lambda: None)
        self.queue.schedule(2.0, lambda: None).cancel()
        self.queue.schedule(5.0, lambda: None)
        assert self.queue.run(until=4.0, max_events=1) == 1
        assert self.queue.now == 4.0  # only a tombstone was due
        assert self.queue.pending == 1

    def test_events_can_schedule_events(self):
        seen = []

        def outer():
            seen.append("outer")
            self.queue.schedule(1.0, lambda: seen.append("inner"))

        self.queue.schedule(1.0, outer)
        self.queue.run_until_idle()
        assert seen == ["outer", "inner"]

    def test_cancelled_events_are_skipped(self):
        seen = []
        event = self.queue.schedule(1.0, lambda: seen.append("cancelled"))
        self.queue.schedule(2.0, lambda: seen.append("kept"))
        event.cancel()
        self.queue.run_until_idle()
        assert seen == ["kept"]

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            self.queue.schedule(-1.0, lambda: None)

    def test_rejects_scheduling_in_past(self):
        self.queue.schedule(5.0, lambda: None)
        self.queue.run_until_idle()
        with pytest.raises(ValueError):
            self.queue.schedule_at(1.0, lambda: None)

    def test_max_events_backstop(self):
        def forever():
            self.queue.schedule(1.0, forever)

        self.queue.schedule(1.0, forever)
        with pytest.raises(RuntimeError):
            self.queue.run_until_idle(max_events=100)

    def test_processed_counter(self):
        self.queue.schedule(1.0, lambda: None)
        self.queue.schedule(2.0, lambda: None)
        self.queue.run_until_idle()
        assert self.queue.processed == 2


class TestTombstonesAndCompaction:
    """Regression tests for the cancelled-event tombstone leak."""

    def setup_method(self):
        self.queue = EventQueue(SimClock(0.0))

    def test_live_pending_excludes_cancelled(self):
        kept = self.queue.schedule(1.0, lambda: None)
        cancelled = [
            self.queue.schedule(2.0, lambda: None) for _ in range(3)
        ]
        # Cancel only one: tombstones (1) don't outnumber live (3) yet.
        cancelled[0].cancel()
        assert self.queue.live_pending == 3
        assert self.queue.pending >= self.queue.live_pending
        assert kept is not None

    def test_heap_compacts_when_tombstones_dominate(self):
        events = [
            self.queue.schedule(float(i + 1), lambda: None)
            for i in range(100)
        ]
        for event in events[:60]:
            event.cancel()
        # More tombstones than live events: the heap must have shrunk
        # instead of carrying the cancelled entries until popped.
        assert self.queue.pending < 100
        assert self.queue.live_pending == 40
        assert self.queue.run_until_idle() == 40

    def test_churn_does_not_grow_heap_unboundedly(self):
        # Damping/beacon-flap style churn: schedule + cancel forever.
        for _ in range(10_000):
            self.queue.schedule(1.0, lambda: None).cancel()
        assert self.queue.pending <= 2
        assert self.queue.live_pending == 0

    def test_cancel_after_execution_is_noop(self):
        """Cancelling a fired handle (beacon-style bulk cancel) must
        not corrupt the tombstone count or live_pending."""
        fired = [self.queue.schedule(float(i + 1), lambda: None) for i in range(10)]
        self.queue.run_until_idle()
        # Heap big enough that compaction alone can't hide a bad count.
        self.queue.schedule(20.0, lambda: None)
        for i in range(49):
            self.queue.schedule(21.0 + i, lambda: None)
        for event in fired[:5]:
            event.cancel()
        assert self.queue.live_pending == 50
        assert self.queue.run_until_idle() == 50  # no spurious RuntimeError

    def test_cancel_is_idempotent(self):
        event = self.queue.schedule(1.0, lambda: None)
        self.queue.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert self.queue.live_pending == 1
        assert self.queue.run_until_idle() == 1

    def test_cancel_during_run_is_safe(self):
        seen = []
        later = [
            self.queue.schedule(2.0, lambda i=i: seen.append(i))
            for i in range(10)
        ]

        def cancel_most():
            for event in later[:9]:
                event.cancel()

        self.queue.schedule(1.0, cancel_most)
        self.queue.run_until_idle()
        assert seen == [9]

    def test_peak_pending_high_water_mark(self):
        for i in range(5):
            self.queue.schedule(float(i + 1), lambda: None)
        self.queue.run_until_idle()
        assert self.queue.peak_pending == 5
        assert self.queue.pending == 0


class TestScheduleAtFloatDrift:
    """Regression tests for schedule_at rejecting 'now' after drift."""

    def setup_method(self):
        self.queue = EventQueue(SimClock(0.0))

    def test_exactly_now_is_accepted(self):
        self.queue.schedule(5.0, lambda: None)
        self.queue.run_until_idle()
        seen = []
        self.queue.schedule_at(self.queue.now, lambda: seen.append(1))
        self.queue.run_until_idle()
        assert seen == [1]

    def test_accumulated_float_timestamps_do_not_raise(self):
        # Summing many small deltas drifts a recomputed timestamp a few
        # ulps below the clock; such times must be clamped, not fatal.
        start = 1_584_230_400.0  # day-scale epoch, coarse float grid
        clock = SimClock(start)
        queue = EventQueue(clock)
        step = 0.1
        total = start
        for _ in range(100):
            total += step
        queue.schedule_at(total, lambda: None)
        queue.run_until_idle()
        # total and now are float-equal-ish but may differ by ulps in
        # either direction; rescheduling at the drifted sum must work.
        drifted = start
        for _ in range(100):
            drifted += step
        event = queue.schedule_at(drifted, lambda: None)
        assert event.time >= queue.now
        queue.run_until_idle()

    def test_ulp_past_time_is_clamped_to_now(self):
        import math

        clock = SimClock(1_584_230_400.0)
        queue = EventQueue(clock)
        ulp_before = math.nextafter(clock.now, 0.0)
        assert ulp_before < clock.now
        event = queue.schedule_at(ulp_before, lambda: None)
        assert event.time == clock.now
        queue.run_until_idle()

    def test_genuinely_past_times_still_raise(self):
        self.queue.schedule(5.0, lambda: None)
        self.queue.run_until_idle()
        with pytest.raises(ValueError):
            self.queue.schedule_at(4.0, lambda: None)


class TestDeliveryBatching:
    """Same-fire-time messages coalesce into one event, same outcome."""

    def build(self, batching):
        network = Network(batch_delivery=batching)
        r1 = network.add_router("r1", 65001)
        r2 = network.add_router("r2", 65002)
        session = network.connect(r1, r2, delay=0.25)
        return network, r1, r2, session

    def test_same_fire_time_messages_share_one_event(self):
        from repro.netbase import Prefix

        network, r1, r2, _session = self.build(True)
        for index in range(5):
            r1.originate(Prefix(f"10.{index}.0.0/16"))
        # 5 announcements to one peer at one fire time: one queue event.
        assert network.queue.pending == 1
        network.converge()
        assert len(r2.loc_rib) == 5

    def test_unbatched_mode_schedules_per_message(self):
        from repro.netbase import Prefix

        network, r1, r2, _session = self.build(False)
        for index in range(5):
            r1.originate(Prefix(f"10.{index}.0.0/16"))
        assert network.queue.pending == 5
        network.converge()
        assert len(r2.loc_rib) == 5

    def test_batched_and_unbatched_agree(self):
        from repro.netbase import Prefix

        outcomes = []
        for batching in (True, False):
            network, r1, r2, session = self.build(batching)
            for index in range(4):
                r1.originate(Prefix(f"10.{index}.0.0/16"))
            network.converge()
            r1.withdraw_origination(Prefix("10.2.0.0/16"))
            network.converge()
            outcomes.append(
                (
                    sorted(str(px) for px in r2.loc_rib.prefixes()),
                    r1.sent_updates,
                    r1.sent_withdrawals,
                    r2.received_updates,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_messages_at_different_times_do_not_coalesce(self):
        from repro.netbase import Prefix

        network, r1, _r2, _session = self.build(True)
        r1.originate(Prefix("10.0.0.0/16"))
        network.run(max_events=0)  # no execution, just scheduling
        network.queue.schedule(0.1, lambda: r1.originate(Prefix("10.1.0.0/16")))
        network.converge()
        # Both prefixes arrived despite distinct fire times.
        assert len(network.routers["r2"].loc_rib) == 2

    def test_taps_fire_per_message_not_per_batch(self):
        from repro.netbase import Prefix

        network, r1, _r2, session = self.build(True)
        captured = []
        session.taps.append(
            lambda when, sender, message: captured.append(sender.name)
        )
        for index in range(3):
            r1.originate(Prefix(f"10.{index}.0.0/16"))
        assert captured == ["r1", "r1", "r1"]

    def test_batch_dropped_when_session_goes_down(self):
        from repro.netbase import Prefix

        network, r1, r2, session = self.build(True)
        r1.originate(Prefix("10.0.0.0/16"))
        session.established = False  # raw teardown, no notifications
        network.run(max_events=10)
        assert len(r2.loc_rib) == 0


class TestSessions:
    def setup_method(self):
        self.network = Network()
        self.r1 = self.network.add_router("r1", 65001)
        self.r2 = self.network.add_router("r2", 65002)
        self.r3 = self.network.add_router("r3", 65002)

    def test_kind_inferred_from_asns(self):
        ebgp = self.network.connect(self.r1, self.r2)
        ibgp = self.network.connect(self.r2, self.r3)
        assert ebgp.kind == SessionKind.EBGP
        assert ebgp.is_ebgp
        assert ibgp.kind == SessionKind.IBGP

    def test_other_endpoint(self):
        session = self.network.connect(self.r1, self.r2)
        assert session.other(self.r1) is self.r2
        assert session.other(self.r2) is self.r1
        with pytest.raises(ValueError):
            session.other(self.r3)

    def test_addresses_are_distinct(self):
        session = self.network.connect(self.r1, self.r2)
        assert session.local_address(self.r1) != session.local_address(
            self.r2
        )
        assert session.peer_address(self.r1) == session.local_address(
            self.r2
        )

    def test_each_network_numbers_its_own_sessions(self):
        first = [
            self.network.connect(self.r1, self.r2),
            self.network.connect(self.r2, self.r3),
        ]
        other = Network()
        other_r1 = other.add_router("r1", 65001)
        other_r2 = other.add_router("r2", 65002)
        second = other.connect(other_r1, other_r2)
        assert [session.session_id for session in first] == [1, 2]
        # A network built later in the same process starts again at 1,
        # so its default addresses match the first network's.
        assert second.session_id == 1
        assert second.local_address(other_r1) == first[0].local_address(
            self.r1
        )

    def test_send_is_delayed(self):
        session = self.network.connect(self.r1, self.r2, delay=0.5)
        from repro.bgp import KeepaliveMessage

        assert session.send(self.r1, KeepaliveMessage())
        assert self.network.queue.pending == 1

    def test_down_session_drops_messages(self):
        session = self.network.connect(self.r1, self.r2)
        session.bring_down()
        from repro.bgp import KeepaliveMessage

        assert not session.send(self.r1, KeepaliveMessage())

    def test_taps_observe_messages(self):
        session = self.network.connect(self.r1, self.r2)
        captured = []
        session.taps.append(
            lambda when, sender, message: captured.append(sender.name)
        )
        from repro.bgp import KeepaliveMessage

        session.send(self.r1, KeepaliveMessage())
        assert captured == ["r1"]

    def test_duplicate_node_names_rejected(self):
        with pytest.raises(ValueError):
            self.network.add_router("r1", 65009)
        with pytest.raises(ValueError):
            self.network.add_collector("r1")


class TestLinks:
    def setup_method(self):
        self.network = Network()
        self.r1 = self.network.add_router("r1", 65001)
        self.r2 = self.network.add_router("r2", 65002)

    def test_fail_takes_sessions_down(self):
        link = self.network.add_link("l1")
        session = self.network.connect(self.r1, self.r2, link=link)
        link.fail()
        assert not session.established
        assert not link.is_up

    def test_restore_brings_sessions_up(self):
        link = self.network.add_link("l1")
        session = self.network.connect(self.r1, self.r2, link=link)
        link.fail()
        link.restore()
        assert session.established

    def test_fail_is_idempotent(self):
        link = self.network.add_link("l1")
        self.network.connect(self.r1, self.r2, link=link)
        link.fail()
        link.fail()
        link.restore()
        link.restore()
        assert link.is_up

    def test_flap_schedules_restore(self):
        link = self.network.add_link("l1")
        session = self.network.connect(self.r1, self.r2, link=link)
        self.network.converge()
        link.flap(self.network, down_for=10.0)
        assert not session.established
        self.network.converge()
        assert session.established

    def test_attach_to_down_link_downs_session(self):
        link = self.network.add_link("l1")
        link.fail()
        session = self.network.connect(self.r1, self.r2)
        link.attach(session)
        assert not session.established

    def test_duplicate_link_names_rejected(self):
        self.network.add_link("l1")
        with pytest.raises(ValueError):
            self.network.add_link("l1")
