"""Event queue driving the simulation.

A classic discrete-event core: a heap of ``(time, sequence, event)``
entries.  The sequence number breaks ties deterministically in
insertion order, which matters because BGP convergence outcomes can
depend on message ordering and the whole reproduction must be
replayable from a seed.

The heap stores plain tuples so ordering comparisons run in C; the
``(time, sequence)`` pair is unique, so the trailing
:class:`ScheduledEvent` handle never participates in a comparison.
Cancellation is lazy — a cancelled handle stays in the heap as a
tombstone until popped — but the queue compacts itself whenever
tombstones outnumber live entries, so churn-heavy runs (damping,
beacon flaps) cannot grow the heap unboundedly.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from repro.netbase.timebase import SimClock


class ScheduledEvent:
    """Handle for one queued action; queue ordering is (time, sequence)."""

    __slots__ = (
        "time",
        "sequence",
        "action",
        "cancelled",
        "executed",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        queue: "EventQueue",
    ):
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self.executed = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped.

        Cancelling an event that already ran (or was already cancelled)
        is a no-op — callers like the beacon scheduler cancel whole
        handle lists without tracking which phases have fired, and only
        events still in the heap may count as tombstones.
        """
        if not self.cancelled and not self.executed:
            self.cancelled = True
            self._queue._note_cancelled()


class EventQueue:
    """Time-ordered queue of simulation events."""

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._heap: "list[tuple[float, int, ScheduledEvent]]" = []
        self._sequence = 0
        self._processed = 0
        self._cancelled = 0
        self._peak_pending = 0

    @property
    def clock(self) -> SimClock:
        """The simulation clock this queue advances."""
        return self._clock

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._clock.now

    @property
    def pending(self) -> int:
        """Number of queued entries, cancelled tombstones included."""
        return len(self._heap)

    @property
    def live_pending(self) -> int:
        """Number of queued events that will actually execute."""
        return len(self._heap) - self._cancelled

    @property
    def peak_pending(self) -> int:
        """High-water mark of the heap size (tombstones included)."""
        return self._peak_pending

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self, delay: float, action: Callable[[], None]
    ) -> ScheduledEvent:
        """Queue *action* to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self._clock.now + delay, action)

    def schedule_at(
        self, when: float, action: Callable[[], None]
    ) -> ScheduledEvent:
        """Queue *action* to run at absolute time *when*.

        Timestamps accumulated through repeated float addition can land
        an ulp or two before ``now``; such drift is clamped to ``now``
        rather than rejected.  Genuinely past times still raise.
        """
        now = self._clock.now
        if when < now:
            # A few hundred ulps covers timestamps recomputed through
            # long float sums (a day of 0.1 s steps drifts ~40 ulps)
            # while staying microseconds-scale at epoch clocks — far
            # below any session delay, so genuinely past times still
            # fail loudly.
            tolerance = max(1e-9, 256.0 * math.ulp(now))
            if now - when > tolerance:
                raise ValueError(
                    f"cannot schedule in the past: {when} < {now}"
                )
            when = now
        event = ScheduledEvent(when, self._sequence, action, self)
        self._sequence += 1
        heapq.heappush(self._heap, (when, event.sequence, event))
        if len(self._heap) > self._peak_pending:
            self._peak_pending = len(self._heap)
        return event

    def _note_cancelled(self) -> None:
        """Count one tombstone; compact when they outnumber live events."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        Mutates the list in place: :meth:`run` may hold a reference to
        it across an action that triggers compaction.
        """
        self._heap[:] = (
            entry for entry in self._heap if not entry[2].cancelled
        )
        heapq.heapify(self._heap)
        self._cancelled = 0

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Execute events in time order.

        Stops when the queue is empty, when the next event is after
        *until*, or after *max_events* executions (a convergence-loop
        backstop).  Returns the number of events executed.
        """
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        advance_to = self._clock.advance_to
        while heap:
            if max_events is not None and executed >= max_events:
                break
            when, _sequence, event = heap[0]
            if event.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            if until is not None and when > until:
                break
            pop(heap)
            event.executed = True
            advance_to(when)
            event.action()
            executed += 1
            self._processed += 1
        if until is not None and self._clock.now < until:
            # A max_events stop can leave events due before *until*;
            # the clock must not skip past them.
            while heap and heap[0][2].cancelled:
                pop(heap)
                self._cancelled -= 1
            if not heap or heap[0][0] > until:
                advance_to(until)
        return executed

    def run_until_idle(self, *, max_events: int = 1_000_000) -> int:
        """Run until no events remain (bounded by *max_events*)."""
        executed = self.run(max_events=max_events)
        if self.live_pending:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events"
            )
        return executed
