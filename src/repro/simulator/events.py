"""Discrete-event simulation core: virtual clock and event queue.

The placement search (§4.1) relies on a simulator because "gauging the
SLO via real-testbed profiling is time-prohibitive". This is that
simulator's engine: a min-heap of timestamped callbacks and a virtual
clock. Events scheduled at equal times fire in scheduling order (a
monotonic tiebreaker keeps the heap stable and deterministic).

Every placement-search trial funnels through :meth:`Simulation.run`,
so the loop is deliberately lean: ``__slots__`` (no per-instance dict),
a plain integer tiebreaker, and heap operations bound to locals inside
the loop. :meth:`Simulation.stop` lets an observer (e.g. a goodput
trial's SLO counter, on early abort) halt the run between events without
unwinding the stack through user callbacks.

:meth:`Simulation.mark` and :meth:`Simulation.was_pending_at` let a
component that plans ahead (the fast decode kernel) tell, at an exact
time tie, whether the event now firing was already scheduled when it
planned — i.e. whether that event sorts before or after the events the
component would have scheduled step by step.

The loop is not re-entrant: :meth:`Simulation.run` raises
``RuntimeError`` when an event callback calls it, a check paid once per
``run()`` call and never per event. Callbacks schedule follow-up events
instead.

There is one loop. An event due before ``now`` (reachable only by
tampering with the clock or the heap, since the schedule methods refuse
the past) goes to the :meth:`Simulation._time_regression` hook, which
raises here; the sanitizer's subclass reports it and recovers instead.
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["Simulation"]


class Simulation:
    """A deterministic discrete-event simulation loop.

    Usage::

        sim = Simulation()
        sim.schedule(1.5, lambda: ...)   # fire 1.5 s from now
        sim.run()                        # drain all events
    """

    __slots__ = (
        "_now", "_heap", "_counter", "_firing", "_events_processed", "_stopped",
        "_running",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: "list[tuple[float, int, Callable[[], None]]]" = []
        self._counter = 0
        # Sequence number of the event now executing (0 before the first).
        self._firing = 0
        self._events_processed = 0
        self._stopped = False
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time, seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (instrumentation)."""
        return self._events_processed

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` was called (the loop will not resume)."""
        return self._stopped

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Raises:
            ValueError: on negative delay — events cannot fire in the past.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._counter += 1
        heapq.heappush(self._heap, (self._now + delay, self._counter, callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        self._counter += 1
        heapq.heappush(self._heap, (time, self._counter, callback))

    def mark(self) -> int:
        """A watermark covering every event scheduled so far."""
        return self._counter

    def was_pending_at(self, mark: int) -> bool:
        """Whether the event now firing was already scheduled at ``mark``.

        Equal-time events fire in scheduling order, so an event pending
        at ``mark`` fires before any event scheduled after it for the
        same time. Code running before the first event counts as
        pending; after :meth:`run` stopped at ``until``, every event
        through ``until`` has fired, so code running then counts as
        scheduled after all of them.
        """
        return self._firing <= mark

    def stop(self) -> None:
        """Halt the run loop after the currently executing event.

        Pending events stay queued but will not execute; subsequent
        :meth:`run` calls return immediately. Simulations are single-use
        in this codebase, so there is deliberately no way to un-stop.
        """
        self._stopped = True

    def run(self, until: "float | None" = None, max_events: "int | None" = None) -> None:
        """Execute events in time order.

        Args:
            until: Stop (without executing) events after this virtual time;
                the clock is advanced to ``until``. ``None`` drains the queue.
            max_events: Safety valve against runaway simulations.

        Raises:
            RuntimeError: when called from inside an event callback.
        """
        if self._running:
            raise RuntimeError(
                "Simulation.run() called from inside an event callback; the "
                "loop is not re-entrant — schedule a follow-up event instead"
            )
        self._running = True
        try:
            self._loop(until, max_events)
        finally:
            self._running = False

    def _loop(self, until: "float | None", max_events: "int | None") -> None:
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        while heap and not self._stopped:
            time = heap[0][0]
            if time < self._now:
                time = self._time_regression(time)
            if until is not None and time > until:
                self._now = until
                self._firing = self._counter + 1
                return
            _, seq, callback = heappop(heap)
            self._now = time
            self._firing = seq
            callback()
            self._events_processed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                return
        if until is not None and until > self._now:
            self._now = until

    def _time_regression(self, time: float) -> float:
        """The dispatch time of an event due at ``time``, before now.

        Raises:
            RuntimeError: always; subclasses may report and recover.
        """
        raise RuntimeError(
            f"next event at t={time!r} precedes now={self._now!r}; "
            "the clock or heap was tampered with"
        )

    def __len__(self) -> int:
        return len(self._heap)
