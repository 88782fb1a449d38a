"""Discrete-event simulation core: virtual clock and event queue.

The placement search (§4.1) relies on a simulator because "gauging the
SLO via real-testbed profiling is time-prohibitive". This is that
simulator's engine: a min-heap of timestamped callbacks and a virtual
clock. Events scheduled at equal times fire in scheduling order (a
monotonic tiebreaker keeps the heap stable and deterministic).

Every placement-search trial funnels through :meth:`Simulation.run`,
so the loop is deliberately lean: ``__slots__`` (no per-instance dict),
a plain integer tiebreaker, and heap operations bound to locals inside
the loop. :meth:`Simulation.stop` lets an observer (e.g. the goodput
search's early-abort monitor) halt the run between events without
unwinding the stack through user callbacks.

:meth:`Simulation.mark` and :meth:`Simulation.was_pending_at` let a
component that plans ahead (the fast decode kernel) tell, at an exact
time tie, whether the event now firing was already scheduled when it
planned — i.e. whether that event sorts before or after the events the
component would have scheduled step by step.
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
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: "list[tuple[float, int, Callable[[], None]]]" = []
        self._counter = 0
        # Sequence number of the event now executing (0 before the first).
        self._firing = 0
        self._events_processed = 0
        self._stopped = False

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
        same time. Code running outside :meth:`run` counts as pending.
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
        """
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        while heap and not self._stopped:
            time = heap[0][0]
            if until is not None and time > until:
                self._now = until
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

    def __len__(self) -> int:
        return len(self._heap)
