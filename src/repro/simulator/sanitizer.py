"""SimSanitizer: runtime checking of the simulator's core invariants.

reprolint (:mod:`repro.lint`) proves what it can statically; this module
checks the rest at runtime, in the spirit of ASan/TSan for the event
loop. A :class:`SimSanitizer` owns a :class:`SanitizedSimulation` — a
drop-in :class:`~repro.simulator.events.Simulation` whose event loop
asserts *virtual-time monotonicity* on every dispatch and reports
past-scheduling attempts with full context — and wraps the mutable
resources of a serving system to detect:

* **request conservation** — every arrival is accounted for at quiesce:
  ``arrivals == completed + rejected + in-flight`` and, once the event
  queue drains, ``in-flight == 0``; duplicate completions and
  completions of never-submitted requests are caught immediately;
* **KV-block leaks** — any :class:`~repro.simulator.kvcache.KVBlockManager`
  still holding allocations when the simulation quiesces, reported with
  the leaking request ids (the "span ids" of PR 1's traces);
* **transfer double-free** — the same request double-submitted onto the
  transfer engine while its migration is still in flight, a completion
  callback firing twice, or transfers still outstanding at quiesce.

Checks are pure observers: a sanitized run executes the *same* events
in the *same* order and produces byte-identical traces and metrics
(``tests/test_sanitizer.py`` locks this against the golden fixture).

Usage::

    san = SimSanitizer()
    sim = san.simulation()
    system = DisaggregatedSystem(sim, ...)
    san.watch_system(system)
    simulate_trace(system, trace)
    san.check_quiesce()          # raises SanitizerError in strict mode
    print(san.report())

or from the CLI: ``repro.cli trace --sanitize`` / ``repro.cli metrics
--sanitize``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from .events import Simulation
from .kvcache import KVBlockManager
from .transfer import TransferEngine

__all__ = [
    "SanitizedSimulation",
    "SanitizerError",
    "SimSanitizer",
    "Violation",
]


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation.

    Attributes:
        kind: Machine-readable category (``time-regression``,
            ``past-schedule``, ``conservation``, ``duplicate-completion``,
            ``unknown-completion``, ``kv-leak``, ``transfer-double-submit``,
            ``transfer-double-complete``, ``transfer-outstanding``).
        message: Human-readable description with offending ids.
        time: Virtual time at detection.
        request_id: Offending request/span id, when attributable.
    """

    kind: str
    message: str
    time: float
    request_id: Optional[int] = None

    def format(self) -> str:
        where = f" [request {self.request_id}]" if self.request_id is not None else ""
        return f"[t={self.time:.6f}] {self.kind}{where}: {self.message}"


class SanitizerError(AssertionError):
    """Raised in strict mode the moment a violation is detected."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.format())
        self.violation = violation


class SanitizedSimulation(Simulation):
    """A :class:`Simulation` whose loop re-verifies its own invariants.

    The base class already *enforces* non-past scheduling by raising
    ``ValueError``; the sanitized loop additionally reports the attempt
    as a violation (so a full audit survives non-strict runs) and
    asserts that dispatch time never regresses — which would only
    happen if user code tampered with the clock or heap, exactly the
    tampering the sanitizer exists to surface.
    """

    __slots__ = ("_sanitizer",)

    def __init__(self, sanitizer: "SimSanitizer") -> None:
        super().__init__()
        self._sanitizer = sanitizer

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            self._sanitizer.violate(
                "past-schedule",
                f"schedule(delay={delay!r}) would fire in the virtual past",
                self.now,
            )
            # Lenient mode: clamp so the audit can continue past the
            # violation (strict mode raised above).
            delay = 0.0
        super().schedule(delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        if time < self.now:
            self._sanitizer.violate(
                "past-schedule",
                f"schedule_at({time!r}) is before now={self.now!r}",
                self.now,
            )
            time = self.now
        super().schedule_at(time, callback)

    def run(
        self, until: "float | None" = None, max_events: "int | None" = None
    ) -> None:
        # Mirrors Simulation.run exactly, adding the monotonicity check
        # before each dispatch. Keeping the loop shapes identical is
        # what makes sanitized runs event-for-event identical.
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        while heap and not self._stopped:
            time = heap[0][0]
            if time < self._now:
                self._sanitizer.violate(
                    "time-regression",
                    f"next event at t={time!r} precedes now={self._now!r}; "
                    "the clock or heap was tampered with",
                    self._now,
                )
                # Recover deterministically: dispatch at current time so
                # the clock never moves backwards even in lenient mode.
                time = self._now
            if until is not None and time > until:
                self._now = until
                return
            _, seq, callback = heappop(heap)
            self._now = max(self._now, time)
            self._firing = seq
            callback()
            self._events_processed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                return
        if until is not None and until > self._now:
            self._now = until


class _SystemWatch:
    """Conservation bookkeeping for one serving system."""

    def __init__(self, sanitizer: "SimSanitizer", system: Any) -> None:
        self.sanitizer = sanitizer
        self.system = system
        self.arrivals = 0
        self.completed_ids: "set[int]" = set()
        inner_submit = system.submit
        inner_complete = system._complete

        def submit(request: Any) -> None:
            self.arrivals += 1
            inner_submit(request)

        def complete(state: Any) -> None:
            request_id = getattr(state, "request_id", None)
            if request_id is not None:
                if request_id in self.completed_ids:
                    sanitizer.violate(
                        "duplicate-completion",
                        f"request {request_id} completed twice",
                        sanitizer.now(),
                        request_id=request_id,
                    )
                self.completed_ids.add(request_id)
            inner_complete(state)

        system.submit = submit
        system._complete = complete

    def check_quiesce(self) -> None:
        system = self.system
        completed = len(system.records)
        rejected = getattr(system, "rejections", 0)
        in_flight = system.unfinished
        if self.arrivals != completed + rejected + in_flight:
            self.sanitizer.violate(
                "conservation",
                f"arrivals ({self.arrivals}) != completed ({completed}) + "
                f"rejected ({rejected}) + in-flight ({in_flight})",
                self.sanitizer.now(),
            )
        if in_flight > 0:
            self.sanitizer.violate(
                "conservation",
                f"{in_flight} request(s) still in flight after the event "
                "queue drained — they can never complete",
                self.sanitizer.now(),
            )


class _KvWatch:
    """Leak detection for one KV block manager."""

    def __init__(self, sanitizer: "SimSanitizer", manager: KVBlockManager,
                 owner: str) -> None:
        self.sanitizer = sanitizer
        self.manager = manager
        self.owner = owner

    def check_quiesce(self) -> None:
        if self.manager.used_blocks > 0:
            holders = self.manager.holders()
            shown = ", ".join(str(h) for h in holders[:8])
            extra = f" (+{len(holders) - 8} more)" if len(holders) > 8 else ""
            self.sanitizer.violate(
                "kv-leak",
                f"{self.owner}: {self.manager.used_blocks} block(s) still "
                f"allocated at quiesce by request(s) {shown}{extra}",
                self.sanitizer.now(),
                request_id=holders[0] if holders else None,
            )


class _TransferWatch:
    """Double-submit / double-complete / outstanding-transfer detection."""

    def __init__(self, sanitizer: "SimSanitizer", engine: TransferEngine) -> None:
        self.sanitizer = sanitizer
        self.engine = engine
        self.in_flight: "dict[int, int]" = {}
        inner_submit = engine.submit

        def submit(request_id: int, num_bytes: float, link: Any,
                   on_done: Callable[[], None], num_parallel_channels: int = 1,
                   ) -> None:
            if self.in_flight.get(request_id, 0) > 0:
                sanitizer.violate(
                    "transfer-double-submit",
                    f"request {request_id} re-submitted to the transfer "
                    "engine while its migration is still in flight",
                    sanitizer.now(),
                    request_id=request_id,
                )
            self.in_flight[request_id] = self.in_flight.get(request_id, 0) + 1
            fired = [False]

            def done_once() -> None:
                if fired[0]:
                    sanitizer.violate(
                        "transfer-double-complete",
                        f"completion callback for request {request_id} "
                        "invoked twice",
                        sanitizer.now(),
                        request_id=request_id,
                    )
                else:
                    fired[0] = True
                    remaining = self.in_flight.get(request_id, 0) - 1
                    if remaining <= 0:
                        self.in_flight.pop(request_id, None)
                    else:
                        self.in_flight[request_id] = remaining
                on_done()

            inner_submit(request_id, num_bytes, link, done_once,
                         num_parallel_channels)

        engine.submit = submit  # type: ignore[method-assign]

    def check_quiesce(self) -> None:
        for request_id in sorted(self.in_flight):
            self.sanitizer.violate(
                "transfer-outstanding",
                f"request {request_id} has a transfer still in flight at "
                "quiesce",
                self.sanitizer.now(),
                request_id=request_id,
            )


class SimSanitizer:
    """Collects (or raises on) simulator invariant violations.

    Args:
        strict: When True (default), the first violation raises
            :class:`SanitizerError`. When False, violations accumulate
            in :attr:`violations` for a full post-run audit.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: "List[Violation]" = []
        self._sim: "SanitizedSimulation | None" = None
        self._system_watches: "list[_SystemWatch]" = []
        self._kv_watches: "list[_KvWatch]" = []
        self._transfer_watches: "list[_TransferWatch]" = []

    # ------------------------------------------------------------------
    def simulation(self) -> SanitizedSimulation:
        """Create the sanitized simulation this sanitizer observes."""
        if self._sim is None:
            self._sim = SanitizedSimulation(self)
        return self._sim

    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    # ------------------------------------------------------------------
    def watch_system(self, system: Any) -> None:
        """Watch a serving system: conservation plus its components.

        Wraps ``submit``/``_complete`` for request accounting and
        auto-discovers the system's KV block managers and transfer
        engine (prefill/decode/colocated instances expose their managers
        via the ``_kv`` attribute; disaggregated systems their engine
        via ``_transfers``).
        """
        self._system_watches.append(_SystemWatch(self, system))
        instances: "list[Any]" = []
        for attr in ("prefill_instances", "decode_instances", "instances"):
            instances.extend(getattr(system, attr, ()))
        for instance in instances:
            manager = getattr(instance, "_kv", None)
            if isinstance(manager, KVBlockManager):
                self.watch_kv(manager, owner=getattr(instance, "name",
                                                     type(instance).__name__))
        engine = getattr(system, "_transfers", None)
        if isinstance(engine, TransferEngine):
            self.watch_transfer_engine(engine)

    def watch_kv(self, manager: KVBlockManager, owner: str = "kv") -> None:
        """Check ``manager`` for leaked blocks at quiesce."""
        self._kv_watches.append(_KvWatch(self, manager, owner))

    def watch_transfer_engine(self, engine: TransferEngine) -> None:
        """Check ``engine`` for double-submit/double-complete."""
        self._transfer_watches.append(_TransferWatch(self, engine))

    # ------------------------------------------------------------------
    def violate(
        self,
        kind: str,
        message: str,
        time: float,
        request_id: "int | None" = None,
    ) -> None:
        """Record a violation; raise immediately in strict mode."""
        violation = Violation(kind=kind, message=message, time=time,
                              request_id=request_id)
        self.violations.append(violation)
        if self.strict:
            raise SanitizerError(violation)

    def check_quiesce(self) -> None:
        """Run end-of-simulation checks (call after the queue drains)."""
        for system_watch in self._system_watches:
            system_watch.check_quiesce()
        for kv_watch in self._kv_watches:
            kv_watch.check_quiesce()
        for transfer_watch in self._transfer_watches:
            transfer_watch.check_quiesce()

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        """Human-readable audit summary."""
        if not self.violations:
            return "SimSanitizer: 0 violations"
        lines = [f"SimSanitizer: {len(self.violations)} violation(s)"]
        lines.extend("  " + v.format() for v in self.violations)
        return "\n".join(lines)
