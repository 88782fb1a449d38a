"""Critical-path profiler hooks: cluster-level execution telemetry.

The tracer (:mod:`repro.simulator.tracing`) answers *where one request's
time went*; this module collects what spans cannot carry — the
instance-level execution timeline needed to answer *why*: which replica
was busy or idle, how full its batches ran, and when a decode instance
sat blocked on KV transfers it could not yet pull. §3.1's interference
argument and Figure 10's stage accounting both need this cluster view.

A :class:`Profiler` is a passive event sink shared by every instance and
the transfer engine, mirroring the tracer's injection pattern: components
hold the :data:`NULL_PROFILER` singleton unless a real profiler is
passed, and every hot-path call is guarded by ``profiler.enabled``. The
record methods are deliberately allocation-light — they append plain
tuples, no comprehensions, no dict churn (perfbench's ``observed-disagg``
workload times them against its ``norm_wall_s`` bound).

Collected streams (virtual-time seconds throughout):

* **exec events** ``(instance, phase, start, end, batch_size, tokens)``
  — one per executed prefill batch, decode step, or colocated iteration.
  The decode kernel hands each materialized run segment over in one
  :meth:`Profiler.record_decode_steps` call, which appends the same
  per-step events the per-step path records one :meth:`~Profiler.record_exec`
  call at a time;
* **transfer events** ``(request_id, submitted, start, end)`` — the
  submit→wire-start gap is link queueing, start→end is wire time, which
  lets the analysis layer split the KV span into *wait* vs *transmit*;
* **pending intervals** ``(instance, start, end)`` — periods a decode
  instance had KV caches parked or in flight toward it (the §4.3 pull
  policy's "blocked on transfer" signal).

The analysis side (:mod:`repro.analysis.critpath`) turns these into
utilization timelines, batch-occupancy histograms, and interference
attribution; nothing here aggregates, so profiling cost stays O(1) per
event.
"""

from __future__ import annotations

from typing import Any

__all__ = ["ExecEvent", "NullProfiler", "Profiler", "NULL_PROFILER"]

#: Field order of one exec-event tuple (documentation; events are plain
#: tuples to keep the per-event hot path allocation-light).
ExecEvent = "tuple[str, str, float, float, int, int]"


class Profiler:
    """Collects instance-level execution events in emission order.

    All three event streams are append-only lists of plain tuples, so a
    fixed-seed run produces an identical event sequence — the profile
    reports built from them are byte-deterministic.
    """

    enabled = True

    def __init__(self) -> None:
        #: (instance, phase, start, end, batch_size, tokens) per batch/step.
        self.exec_events: "list[tuple[str, str, float, float, int, int]]" = []
        #: (request_id, submitted, wire_start, wire_end) per KV migration.
        self.transfer_events: "list[tuple[int, float, float, float]]" = []
        #: (instance, start, end) blocked-on-transfer intervals.
        self.pending_events: "list[tuple[str, float, float]]" = []
        self._open_pending: "dict[str, float]" = {}
        self._finished = False

    def __len__(self) -> int:
        return len(self.exec_events)

    # ------------------------------------------------------------------
    def record_exec(
        self,
        instance: str,
        phase: str,
        start: float,
        end: float,
        batch_size: int,
        tokens: int,
    ) -> None:
        """Record one executed batch/step/iteration on ``instance``."""
        self.exec_events.append((instance, phase, start, end, batch_size, tokens))

    def record_decode_steps(
        self, instance: str, start: float, ends: "list[float]", batch_size: int
    ) -> None:
        """Record consecutive decode steps of one batch on ``instance``.

        Step ``i`` ends at ``ends[i]`` and starts where step ``i - 1``
        ended (``start`` for the first). Appends, in order, the events
        one :meth:`record_exec` call per step would: a decode step's
        token count is its batch size.
        """
        append = self.exec_events.append
        for end in ends:
            append((instance, "decode", start, end, batch_size, batch_size))
            start = end

    def record_transfer(
        self, request_id: int, submitted: float, start: float, end: float
    ) -> None:
        """Record one KV migration (submit time, wire start, wire end)."""
        self.transfer_events.append((request_id, submitted, start, end))

    def begin_pending(self, instance: str, time: float) -> None:
        """Open a blocked-on-transfer interval (idempotent while open)."""
        if instance not in self._open_pending:
            self._open_pending[instance] = time

    def end_pending(self, instance: str, time: float) -> None:
        """Close the open blocked-on-transfer interval, if any."""
        start = self._open_pending.pop(instance, None)
        if start is not None and time > start:
            self.pending_events.append((instance, start, time))

    def note_pending(self, instance: str, blocked: bool, time: float) -> None:
        """Reconcile the pending state after a queue/in-flight mutation."""
        if blocked:
            self.begin_pending(instance, time)
        else:
            self.end_pending(instance, time)

    # ------------------------------------------------------------------
    def finish(self, now: float) -> None:
        """Close any still-open pending intervals at simulation end.

        Idempotent; :func:`repro.serving.base.simulate_trace` calls this
        once the event queue drains so reports never see dangling
        intervals.
        """
        if self._finished:
            return
        self._finished = True
        for instance in sorted(self._open_pending):
            start = self._open_pending[instance]
            if now > start:
                self.pending_events.append((instance, start, now))
        self._open_pending.clear()

    def instances(self) -> "list[str]":
        """Instance names seen in any stream, sorted."""
        names: "set[str]" = set()
        for event in self.exec_events:
            names.add(event[0])
        for pending in self.pending_events:
            names.add(pending[0])
        return sorted(names)


class NullProfiler(Profiler):
    """The disabled profiler: every record method is a no-op.

    Components default to the shared :data:`NULL_PROFILER`, and hot
    paths additionally guard on ``enabled`` so a disabled profiler costs
    one attribute load per event at most.
    """

    enabled = False

    def record_exec(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def record_decode_steps(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def record_transfer(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def begin_pending(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def end_pending(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def note_pending(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def finish(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass


#: Shared no-op profiler used when profiling is disabled.
NULL_PROFILER = NullProfiler()
