"""Macro-stepped decode runs: the fast-forward kernel (DESIGN §4h).

Between batch-membership changes a decode batch is closed-form: step
``i+1``'s duration depends only on step ``i``'s context, so a whole run
of steps can be planned arithmetically and scheduled as one simulator
event. :class:`DecodeKernel` owns one instance's running batch and does
that planning; the decode instance (disaggregated) and the colocated
instance (the vLLM baseline) both drive their decoding through it.

The kernel takes three inputs that describe the instance: the decode
step timer (batch size, context -> seconds), the micro-batch shape (how
many micro-batches the running batch splits into), and whether KV grows
per step (the colocated instance's optimistic admission; the decode
instance reserves every request's final context up front). It never
asks which instance drives it.

A run is planned one of two ways. A run shorter than
:data:`ARRAY_PLAN_MIN_STEPS` steps loops over its steps with the timer's
scalar closure; a longer one computes every step at once with float64
array arithmetic: the timer's array twin over the arithmetic sequence of
step contexts, times the per-step jitter draws, then a sequential
``np.add.accumulate`` of the durations from the run's start. Elementwise
IEEE operations round as Python's do, and ``accumulate`` adds left to
right as ``t = t + duration`` does, so both paths give the same
boundaries bit for bit.

A run is bounded only by what the instance itself does: the shortest
remaining request (nobody finishes mid-run) and, when KV grows, KV-growth
safety (nobody is preempted mid-run). The owner cuts a run short with
:meth:`DecodeKernel.truncate` when something it admits would join the
batch; truncation keeps boundaries through the step in flight and
refunds the dropped steps' jitter draws, so the per-instance noise
stream stays positionally identical. At an exact time tie the
simulation's :meth:`~repro.simulator.events.Simulation.mark` /
``was_pending_at`` watermark decides whether a boundary equal to now is
done, matching the order in which the per-step path's step-end events
would fire. Per-step boundaries, jitter draws, token times, KV growth,
and counters are computed with the same floating-point operations in
the same order as the per-step path, so results are bit-identical.

A run's cost does not grow with the batch. The running batch maps each
request to the fast-step count up to which its token fields are written
(its *mark*); finishers come off a heap keyed by finish step; the step
context is the incrementally kept running total with one micro-batch,
and with several one built-in sum over the first micro-batch's
join-ordered context offsets, which reads no request. When KV grows the
batch is the KV manager's growth group (:mod:`repro.simulator.kvcache`),
so the KV-safe bound is one query and a run's KV growth one update,
each O(block_size). A batched request's ``generated`` and
``token_times`` therefore lag: they are written back once per stay,
from a per-kernel step-time history, when the request leaves the batch
or the instance fails, and before any per-step step reads them.

Observers see the same events on either path, because the kernel emits
them for both. A tracer gets one ``decode`` span per request per stay in
the batch, from the join to the stay's last token, when the request
leaves it (:meth:`leave`, :meth:`clear`); a profiler gets one exec event
per decode step, handed over in one call per materialized run segment.
Counter reads go through :meth:`counters`, which materializes completed
steps and charges the step in flight, so gauges sampled mid-run read
what the per-step path would show.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from itertools import islice
from typing import Callable, Deque

import numpy as np

from ..latency.memo import DecodeStepTimer
from .events import Simulation
from .kvcache import KVBlockManager
from .profiler import Profiler
from .request import RequestState
from .tracing import SpanKind, Tracer

__all__ = ["ARRAY_PLAN_MIN_STEPS", "DecodeKernel"]

#: Shortest run :meth:`DecodeKernel.plan` computes with array arithmetic.
#: Timed in place over ``coloc-sharegpt`` passes on a shared 2-vCPU
#: x86-64 host, the scalar loop costs about 6–10 µs plus 0.6–1.0 µs per
#: step and the array path about 20–33 µs per run; they cross at about 24
#: steps (DESIGN §4h).
ARRAY_PLAN_MIN_STEPS = 24


class DecodeKernel:
    """One instance's running decode batch, stepped per step or per run.

    Args:
        sim: Shared simulation loop.
        kv: The instance's KV block manager.
        timer: The instance's decode step latency (batch size, micro-batch
            context -> step seconds), read through its scalar closure
            for short runs and its array twin for long ones.
        microbatches: Micro-batches the running batch splits into; a step
            takes the latency of the first ``ceil(B / microbatches)``
            requests (pipeline steady state).
        kv_grows: Each step appends one KV slot per request (optimistic
            admission). The batch is then ``kv``'s growth group, runs
            stop at the KV-growth-safe bound, and :meth:`plan` declines a
            run whose first step would preempt.
        jitter: The instance's noise source, or ``None`` for the constant
            1.0 (planning then skips the draws; ``x * 1.0`` is bitwise x).
        on_run_end: Called with the run's generation when a run's last
            boundary fires; the owner finishes the run through
            :meth:`end_run`.
        enabled: Macro runs allowed (the fast kernel); when False the
            owner only uses the per-step bookkeeping.
        name: The owning instance's name, for spans and exec events.
        tracer: Receives one ``decode`` span per stay in the batch.
        profiler: Receives one exec event per materialized run step,
            in one call per materialized run segment.

    The owner updates the public counters from its per-step path and
    reads them through :meth:`counters`; ``busy_time`` is the instance's
    whole busy time, so every iteration kind accumulates into one float
    in event order.
    """

    def __init__(
        self,
        sim: Simulation,
        kv: KVBlockManager,
        timer: DecodeStepTimer,
        microbatches: int,
        kv_grows: bool,
        jitter: "Callable[[], float] | None",
        on_run_end: "Callable[[int], None]",
        enabled: bool,
        name: str,
        tracer: Tracer,
        profiler: Profiler,
    ) -> None:
        self._sim = sim
        self._kv = kv
        self._step_latency = timer.step_latency_fn
        self._step_latencies = timer.step_latency_array_fn
        self._microbatches = microbatches
        self._kv_grows = kv_grows
        self._jitter = jitter
        self._on_run_end = on_run_end
        self.enabled = enabled
        self._name = name
        self._trace = tracer
        self._prof = profiler
        #: Running batch in join order, each request mapped to its mark.
        #: Marks ascend in join order, so the first is the oldest.
        self.active: "dict[RequestState, int]" = {}
        #: Total context of the running batch, as of the last
        #: materialized step.
        self.context_tokens = 0
        self.steps_executed = 0
        self.busy_time = 0.0
        self.tokens_generated = 0
        # Jitter draws refunded by a truncated run. The stream is
        # positional (a value depends only on its draw index), so a draw
        # planned for a dropped step is reused verbatim by whatever
        # draws next at that position instead.
        self._refunds: "Deque[float]" = deque()
        # State of the in-flight run (empty when idle).
        self._boundaries: "list[float]" = []
        self._durations: "list[float]" = []
        self._jitters: "list[float]" = []
        self._cursor = 0
        self._run_start = 0.0
        self._generation = 0
        # Simulation watermark taken when the run was planned (see
        # _steps_done for what it decides at an exact time tie).
        self._run_mark = 0
        # Fast steps materialized so far, and the end time of each from
        # the oldest mark on: _history[i] ends fast step _history_base + i.
        self._steps = 0
        self._history: "list[float]" = []
        self._history_base = 0
        # Min-heap of (finish fast step, join seq, state). Entries of
        # requests that left the batch or re-joined are skipped.
        self._heap: "list[tuple[int, int, RequestState]]" = []
        self._joins = 0
        # Join time and token count of each batched request's stay, kept
        # while a tracer is attached (the start of its decode span).
        self._stays: "dict[RequestState, tuple[float, int]]" = {}
        # context_len - mark of each batched request in join order, kept
        # while runs are planned over several micro-batches. Write-backs
        # move both terms by the same steps, so only a per-step step
        # changes it (rekey), and the first micro-batch's context needs
        # no request reads.
        self._offsets: "dict[RequestState, int]" = {}

    # ------------------------------------------------------------------
    # Batch membership and per-step bookkeeping
    # ------------------------------------------------------------------
    def draw_jitter(self) -> float:
        """The instance's next noise factor (refunded draws first)."""
        if self._refunds:
            return self._refunds.popleft()
        if self._jitter is None:
            return 1.0
        return self._jitter()

    def join(self, state: RequestState) -> None:
        """Add ``state`` (token fields current) to the running batch."""
        self.active[state] = self._steps
        self.context_tokens += state.context_len
        if self._kv_grows:
            self._kv.join_group(state.request_id)
        if self._trace.enabled:
            self._stays[state] = (self._sim.now, state.generated)
        if self.enabled:
            self._joins += 1
            heapq.heappush(
                self._heap, (self._steps + state.remaining_tokens, self._joins, state)
            )
            if self._microbatches > 1:
                self._offsets[state] = state.context_len - self._steps

    def leave(self, state: RequestState) -> None:
        """Remove ``state`` from the batch, its token fields written back."""
        self._write_back(state, self.active.pop(state))
        self.context_tokens -= state.context_len
        if self._kv_grows:
            self._kv.leave_group(state.request_id)
        self._offsets.pop(state, None)
        if self._trace.enabled:
            self._end_stay(state)

    def _end_stay(self, state: RequestState) -> None:
        """Emit the ``decode`` span of a stay that made tokens."""
        start, generated = self._stays.pop(state)
        if state.generated > generated:
            self._trace.span(
                state.request_id, SpanKind.DECODE, start, state.token_times[-1],
                self._name, token_index=state.generated - 1,
            )

    def write_back_all(self) -> None:
        """Bring every batched request's token fields up to date."""
        active = self.active
        steps = self._steps
        if not active or next(iter(active.values())) == steps:
            return  # the oldest mark is current, so every mark is
        for state, mark in active.items():
            self._write_back(state, mark)
            active[state] = steps

    def rekey(self) -> None:
        """Re-key the finish heap and the micro-batch offsets after a
        per-step step moved tokens on."""
        if not self.enabled:
            return
        active = self.active
        heap: "list[tuple[int, int, RequestState]]" = []
        for state, mark in active.items():
            self._joins += 1
            heap.append((mark + state.remaining_tokens, self._joins, state))
        heapq.heapify(heap)
        self._heap = heap
        if self._microbatches > 1:
            offsets = self._offsets
            for state, mark in active.items():
                offsets[state] = state.context_len - mark

    def _write_back(self, state: RequestState, mark: int) -> None:
        """Record the fast steps ``state`` has taken since step ``mark``."""
        steps = self._steps
        if mark < steps:
            base = self._history_base
            state.record_tokens(self._history[mark - base:steps - base])

    # ------------------------------------------------------------------
    # Macro runs
    # ------------------------------------------------------------------
    def plan(self) -> bool:
        """Plan and schedule one macro run of the (non-empty) batch.

        The run ends at the shortest remaining request, read off the
        finish heap, and, when KV grows, at the KV-growth-safe bound: the
        largest growth of the batch, the KV manager's growth group, that
        the free pool holds (``max_group_growth``). Returns False,
        planning nothing, when the very next step would preempt: the
        owner runs that step per step, which performs the real
        preemption. A run of at least :data:`ARRAY_PLAN_MIN_STEPS` steps
        is computed with array operations (:meth:`_plan_arrays`), a
        shorter one step by step, so planning costs O(log batch +
        block_size) Python operations plus one per step below the
        crossover. It reads no request's context or KV: a
        multi-micro-batch context is one built-in sum over the kept
        context offsets.
        """
        active = self.active
        heap = self._heap
        while True:
            finish, _, state = heap[0]
            mark = active.get(state)
            if mark is not None and mark + state.remaining_tokens == finish:
                break
            heapq.heappop(heap)  # left the batch, or re-joined since
        steps = self._steps
        max_steps = finish - steps
        if self._kv_grows:
            # The batch is the KV manager's growth group. Through step j
            # of a run the per-step path makes the same appends, and the
            # blocks they need grow with j while none are freed, so a run
            # the free pool holds preempts nobody.
            max_steps = self._kv.max_group_growth(max_steps)
            if max_steps < 1:
                return False
        self._trim_history()
        microbatches = self._microbatches
        mb_size = -(-len(active) // microbatches)
        if microbatches == 1:
            mb_context = self.context_tokens
        else:
            mb_context = (
                sum(islice(self._offsets.values(), mb_size)) + mb_size * steps
            )
        t = start = self._sim.now
        if max_steps >= ARRAY_PLAN_MIN_STEPS:
            t = self._plan_arrays(mb_size, mb_context, max_steps, start)
        else:
            latency = self._step_latency(mb_size)
            boundaries: "list[float]" = []
            durations: "list[float]" = []
            jitters: "list[float]" = []
            if self._jitter is None:
                # base * 1.0 is bitwise base; no stream position to advance,
                # so nothing to refund on truncation either.
                for _ in range(max_steps):
                    duration = latency(mb_context)
                    assert duration >= 0.0  # latency model is nonnegative
                    t = t + duration
                    boundaries.append(t)
                    durations.append(duration)
                    mb_context += mb_size
            else:
                for _ in range(max_steps):
                    noise = self.draw_jitter()
                    duration = latency(mb_context) * noise
                    assert duration >= 0.0  # latency model + jitter nonnegative
                    t = t + duration
                    boundaries.append(t)
                    durations.append(duration)
                    jitters.append(noise)
                    mb_context += mb_size
            self._boundaries = boundaries
            self._durations = durations
            self._jitters = jitters
        self._cursor = 0
        self._run_start = start
        self._run_mark = self._sim.mark()
        assert t >= self._sim.now
        self._sim.schedule_at(t, partial(self._on_run_end, self._generation))
        return True

    def _plan_arrays(self, mb_size: int, mb_context: int, steps: int, start: float) -> float:
        """Plan a long run with float64 array arithmetic; returns its end.

        The scalar loop's operations, elementwise: the step contexts are
        the sequence ``mb_context + i * mb_size``, each duration is the
        timer's array twin times the step's draw, and the boundaries are
        ``np.add.accumulate`` from the run's start, which adds left to
        right as ``t = t + duration`` does (only ``np.sum`` is pairwise).
        Draws still come one per step from :meth:`draw_jitter`, so
        refunds keep their stream positions.
        """
        contexts = np.arange(mb_context, mb_context + steps * mb_size, mb_size)
        times = np.empty(steps + 1)
        times[0] = start
        durations = times[1:]
        self._step_latencies(mb_size)(contexts, durations)
        jitters: "list[float]" = []
        if self._jitter is not None:
            draw = self.draw_jitter
            jitters = [draw() for _ in range(steps)]
            durations *= jitters
        assert durations.min() >= 0.0  # latency model + jitter nonnegative
        self._durations = durations.tolist()
        self._jitters = jitters
        np.add.accumulate(times, out=times)  # durations now hold boundaries
        boundaries: "list[float]" = durations.tolist()
        self._boundaries = boundaries
        return boundaries[-1]

    def _steps_done(self) -> int:
        """Run steps the per-step path has completed as this event fires.

        Boundaries before now are done and boundaries after it are not.
        One exactly at now is done unless the firing event was already
        pending when the run was planned: the per-step path schedules a
        step's end event when the step starts, after any such event, so
        at the tie the pending event fires first.
        """
        sim = self._sim
        if sim.was_pending_at(self._run_mark):
            return bisect_left(self._boundaries, sim.now, self._cursor)
        return bisect_right(self._boundaries, sim.now, self._cursor)

    def truncate(self) -> None:
        """End the in-flight run at the step in flight.

        Called when something joins the batch at the next step boundary,
        where the per-step path would first see it. Keeps boundaries
        through the first step not yet done (:meth:`_steps_done`),
        refunds the dropped steps' jitter draws, and re-aims the run-end
        event (the stale one is voided by the generation bump).
        """
        boundaries = self._boundaries
        if self._cursor >= len(boundaries):
            return
        keep = self._steps_done() + 1
        if keep >= len(boundaries):
            return
        self._refunds.extendleft(reversed(self._jitters[keep:]))
        del boundaries[keep:]
        del self._durations[keep:]
        del self._jitters[keep:]
        self._generation += 1
        last = boundaries[-1]
        assert last >= self._sim.now
        self._sim.schedule_at(last, partial(self._on_run_end, self._generation))

    def _materialize(self, upto: int) -> None:
        """Advance run steps ``[cursor, upto)`` in bulk.

        Counters accumulate per step in boundary order (preserving the
        per-step path's float-addition sequence); the step times join
        the history the batch's token fields are written back from, and
        KV grows by one update of the KV manager's growth group. A
        profiler gets the segment's step ends in one
        :meth:`~repro.simulator.profiler.Profiler.record_decode_steps`
        call, which appends the exec events the per-step path records at
        each step's end.
        """
        cursor = self._cursor
        if upto <= cursor:
            return
        count = upto - cursor
        busy = self.busy_time
        for duration in self._durations[cursor:upto]:
            busy += duration
        self.busy_time = busy
        self.steps_executed += count
        boundaries = self._boundaries
        ends = boundaries[cursor:upto]
        self._history.extend(ends)
        if self._kv_grows:
            self._kv.grow_group(count)
        batch = len(self.active)
        if self._prof.enabled:
            start = boundaries[cursor - 1] if cursor else self._run_start
            self._prof.record_decode_steps(self._name, start, ends, batch)
        self.tokens_generated += count * batch
        self.context_tokens += count * batch
        self._steps += count
        self._cursor = upto

    def sync_to_now(self) -> None:
        """Materialize every run step completed as of the firing event."""
        if self._cursor < len(self._boundaries):
            self._materialize(self._steps_done())

    def counters(self) -> "tuple[int, float]":
        """``(steps_executed, busy_time)`` as the per-step path has them now.

        Materializes every completed run step (so ``tokens_generated``,
        ``context_tokens`` and KV are current too) and charges the step
        in flight, which the per-step path charges when the step starts.
        """
        self.sync_to_now()
        if self._cursor < len(self._boundaries):
            return (
                self.steps_executed + 1,
                self.busy_time + self._durations[self._cursor],
            )
        return self.steps_executed, self.busy_time

    def end_run(self, generation: int) -> bool:
        """Materialize a run whose last boundary fired.

        Returns False for the stale end event of a truncated or
        cancelled run. The owner then retires finishers with
        :meth:`pop_finished` and starts its next iteration.
        """
        if generation != self._generation:
            return False
        self._materialize(len(self._boundaries))
        self._boundaries = []
        self._durations = []
        self._jitters = []
        self._cursor = 0
        return True

    def pop_finished(self) -> "RequestState | None":
        """Next request whose last token the materialized steps produced.

        The request leaves the batch with its token fields written back;
        the owner frees its KV and reports it. Equal finish steps pop in
        join order, the per-step path's batch order. ``None`` when no
        finisher is left.
        """
        active = self.active
        heap = self._heap
        steps = self._steps
        while heap and heap[0][0] <= steps:
            finish, _, state = heapq.heappop(heap)
            mark = active.get(state)
            if mark is None or mark + state.remaining_tokens != finish:
                continue  # left the batch, or re-joined since
            self.leave(state)
            return state
        return None

    def _trim_history(self) -> None:
        """Drop step times that no batched request still needs.

        Trimming once the dead prefix outgrows the rest keeps the cost
        amortized O(1) per step, and the history at most twice the
        steps since the oldest mark.
        """
        oldest = next(iter(self.active.values()), self._steps)
        dead = oldest - self._history_base
        if 2 * dead > len(self._history):
            del self._history[:dead]
            self._history_base = oldest

    # ------------------------------------------------------------------
    # Instance failure
    # ------------------------------------------------------------------
    def abort(self) -> None:
        """Cancel the in-flight run because the instance failed.

        Materializes the completed steps and charges the step in flight
        (the per-step path charges counters when a step starts), then
        writes every batched request's tokens back.
        """
        self.steps_executed, self.busy_time = self.counters()
        self.write_back_all()
        self._generation += 1
        self._boundaries = []
        self._durations = []
        self._jitters = []
        self._cursor = 0

    def clear(self) -> None:
        """Empty the batch (after :meth:`abort`, once victims are taken).

        Each batched request's stay ends here, as in :meth:`leave`.
        """
        if self._trace.enabled:
            for state in self.active:
                self._end_stay(state)
        if self._kv_grows:
            for state in self.active:
                self._kv.leave_group(state.request_id)
        self.active.clear()
        self._heap.clear()
        self._offsets.clear()
        self._history.clear()
        self._history_base = self._steps
        self.context_tokens = 0
