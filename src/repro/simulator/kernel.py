"""Macro-stepped decode runs: the fast-forward kernel (DESIGN §4h).

Between batch-membership changes a decode batch is closed-form: step
``i+1``'s duration depends only on step ``i``'s context, so a whole run
of steps can be planned arithmetically and scheduled as one simulator
event. :class:`DecodeKernel` owns one instance's running batch and does
that planning; the decode instance (disaggregated) and the colocated
instance (the vLLM baseline) both drive their decoding through it.

The kernel takes three inputs that describe the instance: the
step-latency closure (batch size -> context -> seconds), the micro-batch
shape (how many micro-batches the running batch splits into), and
whether KV grows per step (optimistic admission). It never asks which
instance drives it.

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
(its *mark*); finishers come off a heap keyed by finish step; and the
one-micro-batch context is the incrementally kept running total. A
batched request's ``generated`` and ``token_times`` therefore lag: they
are written back once per stay, from a per-kernel step-time history,
when the request leaves the batch or the instance fails, and before any
per-step step or observer reads them.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from itertools import islice
from typing import Callable, Deque

from .events import Simulation
from .kvcache import KVBlockManager
from .request import RequestState

__all__ = ["DecodeKernel"]


class DecodeKernel:
    """One instance's running decode batch, stepped per step or per run.

    Args:
        sim: Shared simulation loop.
        kv: The instance's KV block manager.
        step_latency: Batch size -> (micro-batch context -> step seconds),
            e.g. :meth:`~repro.latency.memo.DecodeStepTimer.step_latency_fn`.
        microbatches: Micro-batches the running batch splits into; a step
            takes the latency of the first ``ceil(B / microbatches)``
            requests (pipeline steady state).
        kv_grows: Each step appends one KV slot per request (optimistic
            admission); runs then stop at the KV-growth-safe bound.
        jitter: The instance's noise source, or ``None`` for the constant
            1.0 (planning then skips the draws; ``x * 1.0`` is bitwise x).
        on_run_end: Called with the run's generation when a run's last
            boundary fires; the owner finishes the run through
            :meth:`end_run`.
        enabled: Macro runs allowed (the fast kernel); when False the
            owner only uses the per-step bookkeeping.

    The owner reads and updates the public counters; ``busy_time`` is the
    instance's whole busy time, so every iteration kind accumulates into
    one float in event order.
    """

    def __init__(
        self,
        sim: Simulation,
        kv: KVBlockManager,
        step_latency: "Callable[[int], Callable[[int], float]]",
        microbatches: int,
        kv_grows: bool,
        jitter: "Callable[[], float] | None",
        on_run_end: "Callable[[int], None]",
        enabled: bool,
    ) -> None:
        self._sim = sim
        self._kv = kv
        self._step_latency = step_latency
        self._microbatches = microbatches
        self._kv_grows = kv_grows
        self._jitter = jitter
        self._on_run_end = on_run_end
        self.enabled = enabled
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
        if self.enabled:
            self._joins += 1
            heapq.heappush(
                self._heap, (self._steps + state.remaining_tokens, self._joins, state)
            )

    def leave(self, state: RequestState) -> None:
        """Remove ``state`` from the batch, its token fields written back."""
        self._write_back(state, self.active.pop(state))
        self.context_tokens -= state.context_len

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
        """Re-key the finish heap after a per-step step moved tokens on."""
        if not self.enabled:
            return
        heap: "list[tuple[int, int, RequestState]]" = []
        for state, mark in self.active.items():
            self._joins += 1
            heap.append((mark + state.remaining_tokens, self._joins, state))
        heapq.heapify(heap)
        self._heap = heap

    def _write_back(self, state: RequestState, mark: int) -> None:
        """Record the fast steps ``state`` has taken since step ``mark``."""
        steps = self._steps
        if mark < steps:
            base = self._history_base
            state.record_tokens(self._history[mark - base:steps - base])

    # ------------------------------------------------------------------
    # Macro runs
    # ------------------------------------------------------------------
    def _kv_safe_steps(self, limit: int) -> int:
        """Longest run with guaranteed KV growth.

        Largest ``j <= limit`` such that growing every batched request by
        ``j`` tokens fits the free block budget; through step ``j`` the
        per-step path performs the exact same appends (cumulative need is
        monotone and no blocks free mid-run), so it preempts nobody.
        """
        kv = self._kv
        block_size = kv.block_size
        free = kv.free_blocks
        held = [kv.tokens_of(s.request_id) for s in self.active]

        def extra_blocks(growth: int) -> int:
            total = 0
            for tokens in held:
                total += (
                    -(-(tokens + growth) // block_size) - (-(-tokens // block_size))
                )
            return total

        if extra_blocks(limit) <= free:
            return limit
        lo, hi = 0, limit  # extra_blocks(0) == 0 <= free
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if extra_blocks(mid) <= free:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def plan(self) -> bool:
        """Plan and schedule one macro run of the (non-empty) batch.

        The run ends at the shortest remaining request, read off the
        finish heap, and, when KV grows, at the KV-growth-safe bound.
        Returns False, planning nothing, when the very next step would
        preempt: the owner runs that step per step, which performs the
        real preemption. Planning costs O(steps + log batch); only a
        multi-micro-batch context and the KV bound scan the batch.
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
            max_steps = self._kv_safe_steps(max_steps)
            if max_steps < 1:
                return False
        self._trim_history()
        microbatches = self._microbatches
        mb_size = -(-len(active) // microbatches)
        if microbatches == 1:
            mb_context = self.context_tokens
        else:
            mb_context = 0
            for member, member_mark in islice(active.items(), mb_size):
                mb_context += member.context_len + steps - member_mark
        latency = self._step_latency(mb_size)
        boundaries: "list[float]" = []
        durations: "list[float]" = []
        jitters: "list[float]" = []
        t = self._sim.now
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
        self._run_mark = self._sim.mark()
        assert t >= self._sim.now
        self._sim.schedule_at(t, partial(self._on_run_end, self._generation))
        return True

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

        Called when something joins the batch (or observes it) at the
        next step boundary, where the per-step path would first see it.
        Keeps boundaries through the first step not yet done
        (:meth:`_steps_done`), refunds the dropped steps' jitter draws,
        and re-aims the run-end event (the stale one is voided by the
        generation bump).
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
        KV growth is one bulk append per request.
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
        self._history.extend(self._boundaries[cursor:upto])
        if self._kv_grows:
            kv = self._kv
            for state in self.active:
                kv.append(state.request_id, count)
        batch = len(self.active)
        self.tokens_generated += count * batch
        self.context_tokens += count * batch
        self._steps += count
        self._cursor = upto

    def sync_to_now(self) -> None:
        """Materialize every run step completed as of the firing event."""
        if self._cursor < len(self._boundaries):
            self._materialize(self._steps_done())

    def live_context_tokens(self) -> int:
        """Total batch context as of now, without materializing a run.

        Completed but unmaterialized steps times the batch size bridge
        the gap, so mid-run readers touch no per-request state.
        """
        extra = 0
        if self._cursor < len(self._boundaries):
            extra = (self._steps_done() - self._cursor) * len(self.active)
        return self.context_tokens + extra

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
    # Leaving the fast path
    # ------------------------------------------------------------------
    def fallback(self) -> None:
        """Switch to per-step stepping from the step in flight on.

        Brings counters, KV and token fields up to date and ends the
        in-flight run at its current step, so every later step is an
        individual event that observers can see.
        """
        self.sync_to_now()
        self.write_back_all()
        self.truncate()
        self.enabled = False

    def abort(self) -> None:
        """Cancel the in-flight run because the instance failed.

        Materializes the completed steps and charges the step in flight
        (the per-step path charges counters when a step starts), then
        writes every batched request's tokens back.
        """
        if self._cursor < len(self._boundaries):
            self.sync_to_now()
            if self._cursor < len(self._boundaries):
                self.steps_executed += 1
                self.busy_time += self._durations[self._cursor]
        self.write_back_all()
        self._generation += 1
        self._boundaries = []
        self._durations = []
        self._jitters = []
        self._cursor = 0

    def clear(self) -> None:
        """Empty the batch (after :meth:`abort`, once victims are taken)."""
        self.active.clear()
        self._heap.clear()
        self._history.clear()
        self._history_base = self._steps
        self.context_tokens = 0
