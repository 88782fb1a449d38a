"""Decode instance: continuous batching of token generation.

A decode instance receives KV caches pulled from prefill instances and
generates the remaining tokens. Batching is the whole point (§3.2): a
single decode job is bandwidth-bound, so the instance accumulates as
large a batch as its KV memory and ``max_batch_size`` allow.

Pipeline parallelism is modeled in steady state: the active set splits
into ``pp`` micro-batches flowing through the stages, so every active
request produces one token per ``request_latency(micro-batch)`` —
pipeline depth multiplies KV capacity (hence throughput) while TPOT is
set by the micro-batch traversal time.

Admission reserves the *full* final context (prompt + all output tokens)
so a request admitted never runs out of KV mid-flight; this is the
conservative no-preemption policy a disaggregated decode instance can
afford because the prefill side buffers overflow (§4.3 pull policy).

**Fast-forward kernel (DESIGN §4h).** When per-step observability is off
(tracer and profiler are the NULL objects, no metrics registry attached)
and ``fast_kernel`` is enabled, the instance *macro-steps*: instead of
one heap event per decode step it plans the longest run of steps whose
batch membership the instance itself cannot change — bounded by the
shortest remaining request and, in optimistic-admission mode, by
KV-growth safety — and schedules a single run-end event. Events
elsewhere in the cluster do not bound a run: a submission landing
mid-run truncates it at the step boundary where the per-step path would
admit the newcomer, refunding unused jitter draws so the RNG stream
stays aligned, and mid-run reads (the pull policy's :meth:`can_reserve`)
first materialize every step the per-step path would have completed.
Per-step boundaries, jitter draws, token times, KV growth, and counters
are computed with the same floating-point operations in the same order
as the step-by-step path, so results are bit-identical.

A run's cost does not grow with the batch. The active set maps each
request to the fast-step count up to which its token fields are written
(its *mark*), finishers come off a heap keyed by finish step, and the
micro-batch context is the incrementally kept active context (pp=1). A
batched request's ``generated`` and ``token_times`` therefore lag: they
are written back once per stay, from a per-instance step-time history,
when the request finishes, is preempted, or the instance fails, and
before :meth:`instrument` or any per-step step reads them.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import islice
from typing import Callable, Deque

from .events import Simulation
from .instance import InstanceSpec
from .kvcache import KVBlockManager
from .metrics import MetricsRegistry
from .profiler import NULL_PROFILER, Profiler
from .request import RequestPhase, RequestState
from .tracing import NULL_TRACER, SpanKind, Tracer
from ..latency.memo import DecodeStepTimer
from ..latency.parallel import decode_times
from ..scheduling.batch import BatchPolicy, make_batch_policy
from ..scheduling.config import SchedulingConfig
from ..scheduling.queue import QueuePolicy, make_queue_policy

__all__ = ["DecodeInstance"]


class DecodeInstance:
    """Simulated decode-only model replica.

    Args:
        sim: Shared simulation loop.
        spec: Instance resources and parallelism.
        on_request_done: Callback fired when a request's last token is
            generated.
        reserve_full_context: Reserve KV for the final context length at
            admission (True, default) or only the current context with
            growth on demand (False — vLLM-style optimistic admission;
            an append failure then preempts the youngest request).
        name: Identifier for reporting.
        tracer: Optional lifecycle tracer receiving queue/step spans.
        profiler: Optional critical-path profiler receiving one exec
            event per decoding step.
        fast_kernel: Allow macro-stepped runs when per-step observability
            is off. Results are bit-identical either way; disabling
            forces the one-event-per-step reference path.
        scheduling: Policy configuration (:mod:`repro.scheduling`); the
            queue policy orders the waiting deque before admission and
            the batch policy gates the ``max_batch_size`` cap. Defaults
            reproduce FCFS + plain capping exactly.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        on_request_done: Callable[[RequestState], None],
        reserve_full_context: bool = True,
        name: str = "decode-0",
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        fast_kernel: bool = True,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        self._sim = sim
        self.spec = spec
        self.name = name
        self._on_done = on_request_done
        self._reserve_full = reserve_full_context
        cfg = scheduling if scheduling is not None else SchedulingConfig()
        self._qpolicy: QueuePolicy = make_queue_policy(
            cfg.queue_policy,
            sjf_aging=cfg.sjf_aging,
            edf_default_deadline=cfg.edf_default_deadline,
            enqueue_stamp="decode_enqueue",
        )
        self._bpolicy: BatchPolicy = make_batch_policy(cfg.batch_policy)
        self._waiting: "Deque[RequestState]" = deque()
        # Active set in admission order, each request mapped to its mark:
        # the fast-step count up to which its token fields are written.
        # Marks ascend in admission order, so the first is the oldest.
        self._active: "dict[RequestState, int]" = {}
        self._kv: KVBlockManager = spec.make_kv_manager()
        self._coeffs = spec.latency_coeffs
        self._jitter = spec.make_jitter(name)
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._prof = profiler if profiler is not None else NULL_PROFILER
        self._alive = True
        self._stepping = False
        # Fast-forward kernel: active only when nothing observes
        # individual steps (tracing/profiling emit per-step artifacts;
        # instrument() samples live state through gauges).
        self._fast = (
            bool(fast_kernel)
            and not self._trace.enabled
            and not self._prof.enabled
        )
        self._timer = DecodeStepTimer(
            spec.model, spec.config, self._coeffs, spec.tp_link, spec.pp_link
        )
        # With jitter_sigma == 0 the noise source is the stateless
        # constant 1.0 (x * 1.0 is bitwise x), so macro-run planning may
        # skip the draw calls without perturbing any stream position.
        self._unit_jitter = spec.jitter_sigma == 0.0
        # State of the in-flight macro run (empty when idle or slow).
        self._run_boundaries: "list[float]" = []
        self._run_durations: "list[float]" = []
        self._run_jitters: "list[float]" = []
        self._run_cursor = 0
        self._run_generation = 0
        # Simulation watermark taken when the run was planned (see
        # _steps_done for what it decides at an exact time tie).
        self._run_mark = 0
        # Jitter draws refunded by a truncated run. The per-instance
        # stream is positional (value depends only on draw index), so a
        # draw planned for a dropped step is reused verbatim by whatever
        # step executes at that position instead.
        self._jitter_queue: "Deque[float]" = deque()
        # Incrementally maintained total context length of the active
        # set — the O(1) dispatch/telemetry signal (no per-step lists).
        self._active_context_tokens = 0
        # Fast steps materialized so far, and the end time of each from
        # the oldest active mark on: _step_times[i] ends fast step
        # _step_times_base + i.
        self._fast_steps = 0
        self._step_times: "list[float]" = []
        self._step_times_base = 0
        # Min-heap of (finish fast step, admission seq, state). Entries of
        # requests that left the batch or were re-admitted are skipped.
        self._finish_heap: "list[tuple[int, int, RequestState]]" = []
        self._admissions = 0
        # Instrumentation.
        self.steps_executed = 0
        self.busy_time = 0.0
        self.preemptions = 0
        self.tokens_generated = 0

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Active plus waiting requests — the dispatch load signal."""
        return len(self._active) + len(self._waiting)

    @property
    def active_batch_size(self) -> int:
        return len(self._active)

    @property
    def active_tokens(self) -> int:
        """Total context tokens of the active set, O(1) mid-run.

        During a macro run the per-step state is not materialized; the
        count of completed (but unmaterialized) steps times the batch
        size bridges the gap without touching per-request state.
        """
        extra = 0
        if self._run_cursor < len(self._run_boundaries):
            extra = (self._steps_done() - self._run_cursor) * len(self._active)
        return self._active_context_tokens + extra

    def kv_capacity_tokens(self) -> int:
        return self._kv.total_blocks * self._kv.block_size

    def kv_free_tokens(self) -> int:
        return self._kv.free_blocks * self._kv.block_size

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register this instance's gauges/counters (callback-backed).

        Gauges sample live batch/KV/counter state, which a macro-stepped
        run advances only in bulk — so instrumenting an instance routes
        all subsequent runs through the exact per-step path. State a run
        left lagging is brought up to date first.
        """
        self._sync_to_now()
        self._write_back_all()
        self._fast = False
        labels = {"phase": "decode", "instance": self.name}
        registry.gauge(
            "repro_queue_depth", "Requests waiting for a batch slot",
            labels=labels, fn=lambda: len(self._waiting),
        )
        registry.gauge(
            "repro_batch_size", "Active continuous-batching set size",
            labels=labels, fn=lambda: len(self._active),
        )
        registry.gauge(
            "repro_active_context_tokens", "Context tokens in the active set",
            labels=labels, fn=lambda: self.active_tokens,
        )
        registry.gauge(
            "repro_kv_blocks_used", "KV-cache blocks allocated",
            labels=labels, fn=lambda: self._kv.used_blocks,
        )
        registry.gauge(
            "repro_kv_blocks_free", "KV-cache blocks available",
            labels=labels, fn=lambda: self._kv.free_blocks,
        )
        registry.counter(
            "repro_batches_total", "Batches/steps executed",
            labels=labels, fn=lambda: self.steps_executed,
        )
        registry.counter(
            "repro_tokens_total", "Tokens processed by the phase",
            labels=labels, fn=lambda: self.tokens_generated,
        )
        registry.counter(
            "repro_busy_seconds_total", "Virtual seconds spent executing",
            labels=labels, fn=lambda: self.busy_time,
        )
        registry.counter(
            "repro_preemptions_total", "Recompute preemptions",
            labels=labels, fn=lambda: self.preemptions,
        )
        registry.gauge(
            "repro_utilization", "Busy fraction of elapsed virtual time",
            labels=labels,
            fn=lambda: self.busy_time / self._sim.now if self._sim.now > 0 else 0.0,
        )

    def can_reserve(self, state: RequestState, extra_blocks: int = 0) -> bool:
        """Whether admitting ``state`` now would find KV space.

        Used by the orchestration layer's *pull* policy: the KV transfer
        is initiated only when this returns True. ``extra_blocks``
        accounts for reservations already promised to in-flight transfers.
        """
        self._sync_to_now()
        need = self._reservation_tokens(state)
        need_blocks = -(-need // self._kv.block_size)
        return need_blocks + extra_blocks <= self._kv.free_blocks

    def reservation_blocks(self, state: RequestState) -> int:
        """Blocks a future admission of ``state`` will consume."""
        self._sync_to_now()
        return -(-self._reservation_tokens(state) // self._kv.block_size)

    def _reservation_tokens(self, state: RequestState) -> int:
        if self._reserve_full:
            return state.request.total_tokens
        return state.context_len

    # ------------------------------------------------------------------
    def submit(self, state: RequestState) -> None:
        """Accept a request whose KV cache has arrived.

        The caller (orchestration layer) is expected to have gated the
        transfer on :meth:`can_reserve`; if space ran out anyway the
        request waits unreserved and is admitted when memory frees.
        """
        state.phase = RequestPhase.WAITING_DECODE
        state.stamp("decode_enqueue", self._sim.now)
        self._trace.begin(
            state.request_id, SpanKind.DECODE_QUEUE, self._sim.now, self.name
        )
        self._waiting.append(state)
        self._truncate_run()
        self._kick()

    def _draw_jitter(self) -> float:
        if self._jitter_queue:
            return self._jitter_queue.popleft()
        return self._jitter()

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
            return bisect_left(self._run_boundaries, sim.now, self._run_cursor)
        return bisect_right(self._run_boundaries, sim.now, self._run_cursor)

    def _truncate_run(self) -> None:
        """Shorten an in-flight macro run to where a newcomer joins.

        A submission landing mid-run is admitted, in the per-step path,
        when the step in flight completes. Keep boundaries through the
        first step not yet done (:meth:`_steps_done`), refund the dropped
        steps' jitter draws, and re-aim the run-end event (the stale one
        is voided by the generation bump).
        """
        boundaries = self._run_boundaries
        if self._run_cursor >= len(boundaries):
            return
        keep = self._steps_done() + 1
        if keep >= len(boundaries):
            return
        self._jitter_queue.extendleft(reversed(self._run_jitters[keep:]))
        del boundaries[keep:]
        del self._run_durations[keep:]
        del self._run_jitters[keep:]
        self._run_generation += 1
        generation = self._run_generation
        last = boundaries[-1]
        assert last >= self._sim.now
        self._sim.schedule_at(last, lambda: self._finish_fast_run(generation))

    # ------------------------------------------------------------------
    def _admit(self) -> None:
        self._waiting = self._qpolicy.reorder(self._waiting, self._sim.now)
        while self._waiting and self._bpolicy.admit_decode(
            len(self._active), self.spec.max_batch_size
        ):
            head = self._waiting[0]
            need = self._reservation_tokens(head)
            if not self._kv.can_allocate(need):
                break
            self._kv.allocate(head.request_id, need)
            self._waiting.popleft()
            head.phase = RequestPhase.DECODING
            head.stamp("decode_start", self._sim.now)
            self._trace.end(head.request_id, SpanKind.DECODE_QUEUE, self._sim.now)
            self._active[head] = self._fast_steps
            self._active_context_tokens += head.context_len
            if self._fast:
                self._admissions += 1
                heapq.heappush(self._finish_heap, (
                    self._fast_steps + head.remaining_tokens,
                    self._admissions,
                    head,
                ))

    def _kick(self) -> None:
        if self._stepping or not self._alive:
            return
        self._stepping = True
        self._continue()

    def _continue(self) -> None:
        """Admit and start the next step or macro run (or go idle)."""
        self._admit()
        if not self._active:
            self._stepping = False
            return
        if self._fast:
            self._run_fast()
        else:
            self._run_step()

    def _microbatch_contexts(self) -> "list[int]":
        """Context lengths of one steady-state micro-batch."""
        pp = self.spec.config.pp
        size = -(-len(self._active) // pp)
        return [s.context_len for s in islice(self._active, size)]

    # ------------------------------------------------------------------
    # Reference per-step path
    # ------------------------------------------------------------------
    def _run_step(self) -> None:
        self._write_back_all()
        contexts = self._microbatch_contexts()
        times = decode_times(
            self.spec.model,
            self.spec.config,
            self._coeffs,
            contexts,
            tp_link=self.spec.tp_link,
            pp_link=self.spec.pp_link,
        )
        duration = times.request_latency * self._draw_jitter()
        assert duration >= 0.0  # latency model + jitter are nonnegative
        self.steps_executed += 1
        self.busy_time += duration
        batch = list(self._active)
        step_start = self._sim.now
        self._sim.schedule(duration, lambda: self._finish_step(batch, step_start))

    def _finish_step(
        self, batch: "list[RequestState]", step_start: float = 0.0
    ) -> None:
        if not self._alive:
            return  # the instance died mid-step; victims re-routed
        active = self._active
        finished: "list[RequestState]" = []
        step_tokens = 0
        for state in batch:
            if state not in active:
                continue  # preempted mid-step
            if not self._reserve_full:
                if not self._kv.can_append(state.request_id):
                    self._preempt_youngest()
                    if state not in active:
                        continue
                    if not self._kv.can_append(state.request_id):
                        continue  # skip this token; retried next step
                self._kv.append(state.request_id)
            state.record_token(self._sim.now)
            self.tokens_generated += 1
            self._active_context_tokens += 1
            step_tokens += 1
            if self._trace.enabled:
                self._trace.span(
                    state.request_id,
                    SpanKind.DECODE_STEP,
                    step_start,
                    self._sim.now,
                    self.name,
                    batch_size=len(batch),
                    token_index=state.generated - 1,
                )
            if state.is_finished:
                finished.append(state)
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "decode", step_start, self._sim.now,
                len(batch), step_tokens,
            )
        for state in finished:
            del active[state]
            self._active_context_tokens -= state.context_len
            self._kv.free(state.request_id)
            state.phase = RequestPhase.FINISHED
            self._on_done(state)
        if self._fast:
            # This step's tokens left the marks behind: re-key the heap.
            self._rebuild_finish_heap()
        self._continue()

    # ------------------------------------------------------------------
    # Fast-forward kernel (macro-stepped runs)
    # ------------------------------------------------------------------
    def _kv_safe_steps(self, limit: int) -> int:
        """Longest run with guaranteed KV growth (optimistic admission).

        Largest ``j <= limit`` such that growing every active request by
        ``j`` tokens fits the free block budget; through step ``j`` the
        per-step path performs the exact same appends (cumulative need is
        monotone and no blocks free mid-run), so it preempts nobody.
        """
        block_size = self._kv.block_size
        free = self._kv.free_blocks
        held = [self._kv.tokens_of(s.request_id) for s in self._active]

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

    def _run_fast(self) -> None:
        """Plan and schedule one macro run of decode steps.

        The run length is bounded only by what this instance does: (a)
        the shortest remaining request, read off the finish heap — so
        nobody finishes mid-run — and (b) KV-growth safety in optimistic
        mode — so nobody is preempted mid-run. Other events leave the run
        alone; a submission landing mid-run truncates it
        (:meth:`_truncate_run`). Planning costs O(steps + log batch); only
        pp > 1 micro-batch contexts and the optimistic KV bound scan the
        batch.
        """
        active = self._active
        heap = self._finish_heap
        while True:
            finish, _, state = heap[0]
            mark = active.get(state)
            if mark is not None and mark + state.remaining_tokens == finish:
                break
            heapq.heappop(heap)  # left the batch, or re-admitted since
        steps = self._fast_steps
        max_steps = finish - steps
        if not self._reserve_full:
            max_steps = self._kv_safe_steps(max_steps)
            if max_steps < 1:
                # The very next step preempts: run it through the exact
                # per-step path, which performs the real preemption.
                self._run_step()
                return
        pp = self.spec.config.pp
        mb_size = -(-len(active) // pp)
        if pp == 1:
            mb_context = self._active_context_tokens
        else:
            mb_context = 0
            for member, member_mark in islice(active.items(), mb_size):
                mb_context += member.context_len + steps - member_mark
        latency = self._timer.step_latency_fn(mb_size)
        boundaries: "list[float]" = []
        durations: "list[float]" = []
        jitters: "list[float]" = []
        t = self._sim.now
        if self._unit_jitter:
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
                noise = self._draw_jitter()
                duration = latency(mb_context) * noise
                assert duration >= 0.0  # latency model + jitter nonnegative
                t = t + duration
                boundaries.append(t)
                durations.append(duration)
                jitters.append(noise)
                mb_context += mb_size
        self._run_boundaries = boundaries
        self._run_durations = durations
        self._run_jitters = jitters
        self._run_cursor = 0
        self._run_mark = self._sim.mark()
        generation = self._run_generation
        assert t >= self._sim.now
        self._sim.schedule_at(t, lambda: self._finish_fast_run(generation))

    def _materialize(self, upto: int) -> None:
        """Advance run steps ``[cursor, upto)`` in bulk.

        Counters accumulate per step in boundary order (preserving the
        reference path's float-addition sequence); the step times join
        the history the batch's token fields are written back from, and
        KV growth (optimistic admission) is one bulk append per request.
        """
        cursor = self._run_cursor
        if upto <= cursor:
            return
        count = upto - cursor
        busy = self.busy_time
        for duration in self._run_durations[cursor:upto]:
            busy += duration
        self.busy_time = busy
        self.steps_executed += count
        self._step_times.extend(self._run_boundaries[cursor:upto])
        if not self._reserve_full:
            for state in self._active:
                self._kv.append(state.request_id, count)
        batch = len(self._active)
        self.tokens_generated += count * batch
        self._active_context_tokens += count * batch
        self._fast_steps += count
        self._run_cursor = upto

    def _sync_to_now(self) -> None:
        """Materialize every run step completed as of the firing event."""
        if self._run_cursor >= len(self._run_boundaries):
            return
        self._materialize(self._steps_done())

    def _finish_fast_run(self, generation: int) -> None:
        if not self._alive or generation != self._run_generation:
            return  # the instance failed mid-run; victims re-routed
        self._materialize(len(self._run_boundaries))
        self._run_boundaries = []
        self._run_durations = []
        self._run_jitters = []
        self._run_cursor = 0
        active = self._active
        heap = self._finish_heap
        steps = self._fast_steps
        # Equal finish steps pop in admission order, the per-step path's
        # batch order.
        while heap and heap[0][0] <= steps:
            finish, _, state = heapq.heappop(heap)
            mark = active.get(state)
            if mark is None or mark + state.remaining_tokens != finish:
                continue  # left the batch, or re-admitted since
            del active[state]
            self._write_back(state, mark)
            self._active_context_tokens -= state.context_len
            self._kv.free(state.request_id)
            state.phase = RequestPhase.FINISHED
            self._on_done(state)
        self._trim_step_times()
        self._continue()

    def _write_back(self, state: RequestState, mark: int) -> None:
        """Record the fast steps ``state`` has taken since step ``mark``."""
        steps = self._fast_steps
        if mark < steps:
            base = self._step_times_base
            state.record_tokens(self._step_times[mark - base:steps - base])

    def _write_back_all(self) -> None:
        """Bring every active request's token fields up to date."""
        active = self._active
        steps = self._fast_steps
        if not active or next(iter(active.values())) == steps:
            return  # the oldest mark is current, so every mark is
        for state, mark in active.items():
            self._write_back(state, mark)
            active[state] = steps

    def _trim_step_times(self) -> None:
        """Drop step times that no active request still needs.

        Trimming once the dead prefix outgrows the rest keeps the cost
        amortized O(1) per step, and the history at most twice the
        steps since the oldest active mark.
        """
        oldest = next(iter(self._active.values()), self._fast_steps)
        dead = oldest - self._step_times_base
        if 2 * dead > len(self._step_times):
            del self._step_times[:dead]
            self._step_times_base = oldest

    def _rebuild_finish_heap(self) -> None:
        """Re-key the finish heap from the active set, in admission order."""
        heap: "list[tuple[int, int, RequestState]]" = []
        for state, mark in self._active.items():
            self._admissions += 1
            heap.append((mark + state.remaining_tokens, self._admissions, state))
        heapq.heapify(heap)
        self._finish_heap = heap

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> "list[RequestState]":
        """Kill the instance; return requests needing recovery.

        Active and waiting requests lose their KV caches: each must
        re-run prefill over its full current context (prompt plus tokens
        generated so far) before decoding can resume — the fault
        *propagation* the paper warns about (§4.3): one decode failure
        creates a prefill load spike.
        """
        if self._run_cursor < len(self._run_boundaries):
            # Materialize completed steps, then charge the in-flight one:
            # the per-step path charges counters at step start.
            self._sync_to_now()
            if self._run_cursor < len(self._run_boundaries):
                self.steps_executed += 1
                self.busy_time += self._run_durations[self._run_cursor]
        self._write_back_all()
        self._run_generation += 1
        self._run_boundaries = []
        self._run_durations = []
        self._run_jitters = []
        self._run_cursor = 0
        self._alive = False
        victims = list(self._active) + list(self._waiting)
        for state in victims:
            self._kv.free(state.request_id)
            state.recompute_len = state.context_len
        self._active.clear()
        self._finish_heap.clear()
        self._step_times.clear()
        self._step_times_base = self._fast_steps
        self._waiting.clear()
        self._active_context_tokens = 0
        self._stepping = False
        self._bpolicy.reset()
        # The pool dies with the instance: release any remaining
        # allocations so quiesce-time leak audits stay clean.
        for request_id in self._kv.holders():
            self._kv.free(request_id)
        return victims

    def _preempt_youngest(self) -> None:
        """vLLM-style recompute preemption of the most recent admission."""
        if not self._active:
            return
        victim, mark = self._active.popitem()
        self._write_back(victim, mark)
        self._active_context_tokens -= victim.context_len
        self._kv.free(victim.request_id)
        victim.phase = RequestPhase.WAITING_DECODE
        self._trace.instant(
            victim.request_id, SpanKind.PREEMPTED, self._sim.now, self.name
        )
        self._trace.begin(
            victim.request_id, SpanKind.DECODE_QUEUE, self._sim.now, self.name
        )
        self._waiting.appendleft(victim)
        self.preemptions += 1
