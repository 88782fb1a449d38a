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

**Fast-forward kernel (DESIGN §4h).** The active set lives in a
:class:`~repro.simulator.kernel.DecodeKernel`. When per-step
observability is off (tracer and profiler are the NULL objects, no
metrics registry attached) and ``fast_kernel`` is enabled, the instance
*macro-steps*: one heap event per run of steps whose batch membership
the instance itself cannot change, instead of one per step. A
submission landing mid-run truncates the run at the step boundary where
the per-step path would admit the newcomer, and mid-run reads (the pull
policy's :meth:`can_reserve`) first materialize every step the per-step
path would have completed. Results are bit-identical either way. A
batched request's ``generated`` and ``token_times`` lag while it sits in
a run; they are written back when it leaves the batch, when the instance
fails, and before :meth:`instrument` or any per-step step reads them.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Deque

from .events import Simulation
from .instance import InstanceSpec
from .kernel import DecodeKernel
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
        self._kv: KVBlockManager = spec.make_kv_manager()
        self._coeffs = spec.latency_coeffs
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._prof = profiler if profiler is not None else NULL_PROFILER
        self._alive = True
        self._stepping = False
        self._timer = DecodeStepTimer(
            spec.model, spec.config, self._coeffs, spec.tp_link, spec.pp_link
        )
        # The active set, its counters, and macro runs. Runs are allowed
        # only when nothing observes individual steps (tracing/profiling
        # emit per-step artifacts; instrument() samples live state
        # through gauges).
        self._kernel = DecodeKernel(
            sim,
            self._kv,
            step_latency=self._timer.step_latency_fn,
            microbatches=spec.config.pp,
            kv_grows=not reserve_full_context,
            jitter=spec.make_jitter(name) if spec.jitter_sigma else None,
            on_run_end=self._finish_fast_run,
            enabled=(
                bool(fast_kernel)
                and not self._trace.enabled
                and not self._prof.enabled
            ),
        )
        self.preemptions = 0

    # ------------------------------------------------------------------
    @property
    def steps_executed(self) -> int:
        """Decode steps executed (or started, if the instance failed)."""
        return self._kernel.steps_executed

    @property
    def busy_time(self) -> float:
        """Virtual seconds spent executing decode steps."""
        return self._kernel.busy_time

    @property
    def tokens_generated(self) -> int:
        """Output tokens generated by this instance."""
        return self._kernel.tokens_generated

    @property
    def load(self) -> int:
        """Active plus waiting requests — the dispatch load signal."""
        return len(self._kernel.active) + len(self._waiting)

    @property
    def active_batch_size(self) -> int:
        return len(self._kernel.active)

    @property
    def active_tokens(self) -> int:
        """Total context tokens of the active set, O(1) mid-run."""
        return self._kernel.live_context_tokens()

    def kv_capacity_tokens(self) -> int:
        return self._kv.total_blocks * self._kv.block_size

    def kv_free_tokens(self) -> int:
        return self._kv.free_blocks * self._kv.block_size

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register this instance's gauges/counters (callback-backed).

        Gauges sample live batch/KV/counter state, which a macro-stepped
        run advances only in bulk — so instrumenting an instance routes
        every step after the one in flight through the exact per-step
        path. State a run left lagging is brought up to date first.
        """
        self._kernel.fallback()
        labels = {"phase": "decode", "instance": self.name}
        registry.gauge(
            "repro_queue_depth", "Requests waiting for a batch slot",
            labels=labels, fn=lambda: len(self._waiting),
        )
        registry.gauge(
            "repro_batch_size", "Active continuous-batching set size",
            labels=labels, fn=lambda: len(self._kernel.active),
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
        self._kernel.sync_to_now()
        need = self._reservation_tokens(state)
        need_blocks = -(-need // self._kv.block_size)
        return need_blocks + extra_blocks <= self._kv.free_blocks

    def reservation_blocks(self, state: RequestState) -> int:
        """Blocks a future admission of ``state`` will consume."""
        self._kernel.sync_to_now()
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
        request waits unreserved and is admitted when memory frees. A
        macro run in flight ends at the boundary where the per-step path
        would admit the newcomer.
        """
        state.phase = RequestPhase.WAITING_DECODE
        state.stamp("decode_enqueue", self._sim.now)
        self._trace.begin(
            state.request_id, SpanKind.DECODE_QUEUE, self._sim.now, self.name
        )
        self._waiting.append(state)
        self._kernel.truncate()
        self._kick()

    # ------------------------------------------------------------------
    def _admit(self) -> None:
        self._waiting = self._qpolicy.reorder(self._waiting, self._sim.now)
        kernel = self._kernel
        while self._waiting and self._bpolicy.admit_decode(
            len(kernel.active), self.spec.max_batch_size
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
            kernel.join(head)

    def _kick(self) -> None:
        if self._stepping or not self._alive:
            return
        self._stepping = True
        self._continue()

    def _continue(self) -> None:
        """Admit and start the next step or macro run (or go idle)."""
        self._admit()
        kernel = self._kernel
        if not kernel.active:
            self._stepping = False
            return
        if kernel.enabled:
            self._run_fast()
        else:
            self._run_step()

    def _microbatch_contexts(self) -> "list[int]":
        """Context lengths of one steady-state micro-batch."""
        active = self._kernel.active
        size = -(-len(active) // self.spec.config.pp)
        return [s.context_len for s in islice(active, size)]

    def _finish(self, state: RequestState) -> None:
        """Release a request that left the batch with its last token."""
        self._kv.free(state.request_id)
        state.phase = RequestPhase.FINISHED
        self._on_done(state)

    # ------------------------------------------------------------------
    # Reference per-step path
    # ------------------------------------------------------------------
    def _run_step(self) -> None:
        kernel = self._kernel
        kernel.write_back_all()
        contexts = self._microbatch_contexts()
        times = decode_times(
            self.spec.model,
            self.spec.config,
            self._coeffs,
            contexts,
            tp_link=self.spec.tp_link,
            pp_link=self.spec.pp_link,
        )
        duration = times.request_latency * kernel.draw_jitter()
        assert duration >= 0.0  # latency model + jitter are nonnegative
        kernel.steps_executed += 1
        kernel.busy_time += duration
        batch = list(kernel.active)
        step_start = self._sim.now
        self._sim.schedule(duration, lambda: self._finish_step(batch, step_start))

    def _finish_step(
        self, batch: "list[RequestState]", step_start: float = 0.0
    ) -> None:
        if not self._alive:
            return  # the instance died mid-step; victims re-routed
        kernel = self._kernel
        active = kernel.active
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
        kernel.tokens_generated += step_tokens
        kernel.context_tokens += step_tokens
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "decode", step_start, self._sim.now,
                len(batch), step_tokens,
            )
        for state in finished:
            kernel.leave(state)
            self._finish(state)
        kernel.rekey()  # this step's tokens left the marks behind
        self._continue()

    # ------------------------------------------------------------------
    # Fast-forward kernel (macro-stepped runs)
    # ------------------------------------------------------------------
    def _run_fast(self) -> None:
        """Start one macro run, or a per-step step if the next preempts."""
        if not self._kernel.plan():
            self._run_step()

    def _finish_fast_run(self, generation: int) -> None:
        kernel = self._kernel
        if not self._alive or not kernel.end_run(generation):
            return  # the instance failed mid-run, or the run was cut
        state = kernel.pop_finished()
        while state is not None:
            self._finish(state)
            state = kernel.pop_finished()
        self._continue()

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
        kernel = self._kernel
        kernel.abort()
        self._alive = False
        victims = list(kernel.active) + list(self._waiting)
        for state in victims:
            self._kv.free(state.request_id)
            state.recompute_len = state.context_len
        kernel.clear()
        self._waiting.clear()
        self._stepping = False
        self._bpolicy.reset()
        # The pool dies with the instance: release any remaining
        # allocations so quiesce-time leak audits stay clean.
        for request_id in self._kv.holders():
            self._kv.free(request_id)
        return victims

    def _preempt_youngest(self) -> None:
        """vLLM-style recompute preemption of the most recent admission."""
        active = self._kernel.active
        if not active:
            return
        victim = next(reversed(active))
        self._kernel.leave(victim)
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
