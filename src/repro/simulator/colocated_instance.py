"""Colocated serving instance: prefill and decode share the same GPUs.

This is the baseline DistServe compares against (§2.2, §6.1). Four
iteration-level scheduling policies are modeled:

* ``"prefill_priority"`` — vLLM semantics: an iteration is either a
  prefill batch (new prompts, prioritized) or one decoding step of all
  running requests. Decoding stalls whenever prompts arrive — the
  prefill-decoding interference of Figure 2.
* ``"decode_priority"`` — the mirror image: decoding steps run while any
  request is active; prompts are admitted only when decoding drains.
  §2.3's point — "prioritizing tasks in either phase adversely affects
  the latency of the other, rendering priority scheduling ineffective" —
  falls out of comparing these two.
* ``"combined"`` — Orca-style continuous batching: waiting prompts and
  running decodes execute in one combined iteration.
* ``"chunked"`` — SARATHI-style chunked prefill: prompts are split into
  fixed-size chunks piggybacked onto decode iterations, trading TTFT
  for TPOT (§2.2).

KV management is vLLM-style optimistic admission with recompute
preemption: a request that cannot grow its KV is pushed back to the
waiting queue, its blocks freed, and its full context re-prefilled on
re-admission.

**Fast-forward kernel (DESIGN §4h).** The running set lives in the same
:class:`~repro.simulator.kernel.DecodeKernel` that drives
:class:`~repro.simulator.decode_instance.DecodeInstance`. Under the two
priority policies, with ``fast_kernel`` on, consecutive pure-decode
iterations run as one macro event, ending at the shortest remaining
request or at the KV-growth-safe bound (admission is always optimistic
here). Under ``prefill_priority`` a submission ends the run at the
boundary where the per-step path would start the newcomer's prefill;
under ``decode_priority`` nothing outside the instance ends it. While requests wait, ``prefill_priority`` re-runs
admission at every boundary, so a run may start then only under FCFS:
its blocked head cannot become admissible mid-run, because the running
set is fixed and KV only grows. Time-dependent queue orders (``sjf``,
``edf``) step per iteration while anything waits, and ``combined`` and
``chunked`` always step per iteration (their mixed-batch latency has no
closed-form run). Prefill iterations use the memoized
:class:`~repro.latency.memo.PrefillBatchTimer`. Results, spans, exec
events and sampled metrics are bit-identical to the per-step reference
path: counter and KV reads bring a run up to date first.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from .events import Simulation
from .instance import InstanceSpec
from .kernel import DecodeKernel
from .kvcache import KVBlockManager
from .metrics import MetricsRegistry
from .profiler import NULL_PROFILER, Profiler
from .request import RequestPhase, RequestState
from .tracing import NULL_TRACER, SpanKind, Tracer
from ..latency.memo import DecodeStepTimer, PrefillBatchTimer
from ..latency.mixed import mixed_batch_latency
from ..latency.parallel import decode_times, prefill_times
from ..scheduling.config import DEFAULT_SCHEDULING, SchedulingConfig
from ..scheduling.queue import make_queue_policy

__all__ = ["ColocatedInstance", "POLICIES"]

POLICIES = ("prefill_priority", "decode_priority", "combined", "chunked")

#: Policies whose pure-decode iterations may run as macro runs.
_RUN_POLICIES = ("prefill_priority", "decode_priority")


class ColocatedInstance:
    """Simulated colocated model replica (the vLLM baseline).

    Args:
        sim: Shared simulation loop.
        spec: Instance resources and parallelism.
        on_request_done: Fired when a request finishes all output tokens.
        policy: One of :data:`POLICIES`.
        max_prefill_tokens: Token budget of one prefill iteration.
        chunk_size: Prompt-chunk budget for the ``"chunked"`` policy.
        name: Identifier for reporting.
        tracer: Optional lifecycle tracer receiving queue/exec spans and
            one ``decode`` span per stay in the running set.
        profiler: Optional critical-path profiler receiving one exec
            event per iteration, tagged by iteration kind.
        fast_kernel: Evaluate iteration latency through the memoized
            timers and, under the two priority policies, run consecutive
            decode iterations as macro runs. Results and observer output
            are bit-identical either way; disabling forces the
            one-event-per-iteration reference path.
        scheduling: Policy configuration (:mod:`repro.scheduling`); the
            queue policy orders the waiting deque before each admission
            pass (FCFS default is a no-op). Batch shaping stays with the
            iteration ``policy`` and ``max_prefill_tokens`` above — the
            vLLM baseline's own axis — so a non-default ``batch_policy``
            or ``batch_token_limit`` raises ``ValueError``.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        on_request_done: Callable[[RequestState], None],
        policy: str = "prefill_priority",
        max_prefill_tokens: int = 2048,
        chunk_size: int = 512,
        name: str = "colocated-0",
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        fast_kernel: bool = True,
        scheduling: SchedulingConfig = DEFAULT_SCHEDULING,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if max_prefill_tokens <= 0 or chunk_size <= 0:
            raise ValueError("max_prefill_tokens and chunk_size must be positive")
        if scheduling.batch_policy != DEFAULT_SCHEDULING.batch_policy:
            raise ValueError(
                f"batch_policy {scheduling.batch_policy!r} does not apply to "
                "colocated instances: their batches follow the iteration policy"
            )
        if scheduling.batch_token_limit is not None:
            raise ValueError(
                "batch_token_limit does not apply to colocated instances: "
                "their prefill budget is max_prefill_tokens"
            )
        self._sim = sim
        self.spec = spec
        self.name = name
        self.policy = policy
        self._on_done = on_request_done
        self._max_prefill_tokens = max_prefill_tokens
        self._chunk_size = chunk_size
        self._qpolicy = make_queue_policy(scheduling.queue_policy, "prefill_enqueue")
        self._alive = True
        self._waiting: "Deque[RequestState]" = deque()
        # Prefill states inside the currently scheduled iteration: popped
        # from _waiting but not yet running, so fail() must sweep them
        # explicitly or they would be lost with the replica.
        self._inflight_prefills: "list[RequestState]" = []
        self._kv: KVBlockManager = spec.make_kv_manager()
        self._coeffs = spec.latency_coeffs
        # Chunked-prefill progress: request_id -> prompt tokens prefilled.
        self._chunk_progress: "dict[int, int]" = {}
        # The waiting request whose prompt is partly prefilled, if any.
        self._chunking: "RequestState | None" = None
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._prof = profiler if profiler is not None else NULL_PROFILER
        self._iterating = False
        self._memo = bool(fast_kernel)
        self._decode_timer = DecodeStepTimer(
            spec.model, spec.config, self._coeffs, spec.tp_link, spec.pp_link
        )
        self._prefill_timer = PrefillBatchTimer(
            spec.model, spec.config, self._coeffs, spec.tp_link, spec.pp_link
        )
        # The running set, decode counters, and macro runs. Colocated
        # decoding steps the whole running set as one batch.
        self._kernel = DecodeKernel(
            sim,
            self._kv,
            timer=self._decode_timer,
            microbatches=1,
            kv_grows=True,
            jitter=spec.make_jitter(name) if spec.jitter_sigma else None,
            on_run_end=self._finish_fast_run,
            enabled=bool(fast_kernel) and policy in _RUN_POLICIES,
            name=name,
            tracer=self._trace,
            profiler=self._prof,
        )
        # Under prefill_priority a run may start while requests wait
        # only if the queue order cannot change with time.
        self._fcfs = self._qpolicy.name == "fcfs"
        # Instrumentation.
        self.prefill_iterations = 0
        self.mixed_iterations = 0
        self.preemptions = 0
        self.tokens_prefilled = 0

    # ------------------------------------------------------------------
    @property
    def decode_iterations(self) -> int:
        """Pure-decode iterations started, the one in flight included."""
        return self._kernel.counters()[0]

    @property
    def busy_time(self) -> float:
        """Virtual seconds of iterations of every kind (charged at start)."""
        return self._kernel.counters()[1]

    @property
    def tokens_generated(self) -> int:
        """Output tokens generated by decoding steps on this replica."""
        self._kernel.sync_to_now()
        return self._kernel.tokens_generated

    @property
    def load(self) -> int:
        return len(self._waiting) + len(self._kernel.active)

    def kv_capacity_tokens(self) -> int:
        """Token slots of the replica's KV pool when empty."""
        return self._kv.total_blocks * self._kv.block_size

    def _live_kv(self) -> KVBlockManager:
        """The KV pool with a macro run's growth brought up to date."""
        self._kernel.sync_to_now()
        return self._kv

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register this replica's gauges/counters (callback-backed).

        Counter and KV reads bring a macro run up to date first, so every
        sample equals the per-step path's at the same event.
        """
        labels = {"phase": "colocated", "instance": self.name}
        registry.gauge(
            "repro_queue_depth", "Requests waiting for a batch slot",
            labels=labels, fn=lambda: len(self._waiting),
        )
        registry.gauge(
            "repro_batch_size", "Active continuous-batching set size",
            labels=labels, fn=lambda: len(self._kernel.active),
        )
        registry.gauge(
            "repro_chunked_prefill_tokens",
            "Prompt tokens mid-chunked-prefill (chunked policy occupancy)",
            labels=labels, fn=lambda: sum(self._chunk_progress.values()),
        )
        registry.gauge(
            "repro_kv_blocks_used", "KV-cache blocks allocated",
            labels=labels, fn=lambda: self._live_kv().used_blocks,
        )
        registry.gauge(
            "repro_kv_blocks_free", "KV-cache blocks available",
            labels=labels, fn=lambda: self._live_kv().free_blocks,
        )
        for kind, fn in (
            ("prefill", lambda: self.prefill_iterations),
            ("decode", lambda: self.decode_iterations),
            ("mixed", lambda: self.mixed_iterations),
        ):
            registry.counter(
                "repro_iterations_total", "Iterations executed, by kind",
                labels={**labels, "kind": kind}, fn=fn,
            )
        registry.counter(
            "repro_tokens_total", "Tokens processed by the phase",
            labels=labels, fn=lambda: self.tokens_prefilled + self.tokens_generated,
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

    def submit(self, state: RequestState) -> None:
        """Accept an arriving request.

        Under ``prefill_priority`` a macro run in flight ends at the
        boundary where the per-step path would start its prefill.
        """
        state.phase = RequestPhase.WAITING_PREFILL
        state.stamp("prefill_enqueue", self._sim.now)
        self._trace.begin(
            state.request_id, SpanKind.PREFILL_QUEUE, self._sim.now, self.name
        )
        self._waiting.append(state)
        if self.policy == "prefill_priority":
            self._kernel.truncate()
        self._kick()

    # ------------------------------------------------------------------
    def _try_admit_prefill(
        self, token_budget: int
    ) -> "tuple[list[RequestState], int, int]":
        """Pop waiting requests into a prefill batch within the budget.

        Returns the batch with its total and squared-sum prompt lengths.
        """
        self._waiting = self._qpolicy.reorder(self._waiting, self._sim.now, None)
        running = len(self._kernel.active)
        batch: "list[RequestState]" = []
        total = 0
        squared = 0
        while self._waiting and running + len(batch) < self.spec.max_batch_size:
            head = self._waiting[0]
            need = head.prefill_len
            if batch and total + need > token_budget:
                break
            if not self._kv.can_allocate(need):
                break
            self._kv.allocate(head.request_id, need)
            batch.append(self._waiting.popleft())
            total += need
            squared += need * need
        return batch, total, squared

    def _kick(self) -> None:
        if self._iterating or not self._alive:
            return
        if not self._waiting and not self._kernel.active:
            return
        self._iterating = True
        self._run_iteration()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> "list[RequestState]":
        """Kill the replica; return requests needing re-routing.

        Every request on the replica is a victim: waiting ones simply
        re-queue elsewhere, while any request whose prefill started or
        that was decoding lost its KV cache and must re-run prefill over
        its full current context. A macro run in flight is cut first, so
        token fields and counters match the per-step path. The dead
        pool's allocations are all released so quiesce-time leak audits
        stay clean.
        """
        kernel = self._kernel
        kernel.abort()
        self._alive = False
        self._iterating = False
        victims: "list[RequestState]" = []
        seen: "set[int]" = set()
        for state in (
            list(self._waiting)
            + self._inflight_prefills
            + list(kernel.active)
        ):
            if state.request_id in seen:
                continue
            seen.add(state.request_id)
            victims.append(state)
            if (
                state.generated > 0
                or self._chunk_progress.get(state.request_id, 0) > 0
            ):
                state.recompute_len = state.context_len
        self._waiting.clear()
        kernel.clear()
        self._inflight_prefills = []
        self._chunk_progress.clear()
        self._chunking = None
        for request_id in self._kv.holders():
            self._kv.free(request_id)
        return victims

    def _run_iteration(self) -> None:
        if self.policy == "prefill_priority":
            self._iteration_prefill_priority()
        elif self.policy == "decode_priority":
            self._iteration_decode_priority()
        elif self.policy == "combined":
            self._iteration_mixed(token_budget=self._max_prefill_tokens, combined=True)
        else:
            self._iteration_mixed(token_budget=self._chunk_size, combined=False)

    # ------------------------------------------------------------------
    def _iteration_prefill_priority(self) -> None:
        if self._start_prefill():
            return
        if self._kernel.active:
            self._start_decode()
            return
        self._iterating = False

    def _iteration_decode_priority(self) -> None:
        """Decode first; prompts wait until the running set drains."""
        if self._kernel.active:
            self._start_decode()
            return
        if not self._start_prefill():
            self._iterating = False

    def _start_prefill(self) -> bool:
        """Start a prefill iteration; False when no waiting prompt fits.

        With nobody waiting there is no admission pass: every queue
        policy returns an empty queue unchanged, so it would admit nothing.
        """
        if not self._waiting:
            return False
        batch, batch_tokens, squared = self._try_admit_prefill(
            self._max_prefill_tokens
        )
        if not batch:
            return False
        if self._memo:
            base = self._prefill_timer.times(batch_tokens, float(squared))[0]
        else:
            base = prefill_times(
                self.spec.model,
                self.spec.config,
                self._coeffs,
                [s.prefill_len for s in batch],
                tp_link=self.spec.tp_link,
                pp_link=self.spec.pp_link,
            ).request_latency
        kernel = self._kernel
        duration = base * kernel.draw_jitter()
        assert duration >= 0.0  # latency model + jitter are nonnegative
        self.prefill_iterations += 1
        kernel.busy_time += duration
        self.tokens_prefilled += batch_tokens
        for state in batch:
            state.phase = RequestPhase.PREFILLING
            self._trace.end(state.request_id, SpanKind.PREFILL_QUEUE, self._sim.now)
            self._trace.begin(
                state.request_id,
                SpanKind.PREFILL_EXEC,
                self._sim.now,
                self.name,
                batch_size=len(batch),
            )
        step_start = self._sim.now
        self._inflight_prefills = list(batch)
        self._sim.schedule(
            duration, lambda: self._finish_prefill(batch, step_start, batch_tokens)
        )
        return True

    def _start_decode(self) -> None:
        """Start one decoding step of the running set, or a macro run."""
        kernel = self._kernel
        if kernel.enabled and self._may_run() and kernel.plan():
            return
        kernel.write_back_all()
        running = kernel.active
        if self._memo:
            base = self._decode_timer.request_latency(
                len(running), kernel.context_tokens
            )
        else:
            base = decode_times(
                self.spec.model,
                self.spec.config,
                self._coeffs,
                [s.context_len for s in running],
                tp_link=self.spec.tp_link,
                pp_link=self.spec.pp_link,
            ).request_latency
        duration = base * kernel.draw_jitter()
        assert duration >= 0.0  # latency model + jitter are nonnegative
        kernel.steps_executed += 1
        kernel.busy_time += duration
        batch = list(running)
        step_start = self._sim.now
        self._sim.schedule(duration, lambda: self._finish_decode(batch, step_start))

    def _may_run(self) -> bool:
        """Whether no admission can succeed before the next run ends.

        ``prefill_priority`` retries admission at every boundary. With
        nobody waiting only a submission can change that, and submit()
        truncates the run. Under FCFS a head that is blocked now stays
        blocked: the running set is fixed mid-run and KV only grows.
        ``decode_priority`` admits nothing while anything decodes.
        """
        return self.policy == "decode_priority" or not self._waiting or self._fcfs

    def _finish_prefill(
        self,
        batch: "list[RequestState]",
        step_start: float = 0.0,
        batch_tokens: int = 0,
    ) -> None:
        if not self._alive:
            return  # the replica died mid-iteration; victims re-routed
        self._inflight_prefills = []
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "prefill", step_start, self._sim.now,
                len(batch), batch_tokens,
            )
        for state in batch:
            self._prefilled(state, batch_size=len(batch))
        self._run_iteration()

    def _prefilled(self, state: RequestState, batch_size: int) -> None:
        """Complete ``state``'s prefill and move it into the running set.

        A request with no token yet gets token 0 and its zero-width
        ``decode`` span (of ``batch_size``); recomputing a context that
        holds generated tokens (after a preemption or a failover) stamps
        nothing.
        """
        state.recompute_len = None
        self._trace.end(state.request_id, SpanKind.PREFILL_EXEC, self._sim.now)
        if state.generated == 0:
            state.record_token(self._sim.now)
            self._trace.span(
                state.request_id,
                SpanKind.DECODE,
                self._sim.now,
                self._sim.now,
                self.name,
                batch_size=batch_size,
                token_index=0,
            )
        state.phase = RequestPhase.DECODING
        if state.is_finished:
            self._finish(state)
        else:
            self._kernel.join(state)

    def _finish(self, state: RequestState) -> None:
        """Release a request whose last token was generated."""
        self._kv.free(state.request_id)
        state.phase = RequestPhase.FINISHED
        self._on_done(state)

    def _finish_decode(
        self, batch: "list[RequestState]", step_start: float = 0.0
    ) -> None:
        if not self._alive:
            return  # the replica died mid-iteration; victims re-routed
        step_tokens = self._advance_decodes(batch)
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "decode", step_start, self._sim.now,
                len(batch), step_tokens,
            )
        self._kernel.rekey()  # this step's tokens left the marks behind
        self._run_iteration()

    def _finish_fast_run(self, generation: int) -> None:
        kernel = self._kernel
        if not self._alive or not kernel.end_run(generation):
            return  # the replica died mid-run, or the run was cut
        state = kernel.pop_finished()
        while state is not None:
            self._finish(state)
            state = kernel.pop_finished()
        self._run_iteration()

    def _advance_decodes(self, batch: "list[RequestState]") -> int:
        """Per-step decode of ``batch``: one token each, KV grown first."""
        kernel = self._kernel
        running = kernel.active
        kv = self._kv
        finished: "list[RequestState]" = []
        step_tokens = 0
        for state in batch:
            if state not in running:
                continue  # preempted during this iteration
            if not kv.can_append(state.request_id):
                self._preempt_youngest(exclude=state)
                if not kv.can_append(state.request_id):
                    continue  # still stuck; token retried next iteration
            kv.append(state.request_id)
            state.record_token(self._sim.now)
            step_tokens += 1
            if state.is_finished:
                finished.append(state)
        kernel.tokens_generated += step_tokens
        kernel.context_tokens += step_tokens
        for state in finished:
            kernel.leave(state)
            self._finish(state)
        return step_tokens

    def _preempt_youngest(self, exclude: RequestState) -> None:
        """Recompute-preempt the most recently admitted running request.

        ``exclude`` (the request asking for a block) and requests that
        produced their last token earlier in this iteration are never
        the victim: vLLM frees finished sequences before it picks one.
        """
        victim: "RequestState | None" = None
        for state in reversed(self._kernel.active):
            if state is not exclude and not state.is_finished:
                victim = state
                break
        if victim is None:
            return
        self._kernel.leave(victim)
        self._kv.free(victim.request_id)
        victim.recompute_len = victim.context_len
        victim.phase = RequestPhase.WAITING_PREFILL
        self._trace.instant(
            victim.request_id, SpanKind.PREEMPTED, self._sim.now, self.name
        )
        self._trace.begin(
            victim.request_id, SpanKind.PREFILL_QUEUE, self._sim.now, self.name
        )
        self._waiting.appendleft(victim)
        self.preemptions += 1

    # ------------------------------------------------------------------
    def _iteration_mixed(self, token_budget: int, combined: bool) -> None:
        """One Orca/SARATHI iteration: decode batch plus prompt (chunks).

        The queue policy keeps a partly prefilled prompt at the head, in
        front of a preemption victim pushed there too.
        """
        self._waiting = self._qpolicy.reorder(
            self._waiting, self._sim.now, self._chunking
        )
        kernel = self._kernel
        running = kernel.active
        contexts = [s.context_len for s in running]
        chunk_lens: "list[int]" = []
        chunk_owners: "list[RequestState]" = []
        spent = 0
        while self._waiting and spent < token_budget:
            head = self._waiting[0]
            need = head.prefill_len
            done = self._chunk_progress.get(head.request_id, 0)
            if done == 0:
                if len(running) + len(chunk_owners) >= self.spec.max_batch_size:
                    break
                if not self._kv.can_allocate(need):
                    break
                self._kv.allocate(head.request_id, need)
                head.phase = RequestPhase.PREFILLING
                self._trace.end(
                    head.request_id, SpanKind.PREFILL_QUEUE, self._sim.now
                )
                self._trace.begin(
                    head.request_id, SpanKind.PREFILL_EXEC, self._sim.now, self.name
                )
            remaining = need - done
            take = remaining if combined else min(remaining, token_budget - spent)
            if take <= 0:
                break
            chunk_lens.append(take)
            chunk_owners.append(head)
            self._chunk_progress[head.request_id] = done + take
            spent += take
            if done + take >= need:
                self._waiting.popleft()
                self._chunking = None
            else:
                self._chunking = head
                break  # a partially prefilled prompt keeps its queue head
        if not chunk_lens and not contexts:
            self._iterating = False
            return
        duration = mixed_batch_latency(
            self.spec.model,
            self._coeffs,
            chunk_lens,
            contexts,
            tp=self.spec.config.tp,
        ) * kernel.draw_jitter()
        assert duration >= 0.0  # latency model + jitter are nonnegative
        self.mixed_iterations += 1
        kernel.busy_time += duration
        self.tokens_prefilled += spent
        decode_snapshot = list(running)
        completed = [
            s
            for s in chunk_owners
            if self._chunk_progress.get(s.request_id, 0) >= s.prefill_len
        ]
        step_start = self._sim.now
        mixed_batch_size = len(decode_snapshot) + len(chunk_lens)
        self._inflight_prefills = list(chunk_owners)
        self._sim.schedule(
            duration,
            lambda: self._finish_mixed(
                decode_snapshot, completed, step_start, spent, mixed_batch_size
            ),
        )

    def _finish_mixed(
        self,
        decode_batch: "list[RequestState]",
        prefilled: "list[RequestState]",
        step_start: float = 0.0,
        prefill_tokens: int = 0,
        batch_size: int = 0,
    ) -> None:
        if not self._alive:
            return  # the replica died mid-iteration; victims re-routed
        self._inflight_prefills = []
        for state in prefilled:
            self._chunk_progress.pop(state.request_id, None)
            self._prefilled(state, batch_size=0)
        step_tokens = self._advance_decodes(decode_batch)
        if self._prof.enabled:
            self._prof.record_exec(
                self.name, "mixed", step_start, self._sim.now,
                batch_size, prefill_tokens + step_tokens,
            )
        self._run_iteration()
