"""DistServe's disaggregated serving system (§4.3 runtime architecture).

Arrivals flow through a centralized controller: dispatch to the prefill
instance with the shortest queue, prefill, KV-cache migration, dispatch
to the least-loaded decode instance, decoding. KV transfer uses the
*pull* policy by default — decode instances fetch caches only when they
have reserved memory, using the prefill instances' GPU memory as the
queuing buffer, so bursts cannot overload decode memory. The *push*
policy (transfers fired immediately at prefill completion) is kept for
the burstiness ablation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

import numpy as np

from .base import ServingSystem
from .dispatch import Dispatcher
from ..scheduling.config import SchedulingConfig
from ..hardware.network import NVLINK, NetworkLink
from ..latency.comm import kv_cache_bytes
from ..simulator.decode_instance import DecodeInstance
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec
from ..simulator.metrics import MetricsRegistry
from ..simulator.prefill_instance import PrefillInstance
from ..simulator.profiler import Profiler
from ..simulator.request import RequestState
from ..simulator.tracing import SpanKind, Tracer
from ..simulator.transfer import TransferEngine
from ..workload.trace import Request

__all__ = ["DisaggregatedSystem"]


class DisaggregatedSystem(ServingSystem):
    """Prefill and decode pools joined by a KV-cache transfer fabric.

    Args:
        sim: Shared simulation loop.
        prefill_spec: Resources/parallelism of each prefill instance.
        decode_spec: Resources/parallelism of each decode instance.
        num_prefill: Prefill instances (n of Algorithm 1).
        num_decode: Decode instances (m of Algorithm 1).
        transfer_link: Interconnect KV caches cross. Under Algorithm 2's
            stage-colocated placement this is NVLink; under Algorithm 1 on
            a high-affinity cluster it is the cross-node fabric.
        transfer_channels: Parallel channels per migration (corresponding
            pipeline-stage pairs move their shards concurrently).
        transfer_mode: ``"pull"`` (default, §4.3) or ``"push"``.
        dispatch_policy: Routing policy for both pools.
        rng: Needed only for random dispatch.
        tracer: Optional lifecycle tracer, shared with every instance.
        profiler: Optional critical-path profiler, shared with every
            instance and the transfer engine; additionally receives
            blocked-on-transfer intervals per decode instance (pull mode).
        fast_kernel: Enable the fast-forward simulation kernel on every
            instance (bit-identical results; tracing/profiling forces
            decode instances back to the per-step reference path).
        scheduling: Full policy configuration (:mod:`repro.scheduling`)
            shared by every instance; its ``dispatch_policy`` overrides
            the legacy ``dispatch_policy`` keyword.
    """

    def __init__(
        self,
        sim: Simulation,
        prefill_spec: InstanceSpec,
        decode_spec: InstanceSpec,
        num_prefill: int = 1,
        num_decode: int = 1,
        transfer_link: NetworkLink = NVLINK,
        transfer_channels: "int | None" = None,
        transfer_mode: str = "pull",
        dispatch_policy: str = "least_loaded",
        rng: "np.random.Generator | None" = None,
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        fast_kernel: bool = True,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        super().__init__(sim, tracer=tracer, profiler=profiler, scheduling=scheduling)
        if scheduling is not None:
            dispatch_policy = scheduling.dispatch_policy
        if num_prefill <= 0 or num_decode <= 0:
            raise ValueError("need at least one instance of each kind")
        if transfer_mode not in ("pull", "push"):
            raise ValueError(f"unknown transfer_mode {transfer_mode!r}")
        if prefill_spec.model.name != decode_spec.model.name:
            raise ValueError("prefill and decode instances must serve the same model")
        self.prefill_spec = prefill_spec
        self.decode_spec = decode_spec
        self.transfer_mode = transfer_mode
        self._link = transfer_link
        self._channels = (
            transfer_channels
            if transfer_channels is not None
            else min(prefill_spec.config.pp, decode_spec.config.pp)
        )
        self._transfers = TransferEngine(sim, profiler=profiler)
        self.prefill_instances = [
            PrefillInstance(
                sim, prefill_spec, on_prefill_done=self._on_prefill_done,
                name=f"prefill-{i}", tracer=tracer, profiler=profiler,
                fast_kernel=fast_kernel, scheduling=scheduling,
            )
            for i in range(num_prefill)
        ]
        self.decode_instances = [
            DecodeInstance(
                sim, decode_spec, on_request_done=self._on_decode_done,
                name=f"decode-{i}", tracer=tracer, profiler=profiler,
                fast_kernel=fast_kernel, scheduling=scheduling,
            )
            for i in range(num_decode)
        ]
        self._prefill_dispatch = Dispatcher(
            dispatch_policy, load_fn=lambda inst: inst.queue_len, rng=rng
        )
        self._decode_dispatch = Dispatcher(
            dispatch_policy, load_fn=lambda inst: inst.load, rng=rng
        )
        # Pull queues: per decode instance, requests parked on prefill
        # memory awaiting a reservation.
        self._pending_pull: "dict[str, Deque[tuple[RequestState, PrefillInstance]]]" = {
            inst.name: deque() for inst in self.decode_instances
        }
        self._home_prefill: "dict[int, PrefillInstance]" = {}
        # Blocks promised to transfers still in flight, per decode instance.
        self._inflight_blocks: "dict[str, int]" = {
            inst.name: 0 for inst in self.decode_instances
        }
        #: Instances killed via fault injection.
        self.failures = 0
        self._prefill_kv_tokens = self.prefill_instances[0].kv_capacity_tokens()
        self._decode_kv_tokens = self.decode_instances[0].kv_capacity_tokens()

    # ------------------------------------------------------------------
    @property
    def transfer_records(self):
        return self._transfers.records

    def num_gpus(self) -> int:
        return self.prefill_spec.num_gpus * len(
            self.prefill_instances
        ) + self.decode_spec.num_gpus * len(self.decode_instances)

    def _instrument_components(self, registry: MetricsRegistry) -> None:
        for inst in self.prefill_instances:
            inst.instrument(registry)
        for inst in self.decode_instances:
            inst.instrument(registry)
        self._transfers.instrument(registry)
        self._prefill_dispatch.instrument(registry, pool="prefill")
        self._decode_dispatch.instrument(registry, pool="decode")
        registry.gauge(
            "repro_pending_pull_requests",
            "KV caches parked on prefill memory awaiting a decode reservation",
            fn=self._pending_pull_depth,
        )
        registry.gauge(
            "repro_inflight_reserved_blocks",
            "Decode KV blocks promised to transfers still in flight",
            fn=lambda: sum(self._inflight_blocks.values()),
        )
        registry.counter(
            "repro_instance_failures_total", "Instances killed by fault injection",
            fn=lambda: self.failures,
        )

    def _pending_pull_depth(self) -> int:
        # Plain loop: metric callbacks run on the collection hot path and
        # must not allocate per call (reprolint OBS001).
        total = 0
        for queue in self._pending_pull.values():
            total += len(queue)
        return total

    def _note_pending(self, decode: DecodeInstance) -> None:
        """Reconcile the profiler's blocked-on-transfer interval.

        A decode instance counts as blocked while KV caches are parked
        for it on prefill memory or promised to in-flight transfers —
        the §4.3 pull policy's queuing-on-the-prefill-side signal.
        """
        if not self._prof.enabled:
            return
        blocked = (
            bool(self._pending_pull.get(decode.name))
            or self._inflight_blocks.get(decode.name, 0) > 0
        )
        self._prof.note_pending(decode.name, blocked, self.sim.now)

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Dispatch ``request``, or reject it if no instance can ever serve it.

        A request is unservable when its prompt exceeds a prefill
        instance's KV pool, or when it reaches decoding (more than one
        output token) and its full final context, prompt plus output,
        exceeds a decode instance's pool: decode admission reserves that
        much up front. Admitted anyway, it would hold the prefill queue
        head or sit parked on prefill memory forever, stranding every
        request behind it.
        """
        state = self._register(request)
        if request.input_len > self._prefill_kv_tokens or (
            request.output_len > 1
            and request.total_tokens > self._decode_kv_tokens
        ):
            self._reject(request)
            return
        target = self._prefill_dispatch.choose(self.prefill_instances)
        self._home_prefill[state.request_id] = target
        target.submit(state)

    def _on_prefill_done(self, state: RequestState) -> None:
        prefill = self._home_prefill[state.request_id]
        if state.is_finished:
            # Single-output-token request: prefill produced everything;
            # no KV migration or decoding is needed.
            prefill.release_kv(state.request_id)
            self._home_prefill.pop(state.request_id, None)
            self._complete(state)
            return
        decode = self._decode_dispatch.choose(self.decode_instances)
        # The kv_transfer span opens as soon as the cache is ready to
        # migrate: under the pull policy it covers any time parked on
        # prefill memory awaiting a decode-side reservation, matching the
        # record-level transfer stage (prefill_end .. transfer_end).
        self._trace.begin(
            state.request_id,
            SpanKind.KV_TRANSFER,
            self.sim.now,
            f"{prefill.name}->{decode.name}",
        )
        if self.transfer_mode == "push":
            self._start_transfer(state, prefill, decode)
        else:
            self._pending_pull[decode.name].append((state, prefill))
            self._pump_pulls(decode)

    def _pump_pulls(self, decode: DecodeInstance) -> None:
        """Initiate pulls while the decode instance can reserve memory."""
        queue = self._pending_pull[decode.name]
        while queue:
            state, prefill = queue[0]
            if not decode.can_reserve(
                state, extra_blocks=self._inflight_blocks[decode.name]
            ):
                break
            queue.popleft()
            self._inflight_blocks[decode.name] += decode.reservation_blocks(state)
            self._start_transfer(state, prefill, decode)
        self._note_pending(decode)

    def _start_transfer(
        self,
        state: RequestState,
        prefill: PrefillInstance,
        decode: DecodeInstance,
    ) -> None:
        # The migrated cache covers the full current context (prompt plus
        # any tokens already generated before a failure-recompute).
        num_bytes = kv_cache_bytes(self.prefill_spec.model, state.context_len)
        state.stamp("transfer_start", self.sim.now)

        def _done() -> None:
            state.stamp("transfer_end", self.sim.now)
            self._trace.end(state.request_id, SpanKind.KV_TRANSFER, self.sim.now)
            prefill.release_kv(state.request_id)
            self._home_prefill.pop(state.request_id, None)
            if self.transfer_mode == "pull" and decode.name in self._inflight_blocks:
                self._inflight_blocks[decode.name] -= decode.reservation_blocks(state)
                self._note_pending(decode)
            if not decode.alive:
                # The destination died while the cache was in flight; the
                # data is lost — recompute on the prefill side.
                state.recompute_len = state.context_len
                target = self._prefill_dispatch.choose(self.prefill_instances)
                self._home_prefill[state.request_id] = target
                target.submit(state)
                return
            decode.submit(state)

        self._transfers.submit(
            request_id=state.request_id,
            num_bytes=num_bytes,
            link=self._link,
            on_done=_done,
            num_parallel_channels=self._channels,
        )

    # ------------------------------------------------------------------
    # Fault injection and recovery (the paper's §4.3 future work).
    # ------------------------------------------------------------------
    def fail_prefill(self, name: str) -> int:
        """Kill a prefill instance; re-route its requests.

        Queued and in-flight requests restart prefill on surviving
        instances. Requests whose KV was parked on the failed instance
        (pending pull) lose it and must recompute their prefill.

        Returns:
            The number of requests re-routed.
        """
        victim = self._instance(self.prefill_instances, name)
        if len(self.prefill_instances) <= 1:
            raise RuntimeError("cannot fail the last prefill instance")
        lost = victim.fail()
        self.prefill_instances.remove(victim)
        self.failures += 1
        # Parked-KV requests: pull entries pointing at the dead instance.
        for queue in self._pending_pull.values():
            parked = [(s, p) for s, p in queue if p is victim]
            for entry in parked:
                queue.remove(entry)
                state = entry[0]
                state.recompute_len = state.context_len
                lost.append(state)
        for decode in self.decode_instances:
            self._note_pending(decode)
        rerouted = 0
        for state in lost:
            target = self._prefill_dispatch.choose(self.prefill_instances)
            self._home_prefill[state.request_id] = target
            target.submit(state)
            rerouted += 1
        return rerouted

    def fail_decode(self, name: str) -> int:
        """Kill a decode instance; victims re-prefill their full context.

        This is the fault *propagation* path the paper warns about: one
        decode failure sends a burst of recompute work to the prefill
        pool.

        Returns:
            The number of requests sent back for re-prefill.
        """
        victim = self._instance(self.decode_instances, name)
        if len(self.decode_instances) <= 1:
            raise RuntimeError("cannot fail the last decode instance")
        lost = victim.fail()
        self.decode_instances.remove(victim)
        self.failures += 1
        if self._prof.enabled:
            self._prof.end_pending(victim.name, self.sim.now)
        # Requests queued for pull toward the dead instance keep their
        # prefill-side KV; just re-route the pull to a survivor.
        stranded = list(self._pending_pull.pop(victim.name, ()))
        self._inflight_blocks.pop(victim.name, None)
        for state, prefill in stranded:
            decode = self._decode_dispatch.choose(self.decode_instances)
            self._pending_pull[decode.name].append((state, prefill))
            self._pump_pulls(decode)
        # Active/waiting victims lost their decode-side KV: re-prefill.
        for state in lost:
            target = self._prefill_dispatch.choose(self.prefill_instances)
            self._home_prefill[state.request_id] = target
            target.submit(state)
        return len(lost)

    @staticmethod
    def _instance(pool, name: str):
        for inst in pool:
            if inst.name == name:
                return inst
        known = ", ".join(i.name for i in pool)
        raise KeyError(f"no instance {name!r}; known: {known}")

    def _on_decode_done(self, state: RequestState) -> None:
        self._complete(state)
        # Freed KV may unblock pending pulls on that instance.
        for decode in self.decode_instances:
            if self._pending_pull[decode.name]:
                self._pump_pulls(decode)
