"""Colocated serving system: N replicas of a vLLM-like engine.

The baseline of §6. Each replica colocates prefill and decoding on the
same GPUs; arrivals are dispatched across replicas (least-loaded by
default). ``policy`` selects the iteration scheduler — see
:mod:`repro.simulator.colocated_instance`.
"""

from __future__ import annotations

import numpy as np

from .base import ServingSystem
from .dispatch import Dispatcher
from ..scheduling.config import SchedulingConfig
from ..simulator.colocated_instance import ColocatedInstance
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec
from ..simulator.metrics import MetricsRegistry
from ..simulator.profiler import Profiler
from ..simulator.request import RequestState
from ..simulator.tracing import Tracer
from ..workload.trace import Request

__all__ = ["ColocatedSystem"]


class ColocatedSystem(ServingSystem):
    """One or more colocated replicas behind a dispatcher.

    Args:
        sim: Shared simulation loop.
        spec: Per-replica resources and parallelism.
        num_replicas: Model replicas (rate capacity scales linearly, §2.2).
        policy: Iteration scheduling policy of each replica.
        dispatch_policy: How arrivals are routed across replicas.
        max_prefill_tokens: Per-iteration prefill token budget.
        chunk_size: Chunk budget for the ``"chunked"`` policy.
        rng: Needed only for random dispatch.
        tracer: Optional lifecycle tracer, shared with every replica.
        profiler: Optional critical-path profiler, shared with every
            replica.
        fast_kernel: Evaluate iteration latency through the memoized
            timers and run decode iterations as macro runs (see
            :class:`~repro.simulator.colocated_instance.ColocatedInstance`);
            results are bit-identical either way.
        scheduling: Full policy configuration (:mod:`repro.scheduling`)
            shared by every replica; its ``dispatch_policy`` overrides
            the legacy ``dispatch_policy`` keyword.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        num_replicas: int = 1,
        policy: str = "prefill_priority",
        dispatch_policy: str = "least_loaded",
        max_prefill_tokens: int = 2048,
        chunk_size: int = 512,
        rng: "np.random.Generator | None" = None,
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        fast_kernel: bool = True,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        super().__init__(sim, tracer=tracer, profiler=profiler, scheduling=scheduling)
        if num_replicas <= 0:
            raise ValueError(f"num_replicas must be positive, got {num_replicas}")
        if scheduling is not None:
            dispatch_policy = scheduling.dispatch_policy
        self.spec = spec
        self.instances = [
            ColocatedInstance(
                sim,
                spec,
                on_request_done=self._complete,
                policy=policy,
                max_prefill_tokens=max_prefill_tokens,
                chunk_size=chunk_size,
                name=f"colocated-{i}",
                tracer=tracer,
                profiler=profiler,
                fast_kernel=fast_kernel,
                scheduling=scheduling,
            )
            for i in range(num_replicas)
        ]
        self._dispatcher = Dispatcher(
            dispatch_policy, load_fn=lambda inst: inst.load, rng=rng
        )
        #: Replicas killed via fault injection.
        self.failures = 0
        self._kv_capacity_tokens = self.instances[0].kv_capacity_tokens()

    def submit(self, request: Request) -> None:
        """Dispatch ``request``, or reject it if no replica can ever serve it.

        A request is unservable when its full final context, prompt plus
        every output token, exceeds an empty replica's KV pool. That is
        the most KV it can hold: a recompute preemption or a failover
        re-prefills the context with the last generated token's slot
        included, one more than an uninterrupted run ends with. Admitted
        anyway, it would block the FCFS queue head forever, or spin
        through iterations once it is alone and cannot grow.
        """
        state = self._register(request)
        if request.total_tokens > self._kv_capacity_tokens:
            self._reject(request)
            return
        self._dispatcher.choose(self.instances).submit(state)

    def fail_replica(self, name: str) -> int:
        """Kill a replica; re-route its requests to the survivors.

        Victims whose prefill started (or that were decoding) lost
        their KV and re-run prefill over their full current context on
        the replica they land on.

        Returns:
            The number of requests re-routed.
        """
        victim = None
        for inst in self.instances:
            if inst.name == name:
                victim = inst
                break
        if victim is None:
            known = ", ".join(i.name for i in self.instances)
            raise KeyError(f"no replica {name!r}; known: {known}")
        if len(self.instances) <= 1:
            raise RuntimeError("cannot fail the last replica")
        lost = victim.fail()
        self.instances.remove(victim)
        self.failures += 1
        for state in lost:
            self._dispatcher.choose(self.instances).submit(state)
        return len(lost)

    def num_gpus(self) -> int:
        return self.spec.num_gpus * len(self.instances)

    def _instrument_components(self, registry: MetricsRegistry) -> None:
        for inst in self.instances:
            inst.instrument(registry)
        self._dispatcher.instrument(registry, pool="replica")

    @property
    def total_preemptions(self) -> int:
        return sum(inst.preemptions for inst in self.instances)
