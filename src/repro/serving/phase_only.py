"""Phase-only serving systems, used by Figure 1's motivation experiment.

Figure 1 compares a colocated system against (a) a system serving *only*
the prefill phase — its TTFT is unpolluted by decoding — and (b) a
system serving *only* decoding — its TPOT is unpolluted by prefill.
These are idealized single-phase engines:

* :class:`PrefillOnlySystem` completes a request when its first token is
  produced; subsequent output tokens are stamped instantly so records
  stay well-formed (TPOT ~ 0 by construction, only TTFT is meaningful).
* :class:`DecodeOnlySystem` assumes the KV cache materializes for free
  at arrival (TTFT ~ 0 by construction, only TPOT is meaningful).

Both reject at :meth:`submit` what their one pool can never hold, by
the rules :class:`~repro.serving.disaggregated.DisaggregatedSystem`
applies to the same phase; admitted, such a request would hold the
queue head forever and strand every request behind it.
"""

from __future__ import annotations

from .base import ServingSystem
from .dispatch import Dispatcher
from ..scheduling.config import SchedulingConfig
from ..simulator.decode_instance import DecodeInstance
from ..simulator.events import Simulation
from ..simulator.instance import InstanceSpec
from ..simulator.metrics import MetricsRegistry
from ..simulator.prefill_instance import PrefillInstance
from ..simulator.profiler import Profiler
from ..simulator.request import RequestState
from ..simulator.tracing import SpanKind, Tracer
from ..workload.trace import Request

__all__ = ["PrefillOnlySystem", "DecodeOnlySystem"]


class PrefillOnlySystem(ServingSystem):
    """Serves only the prefill phase (Figure 1 upper, orange curve)."""

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        num_instances: int = 1,
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        fast_kernel: bool = True,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        super().__init__(sim, tracer=tracer, profiler=profiler, scheduling=scheduling)
        self.spec = spec
        self.instances = [
            PrefillInstance(
                sim, spec, on_prefill_done=self._finish, name=f"prefill-{i}",
                tracer=tracer, profiler=profiler, fast_kernel=fast_kernel,
                scheduling=scheduling,
            )
            for i in range(num_instances)
        ]
        # Phase-only engines are single-pool probes: dispatch stays
        # least-loaded regardless of the configured cross-pool policy.
        self._dispatch = Dispatcher("least_loaded", load_fn=lambda i: i.queue_len)
        self._kv_tokens = self.instances[0].kv_capacity_tokens()

    def _instrument_components(self, registry: MetricsRegistry) -> None:
        for inst in self.instances:
            inst.instrument(registry)
        self._dispatch.instrument(registry, pool="prefill")

    def submit(self, request: Request) -> None:
        """Dispatch ``request``, or reject a prompt over the KV pool."""
        state = self._register(request)
        if request.input_len > self._kv_tokens:
            self._reject(request)
            return
        self._dispatch.choose(self.instances).submit(state)

    def _finish(self, state: RequestState) -> None:
        # The parked KV is dropped immediately (no decode side exists) and
        # remaining tokens are free — only TTFT is under test.
        for inst in self.instances:
            inst.release_kv(state.request_id)
        if self._trace.enabled:
            while not state.is_finished:
                state.record_token(self.sim.now)
                self._trace.span(
                    state.request_id,
                    SpanKind.DECODE_STEP,
                    self.sim.now,
                    self.sim.now,
                    token_index=state.generated - 1,
                )
        else:
            # Bulk-stamp the free tokens: one extend instead of an
            # O(output_len) loop of property reads and span calls.
            remaining = state.remaining_tokens
            if remaining > 0:
                state.record_tokens([self.sim.now] * remaining)
        self._complete(state)

    def num_gpus(self) -> int:
        return self.spec.num_gpus * len(self.instances)


class DecodeOnlySystem(ServingSystem):
    """Serves only the decoding phase (Figure 1 lower, green curve)."""

    def __init__(
        self,
        sim: Simulation,
        spec: InstanceSpec,
        num_instances: int = 1,
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        fast_kernel: bool = True,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        super().__init__(sim, tracer=tracer, profiler=profiler, scheduling=scheduling)
        self.spec = spec
        self.instances = [
            DecodeInstance(
                sim, spec, on_request_done=self._complete, name=f"decode-{i}",
                tracer=tracer, profiler=profiler, fast_kernel=fast_kernel,
                scheduling=scheduling,
            )
            for i in range(num_instances)
        ]
        self._dispatch = Dispatcher("least_loaded", load_fn=lambda i: i.load)
        self._kv_tokens = self.instances[0].kv_capacity_tokens()

    def _instrument_components(self, registry: MetricsRegistry) -> None:
        for inst in self.instances:
            inst.instrument(registry)
        self._dispatch.instrument(registry, pool="decode")

    def submit(self, request: Request) -> None:
        """Start decoding ``request``, or reject it if it can never fit.

        A request that decodes (more than one output token) reserves its
        final context, prompt plus output, at admission; one larger than
        the KV pool is rejected.
        """
        state = self._register(request)
        if request.output_len > 1 and request.total_tokens > self._kv_tokens:
            self._reject(request)
            return
        # The KV cache appears for free; the first token is emitted
        # immediately so decode steps generate the remaining tokens.
        state.stamp("prefill_start", self.sim.now)
        state.stamp("prefill_end", self.sim.now)
        state.stamp("transfer_end", self.sim.now)
        state.record_token(self.sim.now)
        self._trace.span(
            state.request_id,
            SpanKind.DECODE_STEP,
            self.sim.now,
            self.sim.now,
            token_index=0,
        )
        if state.is_finished:
            self._complete(state)
            return
        self._dispatch.choose(self.instances).submit(state)

    def num_gpus(self) -> int:
        return self.spec.num_gpus * len(self.instances)
