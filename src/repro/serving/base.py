"""Serving-system abstraction and the trace runner.

A serving system accepts requests and eventually produces one
:class:`~repro.simulator.request.RequestRecord` per finished request.
:func:`simulate_trace` drives any system with a workload trace inside a
fresh simulation and packages the outcome.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..scheduling.config import SchedulingConfig
from ..simulator.events import Simulation
from ..simulator.metrics import MetricsRegistry, SloMonitor
from ..simulator.profiler import NULL_PROFILER, Profiler
from ..simulator.request import RequestRecord, RequestState
from ..simulator.tracing import NULL_TRACER, Span, SpanKind, Tracer
from ..simulator.transfer import TransferRecord
from ..workload.trace import Request, Trace

__all__ = ["ServingSystem", "SimulationResult", "simulate_trace"]


class ServingSystem(abc.ABC):
    """Base class for simulated serving systems.

    Subclasses implement :meth:`submit`; completion flows back through
    :meth:`_complete`, which freezes the request into a record. An
    optional :class:`~repro.simulator.tracing.Tracer` receives per-request
    lifecycle spans (``arrival``/``completion`` from this base; queue,
    exec, transfer, and step spans from the instances the subclass wires
    the tracer into). An optional
    :class:`~repro.simulator.profiler.Profiler` receives instance-level
    execution events through the same injection pattern — subclasses
    forward it to their instances and transfer engines.
    """

    def __init__(
        self,
        sim: Simulation,
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
        scheduling: "SchedulingConfig | None" = None,
    ) -> None:
        self.sim = sim
        self.tracer = tracer
        self.profiler = profiler
        #: The policy triple this system runs under (None = paper
        #: defaults). Subclasses thread it into their instances and
        #: dispatchers; exposed here so reports can label runs.
        self.scheduling = scheduling
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._prof = profiler if profiler is not None else NULL_PROFILER
        self.records: "list[RequestRecord]" = []
        self._submitted = 0
        #: Requests refused admission at :meth:`submit` (see :meth:`_reject`).
        self.rejections = 0
        self._monitor: "SloMonitor | None" = None

    @abc.abstractmethod
    def submit(self, request: Request) -> None:
        """Accept one arriving request."""

    @property
    def submitted(self) -> int:
        return self._submitted

    @property
    def unfinished(self) -> int:
        """Requests accepted but neither completed nor rejected."""
        return self._submitted - len(self.records) - self.rejections

    @property
    def monitor(self) -> "SloMonitor | None":
        """The attached online SLO monitor, if any."""
        return self._monitor

    def attach_monitor(self, monitor: SloMonitor) -> None:
        """Feed arrivals/completions into an online SLO monitor.

        Attach before the first arrival so cumulative attainment covers
        every request; the monitor then matches the offline
        :func:`repro.analysis.slo.slo_attainment` computation exactly.
        """
        self._monitor = monitor

    def instrument(self, registry: MetricsRegistry) -> None:
        """Register system-level metrics, then per-component ones.

        Idempotent; subclasses extend :meth:`_instrument_components` to
        cover their instances, dispatchers, and transfer engines.
        """
        registry.counter(
            "repro_requests_submitted_total", "Requests accepted by the system",
            fn=lambda: self._submitted,
        )
        registry.counter(
            "repro_requests_completed_total", "Requests fully served",
            fn=lambda: len(self.records),
        )
        registry.counter(
            "repro_requests_rejected_total", "Requests refused admission",
            fn=lambda: self.rejections,
        )
        registry.gauge(
            "repro_requests_in_flight", "Accepted but not yet completed",
            fn=lambda: self.unfinished,
        )
        self._instrument_components(registry)

    def _instrument_components(self, registry: MetricsRegistry) -> None:
        """Subclass hook: instrument instances/dispatchers/transfers."""

    def _register(self, request: Request) -> RequestState:
        self._submitted += 1
        self._trace.instant(request.request_id, SpanKind.ARRIVAL, self.sim.now)
        if self._monitor is not None:
            self._monitor.observe_arrival(request)
        return RequestState(request=request)

    def _reject(self, request: Request) -> None:
        """Refuse a registered request that no instance could ever serve."""
        self.rejections += 1
        self._trace.instant(request.request_id, SpanKind.REJECTED, self.sim.now)

    def _complete(self, state: RequestState) -> None:
        record = state.to_record()
        self.records.append(record)
        self._trace.instant(state.request_id, SpanKind.COMPLETION, self.sim.now)
        if self._monitor is not None:
            self._monitor.observe_completion(record)

    def num_gpus(self) -> int:
        """GPUs provisioned by this system (for per-GPU goodput)."""
        raise NotImplementedError


@dataclass
class SimulationResult:
    """Outcome of one trace simulation."""

    records: "list[RequestRecord]"
    unfinished: int
    sim_time: float
    events_processed: int
    transfer_records: "list[TransferRecord]" = field(default_factory=list)
    num_gpus: int = 0
    #: Lifecycle spans, when the system was built with a tracer.
    spans: "list[Span]" = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.records)


def simulate_trace(
    system: ServingSystem,
    trace: Trace,
    max_sim_time: "float | None" = None,
    max_events: "int | None" = None,
) -> SimulationResult:
    """Feed ``trace`` into ``system`` and run the simulation to completion.

    Args:
        system: A serving system bound to a fresh :class:`Simulation`.
        trace: Arrival-ordered requests.
        max_sim_time: Optional virtual-time cutoff (requests still in
            flight at the cutoff are reported as unfinished).
        max_events: Safety valve for runaway simulations.
    """
    sim = system.sim
    for request in trace:
        assert request.arrival_time >= sim.now  # traces arrive in the future
        sim.schedule_at(request.arrival_time, _make_arrival(system, request))
    sim.run(until=max_sim_time, max_events=max_events)
    profiler = getattr(system, "profiler", None)
    if profiler is not None:
        profiler.finish(sim.now)
    transfers = getattr(system, "transfer_records", [])
    try:
        gpus = system.num_gpus()
    except NotImplementedError:
        gpus = 0
    tracer = getattr(system, "tracer", None)
    return SimulationResult(
        records=list(system.records),
        unfinished=system.unfinished,
        sim_time=sim.now,
        events_processed=sim.events_processed,
        transfer_records=list(transfers),
        num_gpus=gpus,
        spans=list(tracer.spans) if tracer is not None else [],
    )


def _make_arrival(system: ServingSystem, request: Request):
    def _arrive() -> None:
        system.submit(request)

    return _arrive
