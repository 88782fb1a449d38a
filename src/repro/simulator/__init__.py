"""Discrete-event cluster simulator: the substrate replacing the paper's
C++/CUDA execution engine (see DESIGN.md substitution table)."""

from .colocated_instance import POLICIES, ColocatedInstance
from .decode_instance import DecodeInstance
from .events import Simulation
from .instance import DEFAULT_BLOCK_SIZE, InstanceSpec
from .kvcache import KVBlockManager, OutOfBlocksError
from .metrics import (
    AttainmentSnapshot,
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricSamples,
    MetricsRegistry,
    SloMonitor,
    exponential_buckets,
)
from .prefill_instance import PrefillInstance
from .profiler import NULL_PROFILER, NullProfiler, Profiler
from .request import RequestPhase, RequestRecord, RequestState
from .sanitizer import (
    SanitizedSimulation,
    SanitizerError,
    SimSanitizer,
    Violation,
)
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanKind,
    Tracer,
    chrome_trace_events,
    spans_by_request,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .transfer import TransferEngine, TransferRecord

__all__ = [
    "POLICIES",
    "ColocatedInstance",
    "DecodeInstance",
    "Simulation",
    "DEFAULT_BLOCK_SIZE",
    "InstanceSpec",
    "KVBlockManager",
    "OutOfBlocksError",
    "PrefillInstance",
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "RequestPhase",
    "RequestRecord",
    "RequestState",
    "SanitizedSimulation",
    "SanitizerError",
    "SimSanitizer",
    "Violation",
    "AttainmentSnapshot",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricSamples",
    "MetricsRegistry",
    "SloMonitor",
    "exponential_buckets",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanKind",
    "Tracer",
    "chrome_trace_events",
    "spans_by_request",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "TransferEngine",
    "TransferRecord",
]
