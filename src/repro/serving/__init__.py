"""Serving systems: colocated baseline, disaggregated DistServe, phase-only."""

from .api import APIFrontend, CompletionRequest, CompletionResponse, count_tokens
from .base import ServingSystem, SimulationResult, simulate_trace
from .colocated import ColocatedSystem
from .disaggregated import DisaggregatedSystem
from .dispatch import DISPATCH_POLICIES, Dispatcher
from .phase_only import DecodeOnlySystem, PrefillOnlySystem

__all__ = [
    "APIFrontend",
    "CompletionRequest",
    "CompletionResponse",
    "count_tokens",
    "ServingSystem",
    "SimulationResult",
    "simulate_trace",
    "ColocatedSystem",
    "DisaggregatedSystem",
    "DISPATCH_POLICIES",
    "Dispatcher",
    "DecodeOnlySystem",
    "PrefillOnlySystem",
]
