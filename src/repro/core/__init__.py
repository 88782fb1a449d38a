"""DistServe's core contribution: goodput-optimal placement search."""

from .config import PhasePlan, Placement
from .cost import CostModel, compare_cost, cost_per_request
from .deploy import build_system
from .goodput import (
    GoodputResult,
    TrialOutcome,
    max_goodput,
    min_slo_scale,
    run_attainment_trial,
)
from .placement_high import place_high_affinity
from .placement_low import IntraNodeConfig, get_intra_node_configs, place_low_affinity
from .replan import DriftThresholds, ReplanController, WorkloadProfiler
from .search import (
    ParallelEvaluator,
    PlacementSearchStats,
    TrialCache,
    fingerprint,
    trial_context_fingerprint,
)
from .simulate import candidate_configs, phase_trial_setup
from .validate import ValidationReport, validate_placement

__all__ = [
    "PhasePlan",
    "CostModel",
    "compare_cost",
    "cost_per_request",
    "Placement",
    "build_system",
    "GoodputResult",
    "TrialOutcome",
    "max_goodput",
    "min_slo_scale",
    "run_attainment_trial",
    "PlacementSearchStats",
    "place_high_affinity",
    "IntraNodeConfig",
    "get_intra_node_configs",
    "place_low_affinity",
    "DriftThresholds",
    "ReplanController",
    "WorkloadProfiler",
    "ParallelEvaluator",
    "TrialCache",
    "fingerprint",
    "trial_context_fingerprint",
    "candidate_configs",
    "phase_trial_setup",
    "ValidationReport",
    "validate_placement",
]
