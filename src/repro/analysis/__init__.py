"""Analysis: SLO attainment, percentiles, critical paths, report tables."""

from .critpath import (
    PHASES,
    STAGES,
    TTFT_PHASES,
    LatencyBreakdown,
    RequestCriticalPath,
    build_profile,
    critical_paths,
    diff_profiles,
    format_profile,
    format_profile_diff,
    latency_breakdown,
    profile_to_html,
    profile_to_json,
)
from .metrics_export import (
    phase_utilization,
    registry_snapshot,
    to_prometheus_text,
    write_metrics_json,
    write_prometheus_text,
)
from .percentiles import cdf_points, latency_summary, tpot_percentile, ttft_percentile
from .reporting import format_series, format_table
from .slo import AttainmentReport, slo_attainment

__all__ = [
    "STAGES",
    "LatencyBreakdown",
    "latency_breakdown",
    "PHASES",
    "TTFT_PHASES",
    "RequestCriticalPath",
    "build_profile",
    "critical_paths",
    "diff_profiles",
    "format_profile",
    "format_profile_diff",
    "profile_to_html",
    "profile_to_json",
    "phase_utilization",
    "registry_snapshot",
    "to_prometheus_text",
    "write_metrics_json",
    "write_prometheus_text",
    "cdf_points",
    "latency_summary",
    "tpot_percentile",
    "ttft_percentile",
    "format_series",
    "format_table",
    "AttainmentReport",
    "slo_attainment",
]
