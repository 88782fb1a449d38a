"""Workload profiling and periodic replanning (§4.3 "Replaning").

A :class:`WorkloadProfiler` summarizes a sliding window of recent
requests — "key parameters such as the average input and output length
of the requests, the average arrival rate". When the recent pattern
drifts beyond tolerance from the pattern the current placement was
planned for, :meth:`ReplanController.maybe_replan` re-runs the
placement algorithm on a workload fitted to the recent history — cheap
(seconds, §6.5) compared to the hourly timescale of real drift.
Callers feed the profiler requests via :meth:`WorkloadProfiler.observe`
into a count-bounded deque.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque

from .config import Placement
from ..workload.fitting import fit_trace
from ..workload.trace import Request, Trace, TraceStats

__all__ = ["WorkloadProfiler", "DriftThresholds", "ReplanController"]


class WorkloadProfiler:
    """Sliding-window summary of recent traffic.

    Args:
        window_size: Maximum requests summarized: the most recent
            ``window_size`` observed.
    """

    def __init__(self, window_size: int = 1000) -> None:
        if window_size < 2:
            raise ValueError(f"window_size must be >= 2, got {window_size}")
        self._window: "Deque[Request]" = deque(maxlen=window_size)

    def observe(self, request: Request) -> None:
        """Record one served request."""
        self._window.append(request)

    def __len__(self) -> int:
        return len(self._window)

    def snapshot(self) -> Trace:
        """The current window as a trace (arrival-ordered)."""
        return Trace(requests=list(self._window))

    def stats(self) -> TraceStats:
        return self.snapshot().stats()


@dataclass(frozen=True)
class DriftThresholds:
    """Relative changes that count as a "significant pattern shift".

    A ratio of 1.3 means a 30% increase (or the reciprocal decrease)
    triggers replanning.
    """

    rate_ratio: float = 1.3
    input_len_ratio: float = 1.3
    output_len_ratio: float = 1.3

    def __post_init__(self) -> None:
        for name in ("rate_ratio", "input_len_ratio", "output_len_ratio"):
            if getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be > 1, got {getattr(self, name)}")


def _drifted(current: float, planned: float, ratio: float) -> bool:
    if planned <= 0:
        return current > 0
    r = current / planned
    return r > ratio or r < 1.0 / ratio


class ReplanController:
    """Detects drift and re-runs the placement algorithm.

    Args:
        profiler: Source of the recent-traffic window.
        planner: Callable mapping (fitted dataset, rate) to a new
            placement — typically a partial of
            :func:`~repro.core.placement_low.place_low_affinity`.
        thresholds: Drift sensitivities.
        min_window: Do nothing until this many requests are observed.
    """

    def __init__(
        self,
        profiler: WorkloadProfiler,
        planner: "Callable[..., Placement]",
        thresholds: "DriftThresholds | None" = None,
        min_window: int = 100,
    ) -> None:
        self._profiler = profiler
        self._planner = planner
        self._thresholds = thresholds or DriftThresholds()
        self._min_window = min_window
        self._planned_stats: "TraceStats | None" = None
        self.current_placement: "Placement | None" = None
        self.replans = 0

    def initialize(self, placement: Placement, planned_stats: TraceStats) -> None:
        """Record the initial plan and the workload it was planned for."""
        self.current_placement = placement
        self._planned_stats = planned_stats

    def drift_detected(self) -> bool:
        """Whether the recent window deviates beyond the thresholds."""
        if self._planned_stats is None or len(self._profiler) < self._min_window:
            return False
        now = self._profiler.stats()
        ref = self._planned_stats
        th = self._thresholds
        return (
            _drifted(now.arrival_rate, ref.arrival_rate, th.rate_ratio)
            or _drifted(now.mean_input_len, ref.mean_input_len, th.input_len_ratio)
            or _drifted(now.mean_output_len, ref.mean_output_len, th.output_len_ratio)
        )

    def maybe_replan(self) -> "Placement | None":
        """Replan if drifted; returns the new placement (or None).

        The new plan is fitted to the recent window — DistServe "will
        trigger a rerun of the placement algorithm based on recent
        historical data".
        """
        if not self.drift_detected():
            return None
        window = self._profiler.snapshot()
        fitted = fit_trace(window, method="empirical")
        placement = self._planner(fitted.dataset, fitted.arrival_rate)
        self.current_placement = placement
        self._planned_stats = window.stats()
        self.replans += 1
        return placement
